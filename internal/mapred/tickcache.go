package mapred

// Tick-scoped caching for the heartbeat.
//
// A tick caches noPending[typ] (no job has a pending task of the type),
// noSpec[typ] (no tracker can receive a speculative copy of the type) and
// the fleet-wide active speculative count (cachedSpec, while specCached).
// The first two let tick skip the rest of the fleet once a pick proves it
// idle. With all three removed, stdout held byte-equal but a sim-fleet run
// (4 000 trackers, seed 5) took 4 894 ms instead of 253, sim-sort 620
// instead of 346 and sim-wordcount 737 instead of 301 (`moonbench
// -scenario bench/workloads/<w>.json -seeds 5 -parallel 1`, 2-vCPU
// container): without them the idle part of a heartbeat is
// O(trackers × tasks).
//
// Between beginTick and endTick the event queue is silent: no sim event can
// fire, so tracker availability, expiry and suspension are frozen, and the
// only task-state mutations are the heartbeat's own launches plus the rare
// synchronous failure paths a launch can trip (an input read with no live
// replica, an output create error, a first shuffle fetch that invalidates a
// map output). Launches move state in one direction only — pending tasks
// gain a running instance, speculative counts grow, candidate sets shrink —
// so caches of "no work left" and monotone counters stay exact across them.
// The failure paths can move state the other way (a task can become
// pending again mid-tick), and each runs taskStateChanged, which clears
// every cache: correctness never depends on those paths being rare.

// beginTick opens a heartbeat with every tick cache empty.
func (jt *JobTracker) beginTick() {
	jt.inTick = true
	jt.taskStateChanged()
}

// endTick closes the heartbeat; caches are dead until the next beginTick.
func (jt *JobTracker) endTick() { jt.inTick = false }

// taskStateChanged clears the tick caches after a task-state mutation that
// may run mid-tick in a cache-hostile direction (an attempt detached, a
// completed map invalidated).
func (jt *JobTracker) taskStateChanged() {
	jt.specCached = false
	jt.noPending = [2]bool{}
	jt.noSpec = [2]bool{}
}
