package mapred

// Tick-scoped caching for the heartbeat.
//
// Between beginTick and endTick the event queue is silent: no sim event can
// fire, so tracker availability, expiry and suspension are frozen, and the
// only task-state mutations are the heartbeat's own launches plus the rare
// synchronous failure paths a launch can trip (an input read with no live
// replica, an output create error, a first shuffle fetch that invalidates a
// map output). Launches move state in one direction only — pending tasks
// gain a running instance, speculative counts grow, candidate sets shrink —
// so caches of "no work left" and monotone counters stay exact across them.
// The synchronous failure paths can move state the other way (a task can
// become pending again mid-tick), so every direction-sensitive cache records
// jt.tickMut when filled and is discarded the moment a detach or map-output
// invalidation bumps it. Correctness therefore never depends on those paths
// being rare; the caches just stop helping when they fire.

// beginTick opens a heartbeat: all tick-scoped caches start invalid.
func (jt *JobTracker) beginTick() {
	jt.inTick = true
	jt.slotsCached = false
	jt.specCached = false
	jt.noPending = [2]bool{}
	jt.noSpec = [2]bool{}
}

// endTick closes the heartbeat; caches are dead until the next beginTick.
func (jt *JobTracker) endTick() { jt.inTick = false }

// taskStateChanged records a task-state mutation that may run mid-tick in a
// cache-hostile direction (an attempt detached, a completed map invalidated).
// Bumping the generation invalidates every mut-guarded tick cache.
func (jt *JobTracker) taskStateChanged() { jt.tickMut++ }

// pendingExhausted reports whether this tick already proved no job has a
// pending task of the type (valid only while no mutation intervened).
func (jt *JobTracker) pendingExhausted(typ TaskType) bool {
	return jt.noPending[typ] && jt.noPendingMut[typ] == jt.tickMut
}

func (jt *JobTracker) markPendingExhausted(typ TaskType) {
	jt.noPending[typ] = true
	jt.noPendingMut[typ] = jt.tickMut
}

// specExhausted reports whether this tick already proved no tracker can
// receive a speculative copy of the type. It is only set when every job's
// nil pick was tracker-independent (cap hit, precondition failed, or empty
// candidate bases) — a nil caused by a tracker-local filter never sets it.
func (jt *JobTracker) specExhausted(typ TaskType) bool {
	return jt.noSpec[typ] && jt.noSpecMut[typ] == jt.tickMut
}

func (jt *JobTracker) markSpecExhausted(typ TaskType) {
	jt.noSpec[typ] = true
	jt.noSpecMut[typ] = jt.tickMut
}

// countAvailableSlots scans the fleet for live execution slots. Pure reads
// of tracker state.
func (jt *JobTracker) countAvailableSlots() int {
	total := 0
	for _, tt := range jt.trackers {
		if tt.node.Available() && !tt.expired {
			total += tt.mapSlots + tt.reduceSlots
		}
	}
	return total
}

// countOccupancy returns (total, used) slots over live trackers. used
// counts running attempts.
func (jt *JobTracker) countOccupancy() (int, int) {
	total, used := 0, 0
	for _, tt := range jt.trackers {
		if !tt.node.Available() || tt.expired {
			continue
		}
		total += tt.mapSlots + tt.reduceSlots
		used += len(tt.running)
	}
	return total, used
}
