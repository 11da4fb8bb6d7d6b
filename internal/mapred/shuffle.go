package mapred

import (
	"math/bits"

	"repro/internal/dfs"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// fetchState is a reducer's view of one map's output.
type fetchState uint8

const (
	fetchPending fetchState = iota
	fetchInflight
	fetchDone
	fetchBackoff
)

// mapSet is a set of map indices of one job, a bit each.
type mapSet []uint64

func (s mapSet) has(m int) bool { return s[m>>6]&(1<<(m&63)) != 0 }

func (s mapSet) put(m int, in bool) {
	if in {
		s[m>>6] |= 1 << (m & 63)
	} else {
		s[m>>6] &^= 1 << (m & 63)
	}
}

// shuffleState drives one reduce attempt's copy phase: it fetches this
// reducer's partition from every completed map, at most ParallelCopies at a
// time, retrying failed fetches after a backoff and reporting fetch
// failures to the JobTracker (which decides on map re-execution).
//
// pump runs for every shuffling reduce whenever one map completes or one
// fetch ends, so it must cost what changed, not the size of the job. Three
// sets of map indices make its walk: want, the maps this attempt has yet to
// start a fetch for (fetchPending or fetchBackoff); backoff, those of them
// in fetchBackoff; and the job's mapReady, the maps that have an output to
// fetch. pump visits (want & mapReady) | backoff in index order. A map in
// backoff is visited whether or not it has an output, because the visit has
// an effect either way: before its time is up it arms the retry timer —
// which draws an event sequence number — and after, it returns the map to
// fetchPending. Every other map the old every-map walk looked at, it left
// alone. state[] stays the record; setState is its only writer and keeps want
// and backoff in step (FuzzPumpVsScan holds the walk to the every-map one).
type shuffleState struct {
	in *Instance
	jt *JobTracker

	state         []fetchState
	want, backoff mapSet
	flows         []netmodel.Flow // the fetch in flight per map, zero when none

	// failures is the retry bookkeeping of the maps a fetch has failed for,
	// made on the first failure: most attempts never see one.
	failures map[int]*fetchFailures

	// onFetch and onRetry are fetchDone and retryFired bound once: every
	// fetch passes onFetch, with the map index as the read's tag, and every
	// retry timer onRetry, so starting one makes no closure here.
	onFetch func(m, src int, err error)
	onRetry func()

	fetched  int
	inflight int
	retryEv  sim.Event
	finished bool
}

// fetchFailures is what one attempt remembers of its failed fetches of one
// map until the map is invalidated.
type fetchFailures struct {
	count     int     // failures observed by THIS attempt (MOON rule)
	backoffAt float64 // no retry before
	sources   []int   // replica holders that already failed
}

func newShuffle(jt *JobTracker, in *Instance) *shuffleState {
	n := in.task.job.cfg.NumMaps
	words := (n + 63) / 64
	sets := make(mapSet, 2*words)
	sh := &shuffleState{
		in:      in,
		jt:      jt,
		state:   make([]fetchState, n),
		want:    sets[:words:words],
		backoff: sets[words:],
		flows:   make([]netmodel.Flow, n),
	}
	for m := 0; m < n; m++ {
		sh.want.put(m, true) // every map starts fetchPending
	}
	sh.onFetch, sh.onRetry = sh.fetchDone, sh.retryFired
	return sh
}

// setState is the one writer of state[m].
func (sh *shuffleState) setState(m int, st fetchState) {
	sh.state[m] = st
	sh.want.put(m, st == fetchPending || st == fetchBackoff)
	sh.backoff.put(m, st == fetchBackoff)
}

// candidate returns the lowest map index >= from that pump has something to
// do for, or -1. It reads the sets as they are now: what pump does for one
// candidate can change them for the next.
func (sh *shuffleState) candidate(from int) int {
	ready := sh.in.task.job.mapReady
	for w := from >> 6; w < len(sh.want); w++ {
		word := sh.want[w]&ready[w] | sh.backoff[w]
		if w == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// partitionBytes is the share of one map output this reducer copies.
func (sh *shuffleState) partitionBytes() float64 {
	cfg := sh.in.task.job.cfg
	if cfg.NumReduces == 0 {
		return 0
	}
	return cfg.IntermediatePerMap / float64(cfg.NumReduces)
}

// pump starts fetches up to the parallel-copy limit. It is called on
// launch, on every map completion, on fetch completion, and on retry
// timers.
func (sh *shuffleState) pump() {
	if sh.finished || sh.in.phase != phaseShuffle || !sh.in.node.Available() {
		return
	}
	now := sh.jt.sim.Now()
	job := sh.in.task.job
	// A fetch that fails on the spot can invalidate another map's output,
	// and a transfer can end other fetches inside the call that starts it
	// (which pumps this shuffle again, nested): each next candidate is looked
	// up afresh, and the copy limit tested before each.
	for m := sh.candidate(0); m >= 0 && sh.inflight < sh.jt.cfg.ParallelCopies; m = sh.candidate(m + 1) {
		if sh.state[m] == fetchBackoff {
			if at := sh.failures[m].backoffAt; now < at {
				sh.armRetry(at - now)
				continue
			}
			sh.setState(m, fetchPending)
		}
		if job.mapReady.has(m) {
			sh.startFetch(m, job.maps[m])
		}
	}
	if sh.fetched == len(sh.state) {
		sh.complete()
	}
}

func (sh *shuffleState) startFetch(m int, mt *Task) {
	var failed []int
	if ff := sh.failures[m]; ff != nil {
		failed = ff.sources
	}
	block := dfs.BlockID{File: mt.output, Index: 0}
	flow, err := sh.jt.fs.ReadBlock(sh.in.node, block, sh.partitionBytes(), failed, m, sh.onFetch)
	if err != nil {
		// No live replica right now: immediate fetch failure.
		sh.fail(m)
		return
	}
	sh.setState(m, fetchInflight)
	sh.flows[m] = flow
	sh.inflight++
}

// fetchDone handles one fetch completion or failure.
func (sh *shuffleState) fetchDone(m, src int, err error) {
	if sh.finished {
		return
	}
	if sh.state[m] != fetchInflight {
		return // canceled and superseded
	}
	sh.flows[m] = netmodel.Flow{}
	sh.inflight--
	if err != nil {
		if src >= 0 {
			ff := sh.failuresOf(m)
			ff.sources = append(ff.sources, src)
		}
		sh.fail(m)
		sh.pump()
		return
	}
	// The data arrived. Even if the map was re-executed meanwhile, a
	// fully copied partition is valid (it is the same map output).
	sh.setState(m, fetchDone)
	sh.fetched++
	sh.pump()
}

// failuresOf returns the map's failure record, making it on first use.
func (sh *shuffleState) failuresOf(m int) *fetchFailures {
	ff := sh.failures[m]
	if ff == nil {
		if sh.failures == nil {
			sh.failures = make(map[int]*fetchFailures)
		}
		ff = new(fetchFailures)
		sh.failures[m] = ff
	}
	return ff
}

// fail records a fetch failure, reports it, and backs the map off.
func (sh *shuffleState) fail(m int) {
	ff := sh.failuresOf(m)
	ff.count++
	ff.backoffAt = sh.jt.sim.Now() + sh.jt.cfg.FetchRetryInterval
	sh.setState(m, fetchBackoff)
	// The report can invalidate the map, which drops ff.
	sh.jt.reportFetchFailure(sh.in, m, ff.count)
	sh.armRetry(sh.jt.cfg.FetchRetryInterval)
}

// mapInvalidated clears per-map retry state so the new attempt's output is
// fetched fresh (already-fetched partitions stay valid).
func (sh *shuffleState) mapInvalidated(m int) {
	if sh.finished || sh.state[m] == fetchDone {
		return
	}
	if sh.state[m] == fetchInflight {
		// Detach before canceling so the cancel callback (which fires
		// synchronously) sees a non-inflight state and returns without
		// recording a spurious failure.
		f := sh.flows[m]
		sh.flows[m] = netmodel.Flow{}
		sh.setState(m, fetchPending)
		sh.inflight--
		sh.jt.net.Cancel(f)
	}
	sh.setState(m, fetchPending)
	delete(sh.failures, m)
}

func (sh *shuffleState) armRetry(delay float64) {
	if sh.retryEv.Pending() {
		return
	}
	sh.retryEv = sh.jt.sim.After(delay, "shuffle.retry", sh.onRetry)
}

func (sh *shuffleState) retryFired() {
	sh.retryEv = sim.Event{}
	sh.pump()
}

// complete finishes the copy phase and hands the attempt to compute.
func (sh *shuffleState) complete() {
	if sh.finished {
		return
	}
	sh.finished = true
	sh.jt.shuffleCompleted(sh.in)
}

// cancel aborts all in-flight fetches (attempt killed).
func (sh *shuffleState) cancel() {
	sh.finished = true
	sh.jt.sim.Cancel(sh.retryEv)
	sh.retryEv = sim.Event{}
	for m, f := range sh.flows {
		if f != (netmodel.Flow{}) {
			sh.flows[m] = netmodel.Flow{}
			sh.jt.net.Cancel(f)
		}
	}
}
