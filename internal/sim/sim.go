// Package sim implements the discrete-event simulation core used by the
// MOON reproduction.
//
// A Simulation owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in schedule order, which together with
// the deterministic rng package makes every run bit-reproducible for a given
// seed. All model time is in simulated seconds (float64).
//
// The event queue is a binary min-heap over (at, seq). seq is unique, so the
// order is strict and any correct priority queue pops the same sequence: run
// output does not depend on the heap's internal layout. Around the heap:
//
//   - Lazy cancel. Cancel marks the event and the queue drops it when it
//     surfaces; once canceled events outnumber live ones (and exceed 64) one
//     O(n) compaction filters them out and re-heapifies, so cancel-heavy churn
//     (timers armed and usually disarmed: stall timeouts, fetch retries,
//     stopped tickers) stays amortized and the heap never fills with corpses.
//   - A free list. Event storage is pooled per Simulation and recycled after
//     an event fires, behind generation-checked handles, so the hot
//     schedule→fire→reschedule cycle of tickers, heartbeats and flow
//     completions runs without per-event allocation at steady state.
//   - Reservations. Reserve draws an (at, seq) position without queueing
//     anything; the netmodel keeps its pending completions in its own ordered
//     set and queues only the next one, at a position it drew earlier. A
//     block (DrawOrder) is n such numbers drawn in one call with no times
//     attached, for a model that knows at a program point how many plans it
//     would have made there and works the times out later: ReservedAt turns
//     one number of a block and a time into the position to queue. The
//     cluster is the second user: it draws the numbers of every churn
//     transition a node's trace holds when it is built, and queues each
//     transition from the callback of the one before.
//
// The heap was kept on end-to-end evidence (PR 16): sim-fleet/sim-sort/
// sim-wordcount op_ms did not resolve a difference from the bucket queue
// (Brown, CACM 1988) with a same-instant FIFO that it replaced, and peak RSS
// fell 6-8 %. scale-100k, the one shipped run that holds ~100k events, takes
// 6 % longer (68 → 72 s) and 22 % less memory; a queue that wins that back
// has to show it on that run, not on a backlog microbenchmark.
package sim

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// Time is a point in simulated time, in seconds since the simulation epoch.
type Time = float64

// Forever is a time later than any event the simulator will reach.
const Forever Time = math.MaxFloat64

// node is the pooled storage behind one scheduled callback. After the event
// fires or its cancellation is drained, gen is bumped and the node returns
// to the free list, invalidating every outstanding handle to it.
type node struct {
	at       Time
	fn       func()
	seq      uint64
	gen      uint64
	canceled bool
	queued   bool
	name     string
}

// less is the queue's total order: by time, then by schedule order. seq is
// unique, so the order is strict — any correct priority queue pops the same
// sequence, which is what keeps run output independent of queue internals.
func less(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Event is a generation-checked handle for a scheduled callback. The zero
// Event references nothing and behaves like an event that already ended:
// Cancel is a no-op, Pending reports false. Handles stay safe after the
// underlying storage is recycled — a stale handle can never cancel or
// observe an unrelated later event.
type Event struct {
	n   *node
	gen uint64
}

// live reports whether the handle still refers to its original event.
func (e Event) live() bool { return e.n != nil && e.n.gen == e.gen }

// Canceled reports whether the event is dead: canceled, or already fired
// and its storage retired. It returns false for a pending event and for an
// event currently executing its callback.
func (e Event) Canceled() bool { return !e.live() || e.n.canceled }

// Pending reports whether the event is still queued to fire.
func (e Event) Pending() bool { return e.live() && e.n.queued && !e.n.canceled }

// --- event heap -------------------------------------------------------------

// eventHeap is a binary min-heap of nodes over less. Canceled nodes stay in
// it until they surface at the root or compact filters them out.
type eventHeap []*node

func (h *eventHeap) push(n *node) {
	q := append(*h, n)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(n, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = n
	*h = q
}

// min returns the earliest event without removing it, or nil when empty.
func (h eventHeap) min() *node {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() *node {
	q := *h
	top := q[0]
	last := len(q) - 1
	n := q[last]
	q[last] = nil
	q = q[:last]
	*h = q
	if last > 0 {
		q.down(0, n)
	}
	return top
}

// down places n at or below the hole i, moving smaller children up.
func (h eventHeap) down(i int, n *node) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], n) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = n
}

// heapify restores heap order over an arbitrarily ordered slice.
func (h eventHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
}

// --- simulation -------------------------------------------------------------

// Simulation is a discrete-event scheduler. It is not safe for concurrent
// use; the whole model runs single-threaded over virtual time. Independent
// Simulations share nothing and may run on different goroutines.
type Simulation struct {
	now     Time
	queue   eventHeap // pending events, canceled corpses included
	free    []*node   // retired nodes awaiting reuse
	nextSeq uint64
	// fired counts events executed, for diagnostics and livelock guards.
	fired uint64
	// canceled counts events killed via Cancel before they could fire.
	canceled uint64
	// dead counts canceled nodes still occupying queue slots.
	dead    int
	stopped bool

	// barriers run when the simulation is about to leave the current
	// instant (see Barrier).
	barriers []func() bool

	// Instrument handles (nil without a collector; nil handles no-op, so
	// the hot path stays allocation-free when metrics are off).
	mFired       *metrics.Counter
	mCanceled    *metrics.Counter
	mCompactions *metrics.Counter
	mQueueDepth  *metrics.Series
}

// Instrument registers the event core's instruments on c: event throughput
// and cancellations as time-bucketed counters, queue compactions (the corpse
// drain), and a sampled queue-depth series. A nil collector (or never
// calling Instrument) leaves the simulation exactly as before — the pinned
// microbenchmarks stay at 0 allocs/op.
func (s *Simulation) Instrument(c *metrics.Collector) {
	if c == nil {
		return
	}
	s.mFired = c.TimedCounter(metrics.LayerSim, "events_fired", "")
	s.mCanceled = c.TimedCounter(metrics.LayerSim, "events_canceled", "")
	s.mCompactions = c.Counter(metrics.LayerSim, "queue_compactions", "")
	s.mQueueDepth = c.SampleSeries(metrics.LayerSim, "queue_depth", "")
}

// New returns an empty simulation at time 0.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// Canceled returns the number of events canceled before firing.
func (s *Simulation) Canceled() uint64 { return s.canceled }

// Pending returns the number of events currently queued to fire (canceled
// events awaiting lazy removal are not counted).
func (s *Simulation) Pending() int { return len(s.queue) - s.dead }

// --- node pool -------------------------------------------------------------

func (s *Simulation) alloc() *node {
	if k := len(s.free); k > 0 {
		n := s.free[k-1]
		s.free = s.free[:k-1]
		return n
	}
	return &node{}
}

// retire invalidates all handles to the node and returns it to the pool.
func (s *Simulation) retire(n *node) {
	n.gen++
	n.fn = nil
	n.queued = false
	s.free = append(s.free, n)
}

// --- scheduling ------------------------------------------------------------

// Schedule queues fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a model bug.
func (s *Simulation) Schedule(at Time, name string, fn func()) Event {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, at, s.now))
	}
	n := s.newNode(at, s.nextSeq, name, fn)
	s.nextSeq++
	s.queue.push(n)
	return Event{n: n, gen: n.gen}
}

// newNode takes a node from the pool and fills it in as a queued event.
func (s *Simulation) newNode(at Time, seq uint64, name string, fn func()) *node {
	n := s.alloc()
	n.at = at
	n.fn = fn
	n.name = name
	n.seq = seq
	n.canceled = false
	n.queued = true
	return n
}

// Reservation is a queue position — an (at, seq) pair — drawn from the
// schedule order without queueing anything. A model that re-plans the same
// future callback many times (the netmodel re-keys a flow's completion on
// every rate change) reserves a position per plan and queues only the one
// plan that is about to become the next event: every other event keeps the
// (at, seq) it would have had beside one real event per plan, so the fire
// order is unchanged while the queue never sees the plans that were
// superseded. The zero Reservation holds no position.
//
// A position can be queued once: stored keys stay strictly unique, which is
// what makes the fire order independent of heap internals. ScheduleReserved
// marks the reservation and panics on a second attempt.
type Reservation struct {
	at    Time
	seq   uint64
	state uint8 // resNone, resHeld or resQueued
}

const (
	resNone uint8 = iota
	resHeld
	resQueued
)

// At returns the reserved time.
func (r Reservation) At() Time { return r.at }

// Seq returns the reserved schedule-order number: with At, the whole key
// of the queue's total order (earlier time first, then lower number), for a
// caller that keeps the key outside the Reservation.
func (r Reservation) Seq() uint64 { return r.seq }

// Reserve draws the position Schedule(at, ...) would have given an event
// queued right now, consuming one schedule-order number, and queues nothing.
func (s *Simulation) Reserve(at Time) Reservation {
	return s.ReservedAt(at, s.DrawOrder(1))
}

// DrawOrder consumes n consecutive schedule-order numbers, as n calls of
// Reserve would, and returns the first. The caller pairs each number with a
// time later (ReservedAt), at most once: two positions with one number would
// break the strict order the queue relies on.
func (s *Simulation) DrawOrder(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: draw of %d order numbers", n))
	}
	base := s.nextSeq
	s.nextSeq += uint64(n)
	return base
}

// ReservedAt returns the held position (at, seq) for a seq that DrawOrder
// handed out: what Reserve(at) would have returned at the point of the draw.
func (s *Simulation) ReservedAt(at Time, seq uint64) Reservation {
	if seq >= s.nextSeq {
		panic(fmt.Sprintf("sim: position at order number %d, which was never drawn (next is %d)", seq, s.nextSeq))
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: reserve at %v before now %v", at, s.now))
	}
	return Reservation{at: at, seq: seq, state: resHeld}
}

// ScheduleReserved queues fn at the position r holds. The caller must queue
// the position before any event behind it fires — in practice from a Barrier,
// which runs before every callback, or from the callback that fires the
// preceding position of the same chain (a chain whose positions never go
// back in time, as a node's churn transitions). The reserved time may be the
// current instant: the event then fires ahead of younger events already
// queued for it, as its older seq demands.
func (s *Simulation) ScheduleReserved(r *Reservation, name string, fn func()) Event {
	switch {
	case r.state == resQueued:
		panic(fmt.Sprintf("sim: reserved position for %q queued twice", name))
	case r.state != resHeld:
		panic(fmt.Sprintf("sim: schedule %q at a position never reserved", name))
	case r.at < s.now:
		panic(fmt.Sprintf("sim: schedule %q at reserved time %v before now %v", name, r.at, s.now))
	}
	r.state = resQueued
	n := s.newNode(r.at, r.seq, name, fn)
	s.queue.push(n)
	return Event{n: n, gen: n.gen}
}

// After queues fn to run delay seconds from now. A non-positive delay runs
// at the current instant, after events already queued for this instant.
func (s *Simulation) After(delay Time, name string, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return s.Schedule(s.now+delay, name, fn)
}

// Cancel prevents a pending event from firing. Canceling a zero, stale,
// fired, or already-canceled event is a no-op. The queue slot is reclaimed
// lazily: at pop time, or in a bulk compaction once canceled events
// outnumber live ones.
func (s *Simulation) Cancel(e Event) {
	if !e.live() || e.n.canceled || !e.n.queued {
		return
	}
	e.n.canceled = true
	s.canceled++
	s.dead++
	s.mCanceled.IncAt(s.now)
	if s.dead > 64 && s.dead > len(s.queue)/2 {
		s.compact()
	}
}

// compact sweeps canceled nodes out of the queue, retiring their storage:
// filter in place, then restore heap order.
func (s *Simulation) compact() {
	q := s.queue
	live := q[:0]
	for _, n := range q {
		if n.canceled {
			s.retire(n)
		} else {
			live = append(live, n)
		}
	}
	clear(q[len(live):])
	live.heapify()
	s.queue = live
	s.dead = 0
	s.mCompactions.Inc()
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulation) Stop() { s.stopped = true }

// Barrier registers fn to run between event callbacks: before the next
// event fires, before the clock advances to a later event, and before Step
// or RunUntil return with the queue drained or the deadline reached. fn
// reports whether it did any work; barriers are re-run until every
// registered fn reports an idle pass, so events a barrier schedules for the
// current instant still fire within it. A barrier that always reports work
// livelocks the simulation — fn must be idempotent at a given instant.
//
// This is the hook for models that batch per-callback work (the netmodel
// rate settling): they accumulate changes while a callback executes and
// reconcile once when it returns, instead of once per change. Running
// between callbacks — not merely at instant exit — keeps deferred work
// ordered exactly as an eager schedule would have run it: no other model
// code executes between the end of the triggering callback and the flush.
func (s *Simulation) Barrier(fn func() bool) {
	s.barriers = append(s.barriers, fn)
}

func (s *Simulation) runBarriers() bool {
	did := false
	for _, fn := range s.barriers {
		if fn() {
			did = true
		}
	}
	return did
}

// peek drains canceled events from the head of the queue — recycling their
// storage — and returns the earliest live node, or nil if the queue is
// empty. Step and RunUntil share this single draining path.
func (s *Simulation) peek() *node {
	for {
		n := s.queue.min()
		if n == nil || !n.canceled {
			return n
		}
		s.queue.pop()
		s.dead--
		s.retire(n)
	}
}

// nextLive resolves the next event to fire, letting barriers flush deferred
// work before every callback and before the simulation leaves the current
// instant. The flush may cancel the apparent head or schedule ahead of it,
// so the queue is re-examined until a barrier pass is idle. It returns the
// earliest live node once no barrier has more work, or nil if the queue is
// empty.
func (s *Simulation) nextLive() *node {
	if len(s.barriers) == 0 {
		return s.peek()
	}
	for {
		did := s.runBarriers()
		n := s.peek()
		if !did {
			return n
		}
	}
}

// fire pops n (which must be the queue head, as returned by peek) and
// executes it.
func (s *Simulation) fire(n *node) {
	s.queue.pop()
	if n.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v (%s)", s.now, n.at, n.name))
	}
	s.now = n.at
	s.fired++
	n.queued = false
	s.mFired.IncAt(n.at)
	s.mQueueDepth.Observe(n.at, float64(s.Pending()))
	n.fn()
	// Retire only after the callback: a handle held by the callback itself
	// (or by code it calls synchronously) stays valid while it runs.
	s.retire(n)
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty (after giving barriers a final pass).
func (s *Simulation) Step() bool {
	n := s.nextLive()
	if n == nil {
		return false
	}
	s.fire(n)
	return true
}

// RunUntil executes events until the queue is empty, Stop is called, or the
// next event would fire after deadline. The clock is left at the time of the
// last executed event, or advanced to deadline if it is reached with events
// still pending; a deadline already behind the clock never moves it back.
func (s *Simulation) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		n := s.nextLive()
		if n == nil {
			return
		}
		if n.at > deadline {
			s.now = max(s.now, deadline)
			return
		}
		s.fire(n)
	}
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulation) Run() { s.RunUntil(Forever) }

// Ticker repeatedly invokes fn every interval seconds until canceled via the
// returned stop function. The first tick fires one interval from now. The
// tick chain is allocation-free at steady state: each fired tick's storage
// is recycled by the free list into the next tick's Schedule.
func (s *Simulation) Ticker(interval Time, name string, fn func()) (stop func()) {
	if interval <= 0 {
		panic("sim: Ticker interval must be positive")
	}
	var ev Event
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = s.After(interval, name, tick)
		}
	}
	ev = s.After(interval, name, tick)
	return func() {
		stopped = true
		s.Cancel(ev)
	}
}
