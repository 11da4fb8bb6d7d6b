// Package sim implements the discrete-event simulation core used by the
// MOON reproduction.
//
// A Simulation owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in schedule order, which together with
// the deterministic rng package makes every run bit-reproducible for a given
// seed. All model time is in simulated seconds (float64).
//
// The event queue is a bucketed calendar queue (Brown, CACM 1988): pending
// events hash into time buckets of adaptive width, so the steady-state
// schedule→fire cycle is O(1) instead of the O(log n) a binary heap pays —
// the difference between minutes and hours at 100k-node scale, where n is in
// the millions. Buckets are lazily sorted: inserts append to an unsorted
// tail and the tail is only folded in when the bucket is actually examined
// for a minimum, so burst scheduling (100k heartbeats for the same instant)
// stays O(1) per event. Events scheduled for exactly the current instant —
// same-instant cascades, the dominant pattern under barriers and completion
// chains — bypass the calendar through a FIFO now-queue (append order is
// (at, seq) order there by construction), so draining an instant never
// churns the bucket being popped. The ordering contract is unchanged from
// the heap: events pop in exact (at, seq) order.
//
// The queue is also allocation-lean: event storage is pooled in a
// per-Simulation free list and recycled after an event fires, so the hot
// schedule→fire→reschedule cycle of tickers, heartbeats and flow-completion
// events runs without per-event allocation at steady state. Cancel is lazy —
// it marks the event and the queue skips it at pop time instead of paying an
// eager removal; when canceled events pile up the queue compacts in one O(n)
// pass, so cancel-heavy churn (timers armed and usually disarmed: stall
// timeouts, fetch retries, stopped tickers) stays amortized O(1) and the
// buckets never fill with corpses. Flow completions are not part of that churn: the netmodel keeps
// its pending completions in its own ordered set and queues only the next
// one, at a position it drew earlier with Reserve.
package sim

import (
	"fmt"
	"math"
	"slices"

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

// --- calendar queue ---------------------------------------------------------

const (
	// minBuckets is the smallest bucket array; always a power of two so the
	// slot→bucket map is a mask.
	minBuckets = 16
	// tailMax bounds the unsorted tail scanned linearly when a bucket is
	// examined; longer tails are folded into the sorted run first.
	tailMax = 32
	// maxSlot caps slot arithmetic so events in the astronomically far
	// future (at/width beyond int64) stay representable; they are found by
	// the direct-search fallback rather than the year scan.
	maxSlot = int64(1) << 62
)

// calendar is the bucketed calendar queue. Each bucket holds the events of
// the time slots hashing onto it (slot = floor(at/width), bucket =
// slot&mask) as a descending-sorted run [0,sorted) — minimum at the end,
// popped in O(1) — followed by an unsorted append tail [sorted,len). curSlot
// is the cursor of the "year scan": popping walks one slot per bucket from
// there and falls back to a direct minimum search when a whole year comes up
// empty (sparse regions), jumping the cursor forward. hold caches the
// current minimum outside the buckets so peeking is O(1).
type calendar struct {
	buckets [][]*node
	sorted  []int // per-bucket watermark: len of the descending-sorted run
	// tmin is the index of each bucket's unsorted-tail minimum, valid
	// whenever the tail [sorted,len) is non-empty. Maintained on push and
	// removal, it makes examining a bucket O(1) regardless of tail
	// length, so tails only pay a sort when one of their own elements is
	// actually removed — a bucket accumulating a large future batch is
	// never re-sorted just because the year scan walked past it.
	tmin    []int
	mask    int64
	width   float64
	curSlot int64
	stored  int   // events in buckets (hold not counted)
	hold    *node // cached minimum, removed from its bucket

	scratch []*node // reusable collection buffer for resize
}

func (c *calendar) init() {
	c.buckets = make([][]*node, minBuckets)
	c.sorted = make([]int, minBuckets)
	c.tmin = make([]int, minBuckets)
	c.mask = minBuckets - 1
	c.width = 1
}

// len returns the number of stored events, canceled corpses included.
func (c *calendar) len() int {
	if c.hold != nil {
		return c.stored + 1
	}
	return c.stored
}

func (c *calendar) slotOf(at Time) int64 {
	s := at / c.width
	if s >= float64(maxSlot) {
		return maxSlot
	}
	return int64(s)
}

func (c *calendar) push(n *node) {
	if c.buckets == nil {
		c.init()
	}
	// Keep hold the true minimum: a smaller push displaces it.
	if c.hold != nil && less(n, c.hold) {
		n, c.hold = c.hold, n
	}
	slot := c.slotOf(n.at)
	if slot < c.curSlot {
		// Pushing behind the scan cursor (possible after a far-future jump
		// followed by a barrier scheduling for the current instant): rewind
		// so the year scan still starts at or before the minimum.
		c.curSlot = slot
	}
	bi := int(slot & c.mask)
	b := c.buckets[bi]
	if len(b) == c.sorted[bi] || less(n, b[c.tmin[bi]]) {
		c.tmin[bi] = len(b)
	}
	c.buckets[bi] = append(b, n)
	c.stored++
	if c.stored > 2*len(c.buckets) {
		c.resize(2 * len(c.buckets))
	}
}

// min returns the earliest event without removing it, or nil when empty.
func (c *calendar) min() *node {
	if c.hold == nil {
		c.hold = c.take()
	}
	return c.hold
}

// pop removes and returns the earliest event, or nil when empty.
func (c *calendar) pop() *node {
	n := c.min()
	if n == nil {
		return nil
	}
	c.hold = nil
	if len(c.buckets) > minBuckets && c.stored < len(c.buckets)/8 {
		c.resize(len(c.buckets) / 2)
	}
	return n
}

// take removes the earliest event from the buckets.
func (c *calendar) take() *node {
	if c.stored == 0 {
		return nil
	}
	// Year scan: one slot per bucket starting at the cursor. An event is
	// eligible only if it belongs to the scanned slot itself, not a later
	// wrap of the same bucket.
	nb := int64(len(c.buckets))
	for i := int64(0); i < nb; i++ {
		slot := c.curSlot + i
		bi := int(slot & c.mask)
		if len(c.buckets[bi]) == 0 {
			continue
		}
		idx, n := c.bucketMin(bi)
		if c.slotOf(n.at) == slot {
			c.removeAt(bi, c.prepareRemove(bi, idx))
			c.curSlot = slot
			c.stored--
			return n
		}
	}
	// Sparse region: nothing within a year of the cursor. Direct minimum
	// search over all buckets, then jump the cursor to it.
	bbi, bidx := -1, -1
	var best *node
	for i := range c.buckets {
		if len(c.buckets[i]) == 0 {
			continue
		}
		idx, n := c.bucketMin(i)
		if best == nil || less(n, best) {
			best, bbi, bidx = n, i, idx
		}
	}
	c.removeAt(bbi, c.prepareRemove(bbi, bidx))
	c.curSlot = c.slotOf(best.at)
	c.stored--
	return best
}

// bucketMin locates the minimum of a non-empty bucket in O(1): the end of
// the descending run versus the tracked tail minimum. It never mutates the
// bucket, so the year scan can examine arbitrarily many buckets (and the
// sparse-region fallback all of them) without triggering sorts.
func (c *calendar) bucketMin(bi int) (int, *node) {
	b := c.buckets[bi]
	s := c.sorted[bi]
	if s == len(b) {
		return s - 1, b[s-1]
	}
	t := c.tmin[bi]
	if s > 0 && less(b[s-1], b[t]) {
		return s - 1, b[s-1]
	}
	return t, b[t]
}

// prepareRemove readies the removal of bucket bi's minimum at idx: pulling
// an element out of a long unsorted tail would leave an O(tail) rescan for
// the new tail minimum, so such tails are folded into the run first (one
// sort per drained batch — bursts pay it when they actually start popping,
// not while they accumulate). Returns the minimum's possibly-moved index.
//
// "The minimum is the last element after the sort" relies on (at, seq) being
// strictly unique among stored nodes, corpses included: with two equal keys
// the sort may leave either one last, and the caller would remove a node
// other than the one bucketMin handed out. Schedule draws a fresh seq per
// node and a Reservation can be queued only once, so no key is ever stored
// twice.
func (c *calendar) prepareRemove(bi, idx int) int {
	if idx < c.sorted[bi] || len(c.buckets[bi])-c.sorted[bi] <= tailMax {
		return idx
	}
	c.sortBucket(bi)
	return len(c.buckets[bi]) - 1
}

// sortBucket folds the unsorted tail into the descending run: the tail is
// sorted on its own and merged with the run, so the run — which can hold a
// large drained-in-place batch — is only ever copied, never re-sorted.
func (c *calendar) sortBucket(bi int) {
	b := c.buckets[bi]
	s := c.sorted[bi]
	tail := b[s:]
	slices.SortFunc(tail, func(a, x *node) int {
		if less(a, x) {
			return 1
		}
		return -1
	})
	if s > 0 && len(tail) > 0 {
		// Merge the two descending runs through scratch, larger first.
		m := c.scratch[:0]
		i, j := 0, s
		for i < s && j < len(b) {
			if less(b[i], b[j]) {
				m = append(m, b[j])
				j++
			} else {
				m = append(m, b[i])
				i++
			}
		}
		m = append(m, b[i:s]...)
		m = append(m, b[j:]...)
		copy(b, m)
		for k := range m {
			m[k] = nil
		}
		c.scratch = m[:0]
	}
	c.sorted[bi] = len(b)
}

// removeAt removes the bucket minimum (as located by bucketMin, after
// prepareRemove). The element is either the end of the sorted run or the
// tail minimum of a short tail; the last element backfills its position,
// landing in (or becoming) the tail.
func (c *calendar) removeAt(bi, idx int) {
	b := c.buckets[bi]
	fromTail := idx >= c.sorted[bi]
	if idx < c.sorted[bi] {
		c.sorted[bi] = idx
	}
	last := len(b) - 1
	b[idx] = b[last]
	b[last] = nil
	c.buckets[bi] = b[:last]
	if c.sorted[bi] > last {
		c.sorted[bi] = last
	}
	s := c.sorted[bi]
	if s >= last {
		return // tail empty, tmin unused
	}
	if fromTail {
		// The tail minimum left; rescan the (tailMax-bounded) remainder.
		t := s
		for j := s + 1; j < last; j++ {
			if less(b[j], b[t]) {
				t = j
			}
		}
		c.tmin[bi] = t
	} else if c.tmin[bi] == last {
		// The backfilled element was the tail minimum; it now sits at idx.
		c.tmin[bi] = idx
	}
}

// resize rebuilds the calendar with nb buckets and a width re-derived from
// the stored population: ~3 average gaps per bucket across the whole span
// (Brown's rule of thumb applied globally). A global estimate is deliberate:
// a front-density EWMA collapses under bursts of near-coincident events
// (epsilon-spaced completions), shrinking buckets until the year scan walks
// thousands of empty slots per pop. Span-based width keeps nb*width at or
// above the occupied horizon — dense clusters simply land in shared buckets,
// which bucketMin/sortBucket handle in O(1)/amortized-O(log) — so the scan
// stays short. O(n log n), but only triggered by 2x occupancy crossings, so
// amortized O(1) per event.
func (c *calendar) resize(nb int) {
	if nb < minBuckets {
		nb = minBuckets
	}
	all := c.scratch[:0]
	for i := range c.buckets {
		all = append(all, c.buckets[i]...)
	}
	slices.SortFunc(all, func(a, x *node) int {
		if less(a, x) {
			return -1
		}
		return 1
	})
	w := c.width
	if len(all) > 1 {
		if span := all[len(all)-1].at - all[0].at; span > 0 {
			w = 3 * span / float64(len(all))
		}
	}
	if !(w > 1e-12) || math.IsInf(w, 1) {
		w = 1
	}
	c.buckets = make([][]*node, nb)
	c.sorted = make([]int, nb)
	c.tmin = make([]int, nb)
	c.mask = int64(nb - 1)
	c.width = w
	// Distribute in descending order so every bucket lands fully sorted.
	for i := len(all) - 1; i >= 0; i-- {
		bi := int(c.slotOf(all[i].at) & c.mask)
		c.buckets[bi] = append(c.buckets[bi], all[i])
	}
	for i := range c.buckets {
		c.sorted[i] = len(c.buckets[i])
	}
	if len(all) > 0 {
		c.curSlot = c.slotOf(all[0].at)
	} else {
		c.curSlot = 0
	}
	for i := range all {
		all[i] = nil
	}
	c.scratch = all[:0]
}

// --- simulation -------------------------------------------------------------

// Simulation is a discrete-event scheduler. It is not safe for concurrent
// use; the whole model runs single-threaded over virtual time. Independent
// Simulations share nothing and may run on different goroutines.
type Simulation struct {
	now     Time
	cal     calendar
	free    []*node // retired nodes awaiting reuse
	nextSeq uint64
	// nowq holds events scheduled for exactly the current instant, FIFO.
	// Same-instant cascades — a callback scheduling follow-up work at
	// now, barriers flushing deferred settles, completion chains — are
	// the simulator's hottest scheduling pattern, and their order needs
	// no priority queue at all: every such event ties on at and carries
	// a freshly drawn seq, greater than that of any event already in the
	// now-queue, so append order IS (at, seq) order. (A reserved position
	// queued late carries an old seq and therefore never enters nowq —
	// see ScheduleReserved.) Routing them here keeps the calendar's buckets
	// free of the push-while-draining churn that forced repeated
	// re-sorts of long sorted runs. nowq drains fully before the clock
	// can advance, so it never holds events from a past instant.
	nowq     []*node
	nowqHead int
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

	// shards is the intra-run worker pool for parallel phases (see
	// Shards); nil until first use or SetShardWorkers.
	shards *ShardPool

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

// queueLen counts stored events across the calendar and the now-queue,
// canceled corpses included.
func (s *Simulation) queueLen() int { return s.cal.len() + len(s.nowq) - s.nowqHead }

// Pending returns the number of events currently queued to fire (canceled
// events awaiting lazy removal are not counted).
func (s *Simulation) Pending() int { return s.queueLen() - s.dead }

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
	if at == s.now {
		s.nowq = append(s.nowq, n)
	} else {
		s.cal.push(n)
	}
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
// A position can be queued once. The queue relies on stored keys being
// strictly unique (see calendar.prepareRemove), so ScheduleReserved marks
// the reservation and panics on a second attempt.
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
// Before compares, for a caller that keeps the key outside the Reservation.
func (r Reservation) Seq() uint64 { return r.seq }

// Before reports whether r's position precedes o's in the queue's total
// order.
func (r Reservation) Before(o Reservation) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	return r.seq < o.seq
}

// Reserve draws the position Schedule(at, ...) would have given an event
// queued right now, consuming one schedule-order number, and queues nothing.
func (s *Simulation) Reserve(at Time) Reservation {
	if at < s.now {
		panic(fmt.Sprintf("sim: reserve at %v before now %v", at, s.now))
	}
	r := Reservation{at: at, seq: s.nextSeq, state: resHeld}
	s.nextSeq++
	return r
}

// ScheduleReserved queues fn at the position r holds. The caller must queue
// the position before any event behind it fires — in practice from a Barrier,
// which runs before every callback. The reserved time may be the current
// instant; the event goes through the calendar even then, because its seq is
// older than those already in the now-queue and peek orders the two by
// (at, seq).
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
	s.cal.push(n)
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
	if s.dead > 64 && s.dead > s.queueLen()/2 {
		s.compact()
	}
}

// compact sweeps canceled nodes out of the calendar, retiring their storage.
// In-place filtering preserves each bucket's sorted run, so no re-sort is
// needed.
func (s *Simulation) compact() {
	c := &s.cal
	if c.hold != nil && c.hold.canceled {
		s.retire(c.hold)
		c.hold = nil
	}
	for i := range c.buckets {
		b := c.buckets[i]
		live := b[:0]
		deadSorted := 0
		for j, n := range b {
			if n.canceled {
				if j < c.sorted[i] {
					deadSorted++
				}
				s.retire(n)
				c.stored--
			} else {
				live = append(live, n)
			}
		}
		for j := len(live); j < len(b); j++ {
			b[j] = nil
		}
		c.buckets[i] = live
		c.sorted[i] -= deadSorted
		// Filtering shifted tail indices; re-derive the tail minimum.
		if s := c.sorted[i]; s < len(live) {
			t := s
			for j := s + 1; j < len(live); j++ {
				if less(live[j], live[t]) {
					t = j
				}
			}
			c.tmin[i] = t
		}
	}
	// The now-queue can hold corpses too; filtering in place preserves
	// its FIFO order.
	liveNow := s.nowq[:0]
	for j := s.nowqHead; j < len(s.nowq); j++ {
		if n := s.nowq[j]; n.canceled {
			s.retire(n)
		} else {
			liveNow = append(liveNow, n)
		}
	}
	for j := len(liveNow); j < len(s.nowq); j++ {
		s.nowq[j] = nil
	}
	s.nowq = liveNow
	s.nowqHead = 0
	s.dead = 0
	s.mCompactions.Inc()
}

// Reschedule moves a pending event to a new time, preserving its callback.
// If the event was canceled but not yet reclaimed, a fresh event with the
// same callback is scheduled. A zero or stale handle (the event already
// fired) returns the zero Event: the callback is gone.
func (s *Simulation) Reschedule(e Event, at Time) Event {
	if !e.live() || e.n.fn == nil {
		return Event{}
	}
	fn, name := e.n.fn, e.n.name
	s.Cancel(e)
	return s.Schedule(at, name, fn)
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

// nowFront drains canceled events from the head of the now-queue —
// recycling their storage — and returns its earliest live node, or nil.
func (s *Simulation) nowFront() *node {
	for s.nowqHead < len(s.nowq) {
		n := s.nowq[s.nowqHead]
		if !n.canceled {
			return n
		}
		s.nowq[s.nowqHead] = nil
		s.nowqHead++
		s.dead--
		s.retire(n)
	}
	s.nowq = s.nowq[:0]
	s.nowqHead = 0
	return nil
}

// peek drains canceled events from the head of the queue — recycling their
// storage — and returns the earliest live node, or nil if the queue is
// empty. Step and RunUntil share this single draining path. Current-instant
// events in the now-queue win ties against the calendar only by seq: an
// equal-time calendar event usually predates the clock's arrival at this
// instant and carries the smaller seq, but a reserved position queued at
// the current instant may sit anywhere among them.
func (s *Simulation) peek() *node {
	var cn *node
	for {
		cn = s.cal.min()
		if cn == nil || !cn.canceled {
			break
		}
		s.cal.pop()
		s.dead--
		s.retire(cn)
	}
	nn := s.nowFront()
	if nn == nil {
		return cn
	}
	if cn == nil || less(nn, cn) {
		return nn
	}
	return cn
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
	if s.nowqHead < len(s.nowq) && s.nowq[s.nowqHead] == n {
		s.nowq[s.nowqHead] = nil
		s.nowqHead++
		if s.nowqHead == len(s.nowq) {
			s.nowq = s.nowq[:0]
			s.nowqHead = 0
		}
	} else {
		s.cal.pop()
	}
	if n.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v (%s)", s.now, n.at, n.name))
	}
	s.now = n.at
	s.fired++
	n.queued = false
	s.mFired.IncAt(n.at)
	s.mQueueDepth.Observe(n.at, float64(s.queueLen()-s.dead))
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
// last executed event (or advanced to deadline if it is reached with events
// still pending).
func (s *Simulation) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		n := s.nextLive()
		if n == nil {
			return
		}
		if n.at > deadline {
			s.now = deadline
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
