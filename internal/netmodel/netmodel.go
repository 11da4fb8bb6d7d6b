// Package netmodel simulates the cluster interconnect and node disks as
// shared-capacity resources.
//
// Every data movement (block replication, shuffle fetch, DFS read/write) is
// a Flow between two nodes. A remote flow's rate is the min of its fair
// shares at both NICs (rate = min(C/src_flows, C/dst_flows)); flows between
// a node and itself model local disk copies and share the node's disk
// bandwidth. Rates are recomputed whenever a flow starts or finishes at an
// endpoint or an endpoint changes availability, so transfer times respond
// to contention — this is what saturates MOON's small dedicated set at low
// volatile-to-dedicated ratios (the paper's one regression case) and what
// the Algorithm 1 throttler measures.
//
// Rate settling is batched per callback: an endpoint change marks the node
// dirty, and one settle pass — run by a sim.Barrier before the next callback
// fires — recomputes rates once per affected flow instead of once per
// change. Under fan-in (k flows starting at one node in one instant) that is
// O(k) settles instead of the O(k²) an eager per-change recompute pays. Zero
// simulated time passes between the change and the flush, so no intermediate
// rate is ever observable; dirty nodes are processed in first-marked order
// and flows in list order, which fixes the floating-point accumulation order
// of settled bytes and the order in which flows draw their queue positions.
// Reads (Consumed, TotalBytes, ActiveFlows) and flow completion flush first,
// so observers never see a half-settled instant.
//
// A flow's completion is not a sim event until it has to be. A rate change
// gives the flow a new completion time, and most of those are superseded by
// the next rate change long before the clock gets there (a shuffle-heavy
// sort refreshes a flow some sixty times for every completion that fires).
// So a refresh only reserves the (at, seq) position its completion event
// would take (sim.Reserve) and notes the flow as touched; the same barrier
// then moves each touched flow once inside the due-set, an indexed min-heap
// over those positions, to the position its last refresh reserved — equal
// shuffle fetches finish k at an instant and each finish resettles both its
// nodes, so a flow is refreshed several times an instant and re-keyed once —
// and makes sure the head of the set, the one completion that can be the
// simulation's next event, is queued at its reserved position. Positions
// are drawn at the program points where events used to be scheduled and the
// queued head sits where its own event would have, so the simulator fires
// exactly the events it fired with one event per flow, in the same order,
// and never stores the rest. FuzzNetworkVsEager holds Network to that
// against a test-only model that does keep one event per flow and settles on
// every change.
//
// The structures those passes walk hold no pointers. A flow in flight has a
// slot in the network's flow table; node flow lists, settle snapshots, the
// touched list and the due-set name flows by slot, so snapshotting a list is
// a memmove and a heap swap takes no write barrier. A finished flow's slot is
// not reused while any settle pass is on the stack: a pass's snapshot may
// name it, and must find the finished flow there, not one a done callback
// started.
//
// The table owns the flow objects too. A slot keeps its object for the life
// of the network and the next transfer that takes the slot resets it, so a
// transfer at steady state allocates nothing — the rule above is exactly the
// lifetime rule reuse needs. What callers hold is a Flow: a slot and the
// generation the object had when the transfer started, checked on every use
// the way sim.Event checks its node's. Finishing a flow bumps the object's
// generation, so a handle kept past its flow's end names nothing, whoever
// holds the slot by then.
//
// A flow with an unavailable endpoint makes no progress; if the outage lasts
// longer than the configured stall timeout the flow fails with ErrStalled,
// modeling the client-side timeouts the paper describes for I/O against
// "dead" DataNodes.
package netmodel

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Errors reported to Flow completion callbacks.
var (
	// ErrStalled means an endpoint stayed unavailable past the stall
	// timeout.
	ErrStalled = errors.New("netmodel: transfer stalled by node outage")
	// ErrCanceled means the initiator canceled the flow.
	ErrCanceled = errors.New("netmodel: transfer canceled")
)

// Config sets the physical resource capacities.
type Config struct {
	// NodeBandwidth is each node's NIC capacity in bytes/second
	// (shared by all remote flows touching the node, both directions —
	// a deliberate simplification of 1 GbE full duplex).
	NodeBandwidth float64
	// DiskBandwidth is each node's local disk copy bandwidth in
	// bytes/second, shared by local flows.
	DiskBandwidth float64
	// StallTimeout is how long a flow survives an endpoint outage before
	// failing with ErrStalled.
	StallTimeout float64
}

// DefaultConfig models the paper's testbed fabric: 1 Gb/s Ethernet
// (~117 MB/s payload), commodity disks, and Hadoop-era client timeouts.
func DefaultConfig() Config {
	return Config{
		NodeBandwidth: 117e6,
		DiskBandwidth: 60e6,
		StallTimeout:  30,
	}
}

// Flow is a generation-checked handle for a transfer in flight. The zero
// Flow names nothing and behaves like a transfer that already ended: Cancel
// is a no-op. So does a handle whose transfer has finished, failed or been
// canceled — its slot may carry another transfer by then, which a stale
// handle can never cancel.
type Flow struct {
	slot int32
	gen  uint32
}

// flow is the storage behind one in-flight transfer. It belongs to its slot
// in the network's flow table: finish bumps gen, which invalidates every
// handle to it, and the next Transfer to take the slot resets everything
// but slot, gen and complete.
type flow struct {
	Src, Dst *cluster.Node
	// slot is the flow's index in the network's flow table; src and dst are
	// the endpoints' node indices, kept here so the settle loop does not
	// load them through Src and Dst.
	slot, src, dst int32
	gen            uint32

	remaining  float64
	rate       float64
	lastUpdate float64

	done     func(error)
	stall    sim.Event
	finished bool

	// due is the queue position reserved for the flow's completion at its
	// last rate change; touched says the due-set has not been told yet (the
	// flow is on the network's touched list, and its entry in the set, if
	// any, still carries an older position). completion is pending only once
	// the barrier has found the flow at the head of the set and queued
	// complete — made on first use, one closure a slot: it captures the
	// object, so it outlives the flows that pass through — at that position.
	due        sim.Reservation
	touched    bool
	completion sim.Event
	complete   func()
}

// nodeState tracks the flows touching one node, by slot.
type nodeState struct {
	remote []int32
	local  []int32
	// consumed accumulates bytes moved through this node (both
	// directions), for bandwidth measurement.
	consumed float64
}

// Network simulates all transfers for a cluster.
type Network struct {
	sim   *sim.Simulation
	cfg   Config
	nodes []nodeState

	// flows is the slot table: flows[s] is the object of slot s, in flight
	// or finished and waiting for the slot's next transfer. A slot goes to
	// retired when its flow finishes and from there to free only when no
	// settle pass is on the stack (reclaim): a pass's snapshot names flows
	// by slot and skips the finished ones, so a slot handed out again
	// mid-pass would make it refresh a flow that is not on its node.
	flows   []*flow
	free    []int32
	retired []int32

	// scratch is a stack of reusable slot buffers for settle iteration
	// (refresh can re-enter the settle pass via finish, so one buffer is
	// not enough; a stack keeps nesting safe without per-event allocation).
	scratch [][]int32

	// dirty queues nodes whose flow sets or availability changed this
	// instant, in first-marked order; inDirty dedups membership. flush
	// drains it once per instant (or on read / at flow completion).
	dirty    []int
	inDirty  []bool
	flushing bool

	// due orders every flow that has a rate by the (at, seq) position its
	// completion reserved. Only a flow that reaches the head becomes a sim
	// event: the barrier queues it at its reserved position before the next
	// callback runs, so the simulator fires the same completions at the
	// same positions as if every flow had an event of its own, and hardly
	// ever stores a position that a later rate change supersedes.
	//
	// A refresh does not move the flow inside the set; it puts it on touched
	// (once, flow.touched) and the barrier sifts each touched flow to the
	// position its last refresh reserved. reservedNow says some refresh since
	// the last barrier reserved the current instant — the one fact about the
	// up-to-date order that dueNow needs before the barrier has restored it.
	due         dueSet
	touched     []int32
	reservedNow bool

	// settleDepth counts settleNode frames on the stack. An endpoint
	// change made while a pass is in progress (a done callback starting a
	// replacement transfer mid-cascade) cannot defer: the enclosing pass
	// will refresh the same flows again after it returns, so a deferred
	// refresh would reserve its position after positions the eager
	// per-change recompute reserved before it — permuting seq order among
	// flows that complete at the same future instant.
	settleDepth int

	// TotalBytes counts every byte delivered by completed or partial
	// flows, fleet-wide.
	totalBytes float64

	// Instrument handles (nil without a collector).
	mFlows     *metrics.Counter
	mBytes     *metrics.Counter
	mStalls    *metrics.Counter
	mRefreshes *metrics.Counter
	mRekeys    *metrics.Counter
	mScheduled *metrics.Counter
}

// Instrument registers fabric observability on c: flows started, bytes
// delivered (settled, so partial progress of failed flows counts, matching
// TotalBytes) and stall failures, all time-bucketed; and how much work the
// due-set absorbed — rate_refreshes counts the rate changes that reserved a
// completion position, due_rekeys the heap sifts the barrier made for them,
// completions_scheduled the positions that became sim events.
func (n *Network) Instrument(c *metrics.Collector) {
	if c == nil {
		return
	}
	n.mFlows = c.TimedCounter(metrics.LayerNet, "flows_started", "")
	n.mBytes = c.TimedCounter(metrics.LayerNet, "bytes_delivered", "")
	n.mStalls = c.TimedCounter(metrics.LayerNet, "flow_stalls", "")
	n.mRefreshes = c.Counter(metrics.LayerNet, "rate_refreshes", "")
	n.mRekeys = c.Counter(metrics.LayerNet, "due_rekeys", "")
	n.mScheduled = c.Counter(metrics.LayerNet, "completions_scheduled", "")
}

// New attaches a network to the cluster and subscribes to availability
// transitions of every node. The network registers a simulation barrier so
// the deferred settle pass runs, and the next completion is queued, before
// any other callback does.
func New(s *sim.Simulation, c *cluster.Cluster, cfg Config) *Network {
	n := &Network{
		sim:     s,
		cfg:     cfg,
		nodes:   make([]nodeState, len(c.Nodes)),
		inDirty: make([]bool, len(c.Nodes)),
	}
	for _, node := range c.Nodes {
		node.Watch(func(nd *cluster.Node, _ bool) { n.nodeChanged(nd) })
	}
	s.Barrier(n.barrier)
	return n
}

// Consumed returns total bytes moved through the node so far (settled).
func (n *Network) Consumed(nodeID int) float64 {
	if nodeID < 0 || nodeID >= len(n.nodes) {
		return 0
	}
	n.syncRead()
	return n.nodes[nodeID].consumed
}

// TotalBytes returns the fleet-wide settled byte count.
func (n *Network) TotalBytes() float64 {
	n.syncRead()
	return n.totalBytes
}

// ActiveFlows returns the number of remote flows currently touching the
// node.
func (n *Network) ActiveFlows(nodeID int) int {
	if nodeID < 0 || nodeID >= len(n.nodes) {
		return 0
	}
	n.syncRead()
	return len(n.nodes[nodeID].remote)
}

// syncRead settles everything an observer must not see pending. Outside a
// settle pass that is a full flush. Inside one (a completion callback
// reading the network mid-pass) the remaining marks are drained in the same
// first-marked order the pass would have used, so the read sees exactly the
// state the eager per-change schedule would have shown at this point —
// including flows that reached zero earlier in the instant, which must
// already be finished and gone from the load counts.
func (n *Network) syncRead() {
	if n.flushing {
		n.drainDirty()
		return
	}
	n.flush()
}

// drainDirty processes pending marks in first-marked order. Entries cleared
// by a nested drain are skipped; marks appended while the drain runs are
// picked up by the same loop. Callers must hold flushing == true.
func (n *Network) drainDirty() {
	for i := 0; i < len(n.dirty); i++ {
		id := n.dirty[i]
		if !n.inDirty[id] {
			continue
		}
		n.inDirty[id] = false
		n.settleNode(id)
	}
}

// Transfer starts moving bytes from src to dst and invokes done exactly once
// with nil on completion or an error on failure. src == dst models a local
// disk copy. Zero-byte transfers complete at the current instant and are
// never in flight: they return the zero Flow.
func (n *Network) Transfer(src, dst *cluster.Node, bytes float64, done func(error)) Flow {
	if src == nil || dst == nil {
		panic("netmodel: Transfer with nil endpoint")
	}
	if bytes < 0 {
		panic(fmt.Sprintf("netmodel: negative transfer size %v", bytes))
	}
	now := n.sim.Now()
	n.mFlows.IncAt(now)
	if bytes == 0 {
		n.sim.After(0, "net.done0", func() { done(nil) })
		return Flow{}
	}
	if len(n.free) == 0 && n.settleDepth == 0 {
		n.reclaim()
	}
	var f *flow
	if k := len(n.free); k > 0 {
		f = n.flows[n.free[k-1]]
		n.free = n.free[:k-1]
	} else {
		f = &flow{slot: int32(len(n.flows)), gen: 1}
		n.flows = append(n.flows, f)
		n.due.idx = append(n.due.idx, -1)
	}
	*f = flow{Src: src, Dst: dst, slot: f.slot, src: int32(src.ID), dst: int32(dst.ID), gen: f.gen,
		remaining: bytes, done: done, lastUpdate: now, complete: f.complete}
	if f.local() {
		n.nodes[f.src].local = append(n.nodes[f.src].local, f.slot)
		n.markDirty(src.ID)
	} else {
		n.nodes[f.src].remote = append(n.nodes[f.src].remote, f.slot)
		n.nodes[f.dst].remote = append(n.nodes[f.dst].remote, f.slot)
		n.markDirty(src.ID)
		n.markDirty(dst.ID)
	}
	n.checkStall(f)
	return Flow{slot: f.slot, gen: f.gen}
}

// Cancel aborts the flow; done receives ErrCanceled at the current instant.
// Canceling the zero Flow or a flow that has ended is a no-op.
func (n *Network) Cancel(h Flow) {
	if f := n.lookup(h); f != nil {
		n.finish(f, ErrCanceled)
	}
}

// lookup returns the flow the handle names, or nil once it has ended. No
// object ever has generation zero, so the zero handle matches none.
func (n *Network) lookup(h Flow) *flow {
	if h.gen == 0 {
		return nil
	}
	if f := n.flows[h.slot]; f.gen == h.gen {
		return f
	}
	return nil
}

func (f *flow) local() bool { return f.src == f.dst }

// settle charges progress made at the current rate since the last update. A
// second settle at one instant has nothing to charge — delta is rate × 0,
// and x − 0 and x + 0 are exact — so it only repeats the zero observation
// the byte counter's time series would have got.
func (n *Network) settle(f *flow, now float64) {
	if f.lastUpdate == now {
		if f.rate > 0 {
			n.mBytes.AddAt(now, 0)
		}
		return
	}
	if f.rate > 0 {
		delta := f.rate * (now - f.lastUpdate)
		if delta > f.remaining {
			delta = f.remaining
		}
		f.remaining -= delta
		n.totalBytes += delta
		n.mBytes.AddAt(now, delta)
		n.nodes[f.src].consumed += delta
		if !f.local() {
			n.nodes[f.dst].consumed += delta
		}
	}
	f.lastUpdate = now
}

// currentRate computes the flow's fair-share rate from endpoint load and
// availability.
func (n *Network) currentRate(f *flow) float64 {
	if !f.Src.Available() || !f.Dst.Available() {
		return 0
	}
	if f.local() {
		cnt := len(n.nodes[f.src].local)
		if cnt == 0 {
			return 0
		}
		return n.cfg.DiskBandwidth / float64(cnt)
	}
	sc := len(n.nodes[f.src].remote)
	dc := len(n.nodes[f.dst].remote)
	if sc == 0 || dc == 0 {
		return 0
	}
	srcShare := n.cfg.NodeBandwidth / float64(sc)
	dstShare := n.cfg.NodeBandwidth / float64(dc)
	if srcShare < dstShare {
		return srcShare
	}
	return dstShare
}

// takeScratch pops a reusable slot buffer (snapshotting a node's flow lists
// before iteration, since refresh/finish mutate them); settleNode pushes it
// back.
func (n *Network) takeScratch() []int32 {
	if k := len(n.scratch); k > 0 {
		b := n.scratch[k-1]
		n.scratch = n.scratch[:k-1]
		return b[:0]
	}
	return nil
}

// markDirty queues the node for the next settle pass. Marks keep their
// first-come order — the same order the eager per-change recompute would
// have first touched each node — so the flush replays the identical
// floating-point accumulation sequence.
//
// One case must not defer: a node carrying a flow whose completion is due at
// this very instant. The eager recompute would have found that flow at zero
// remaining inside this call and cascade-finished it before the caller's
// next statement — taking it out of the schedule, delivering its done
// callback, and freeing whatever the caller tracks through plain state (a
// shuffle's in-flight slot, say) with no intervening read to trigger a
// flush. For those nodes the pending marks drain first (keeping earlier
// deferred work in accumulation order) and the node settles eagerly, exactly
// as the per-change schedule would have.
func (n *Network) markDirty(nodeID int) {
	if n.settleDepth > 0 {
		// Mid-pass change: the eager schedule ran its recompute right
		// here, between the enclosing pass's refreshes. Settle inline at
		// the same point. A mark the node may still hold stays queued —
		// the eager schedule also refreshed these flows again at that
		// later touch.
		n.settleNode(nodeID)
		return
	}
	if n.dueNow(nodeID) {
		// See the comment above the function: a flow on this node
		// completes at this very instant and must cascade-finish inside
		// this call. Earlier deferred work drains first to keep its place
		// in the accumulation order.
		n.flush()
		n.settleNode(nodeID)
		return
	}
	if n.inDirty[nodeID] {
		return
	}
	n.inDirty[nodeID] = true
	n.dirty = append(n.dirty, nodeID)
}

// dueNow reports whether a flow touching the node completes at the current
// instant. No stored key is ever below now, so a flow due now either has not
// been refreshed since the last barrier — its stored key is now, and then so
// is the stored head's — or was refreshed to now and raised reservedNow.
// That O(1) test is almost always false, and only then are the node's own
// flows looked at, through flow.due, which is always current.
func (n *Network) dueNow(nodeID int) bool {
	now := n.sim.Now()
	if !n.reservedNow && (len(n.due.es) == 0 || n.due.es[0].at != now) {
		return false
	}
	st := &n.nodes[nodeID]
	for _, slots := range [2][]int32{st.remote, st.local} {
		for _, slot := range slots {
			if f := n.flows[slot]; f.rate > 0 && f.due.At() == now {
				return true
			}
		}
	}
	return false
}

// barrier is the network's sim.Barrier. It flushes the deferred settle pass;
// brings the due-set up to date, one sift for each flow refreshed since the
// last barrier, however often, to the position its last refresh reserved
// (flows that finished or lost their rate left the set when they did);
// releases the slots of finished flows, which no snapshot can name any more;
// and then makes sure the head of the set — the one completion that can be
// the simulation's next event — is queued at the position it reserved. A
// head displaced by an earlier arrival keeps its event: it is the very event
// the flow would have had on its own, and it stays until the flow's next
// rate change cancels it or it fires. No position is therefore ever queued
// twice.
func (n *Network) barrier() bool {
	did := n.flush()
	for _, slot := range n.touched {
		f := n.flows[slot]
		if !f.touched {
			continue // finished, and its slot taken again since: see reclaim
		}
		f.touched = false
		if !f.finished && f.rate > 0 {
			n.due.fix(slot, f.due)
			n.mRekeys.Inc()
		}
	}
	n.touched = n.touched[:0]
	n.reservedNow = false
	n.reclaim()

	slot := n.due.head()
	if slot < 0 {
		return did
	}
	f := n.flows[slot]
	if f.completion.Pending() {
		return did
	}
	if f.complete == nil {
		f.complete = func() { n.completionFired(f) }
	}
	f.completion = n.sim.ScheduleReserved(&f.due, "net.complete", f.complete)
	n.mScheduled.Inc()
	return true
}

// reclaim frees the slots of finished flows. The caller guarantees that no
// settle pass is on the stack: the barrier, and a Transfer that runs outside
// one and finds no slot free (so a caller that starts and cancels flows
// without ever letting the simulation run does not grow the table). The
// touched list may still name a reclaimed slot; the barrier skips it by the
// flag, which the slot's next holder starts with cleared.
func (n *Network) reclaim() {
	n.free = append(n.free, n.retired...)
	n.retired = n.retired[:0]
}

// completionFired is the completion event's callback. The event that fires
// is the earliest in the queue and the head of the due-set is always queued,
// so the flow must be that head; anything else means the two orders diverged.
func (n *Network) completionFired(f *flow) {
	switch n.due.head() {
	case f.slot:
		n.finish(f, nil)
	case -1:
		panic("netmodel: completion event fired with no flow due")
	default:
		panic("netmodel: completion event fired for a flow that is not due")
	}
}

// flush drains the dirty queue: one settle pass per marked node at the
// current instant. Nodes marked while the pass runs (flow completions
// cascading into endpoint changes) are appended and drained by the same
// loop. flush reports whether it did any work, which is the contract the
// sim.Barrier uses to re-poll until the instant is quiescent. Re-entrant
// calls (a done callback reading Consumed mid-pass) are no-ops.
func (n *Network) flush() bool {
	if n.flushing || len(n.dirty) == 0 {
		return false
	}
	n.flushing = true
	n.drainDirty()
	n.dirty = n.dirty[:0]
	n.flushing = false
	return true
}

// settleNode resettles and re-plans every flow touching the node, over a
// snapshot of its lists: refresh can finish a flow, and that removes it here
// and lets its done callback start others.
func (n *Network) settleNode(nodeID int) {
	st := &n.nodes[nodeID]
	buf := n.takeScratch()
	buf = append(buf, st.remote...)
	buf = append(buf, st.local...)
	n.settleDepth++
	now := n.sim.Now() // callbacks run inside the pass, the clock does not
	for _, slot := range buf {
		n.refresh(n.flows[slot], now)
	}
	n.settleDepth--
	n.scratch = append(n.scratch, buf)
}

// refresh settles the flow at its old rate, adopts the current one and
// re-plans its completion. A flow with a rate reserves the (at, seq) position
// its completion event would take — one schedule-order number per refresh,
// drawn right here, so every other event in the run keeps its position — and
// goes on the touched list; moving it there in the due-set is the barrier's
// business, once for all the refreshes of the instant, and so is queueing it.
func (n *Network) refresh(f *flow, now float64) {
	if f.finished {
		return
	}
	n.settle(f, now)
	f.rate = n.currentRate(f)
	if f.completion != (sim.Event{}) { // only the due-set's head has one
		n.sim.Cancel(f.completion)
		f.completion = sim.Event{}
	}
	switch {
	case f.remaining <= 1e-6:
		// Out of the set before finish, not just inside it: finish flushes
		// first, and a mark made during that flush must not find f due.
		n.due.remove(f.slot)
		n.finish(f, nil)
	case f.rate > 0:
		f.due = n.sim.Reserve(now + f.remaining/f.rate)
		if f.due.At() == now {
			n.reservedNow = true
		}
		if !f.touched {
			f.touched = true
			n.touched = append(n.touched, f.slot)
		}
		n.mRefreshes.Inc()
	default:
		n.due.remove(f.slot)
	}
}

// checkStall arms or disarms the stall-failure timer according to endpoint
// availability.
func (n *Network) checkStall(f *flow) {
	if f.finished {
		return
	}
	down := !f.Src.Available() || !f.Dst.Available()
	if down && !f.stall.Pending() {
		f.stall = n.sim.After(n.cfg.StallTimeout, "net.stall", func() {
			f.stall = sim.Event{}
			n.finish(f, ErrStalled)
		})
	} else if !down && f.stall.Pending() {
		n.sim.Cancel(f.stall)
		f.stall = sim.Event{}
	}
}

// finish removes the flow and fires its callback. Pending marks flush
// first: any settling the eager schedule would have done before this point
// lands before the flow's own final settle, keeping the accumulation order
// (and possibly finishing f itself — a flow that reached zero earlier this
// instant completes in the flush, exactly as it would have eagerly).
//
// Completion is the one endpoint change that settles eagerly rather than
// marking dirty: sibling flows that hit zero at the same instant must
// cascade-finish inside this call — taken out of the due-set before their
// own completions come up, their callbacks delivered before this flow's — to
// replay the exact callback order of the per-change schedule. Deferring the
// cascade to the barrier would complete the siblings one sim event each and
// reorder same-instant callbacks.
func (n *Network) finish(f *flow, err error) {
	if f.finished {
		return
	}
	n.flush()
	if f.finished {
		return
	}
	n.settle(f, n.sim.Now())
	f.finished = true
	if f.gen++; f.gen == 0 {
		f.gen = 1 // wrapped: zero is the generation no object has
	}
	// The callback leaves the object now, so what it captured is not kept
	// alive by a slot waiting for its next transfer.
	done := f.done
	f.done = nil
	if err == ErrStalled {
		n.mStalls.IncAt(n.sim.Now())
	}
	n.sim.Cancel(f.completion)
	n.sim.Cancel(f.stall)
	f.completion, f.stall = sim.Event{}, sim.Event{}
	n.due.remove(f.slot)
	n.retired = append(n.retired, f.slot)
	if f.local() {
		removeSlot(&n.nodes[f.src].local, f.slot)
		n.settleNode(int(f.src))
	} else {
		removeSlot(&n.nodes[f.src].remote, f.slot)
		removeSlot(&n.nodes[f.dst].remote, f.slot)
		n.settleNode(int(f.src))
		n.settleNode(int(f.dst))
	}
	if done != nil {
		done(err)
	}
}

// nodeChanged reacts to an availability transition: rates collapse to zero
// or recover (settled at the barrier), and stall timers arm/disarm
// immediately. checkStall only reads availability and arms sim events — it
// never mutates the flow lists — so no snapshot is needed.
func (n *Network) nodeChanged(node *cluster.Node) {
	n.markDirty(node.ID)
	st := &n.nodes[node.ID]
	for _, slot := range st.remote {
		n.checkStall(n.flows[slot])
	}
	for _, slot := range st.local {
		n.checkStall(n.flows[slot])
	}
}

func removeSlot(s *[]int32, slot int32) {
	for i, x := range *s {
		if x == slot {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}
