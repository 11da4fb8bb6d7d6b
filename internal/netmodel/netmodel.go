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
// fires — resettles each affected flow once instead of once per change. Under
// fan-in (k flows starting at one node in one instant) that is O(k) settles
// instead of the O(k²) an eager per-change recompute pays. Zero simulated time
// passes between the change and the flush, so no intermediate rate is ever
// observable; dirty nodes are processed in first-marked order and flows in
// list order, which fixes the floating-point accumulation order of settled
// bytes and the order in which flows draw their queue positions. Reads
// (Consumed, TotalBytes, ActiveFlows) and flow completion flush first, so
// observers never see a half-settled instant.
//
// A flow's completion is not a sim event until it has to be. A rate change
// gives the flow a new completion time, and most of those are superseded by
// the next long before the clock gets there (a shuffle-heavy sort passes a
// flow some sixty times for every completion that fires). So completions live
// in the due-set, ordered by the (at, seq) positions their events would take —
// a key stored with each flow, the earliest of them with the node the flow
// goes to, and an indexed min-heap of those nodes (dueset.go) — and only its
// head, the one completion that can be the simulation's next event, is queued,
// by the barrier. Positions are drawn at the program points where events used
// to be scheduled and the queued head sits where its own event would have, so
// the simulator fires exactly the events it fired with one event per flow, in
// the same order, and never stores the rest. FuzzNetworkVsEager holds Network
// to that against a test-only model that does keep one event per flow and
// settles on every change.
//
// A node is passed many times in one callback — equal fetches finish k at an
// instant, each finish passes both its nodes, each done callback starts the
// next fetch, which reads the sink's load (a flush) and marks it again — and
// only a flow's last plan survives to the barrier. So a pass does only what
// must happen where it happens, in the eager order: it charges the bytes moved
// since the flow was last settled, cancels its queued completion, finishes it
// if it is within 1e-6 bytes of its end (so the cascade of same-instant
// finishes and the order of done callbacks are the eager ones) and draws the
// schedule-order number the new plan's event would take (sim.DrawOrder), all
// a superseded plan ever contributed. The barrier plans each touched flow
// once: its rate from the list lengths and availability the callback ended
// with — every change of either is followed by a pass over the node, so it is
// the rate the last eager refresh computed — the time now + remaining/rate,
// and one key stored in the due-set, (that time, the flow's last number).
//
// A repeat pass is O(1): a node remembers the instant at which a pass last
// left every flow on it settled with nothing queued, and a further pass at
// that instant, which could charge, cancel and finish nothing, draws a block
// of len(list) numbers without walking; the barrier gives flow i of the list
// base+i where that is later than the flow's own. A flow without a rate gets a
// number an eager refresh would not have drawn: only the order of positions is
// ever compared, and spare numbers leave it alone.
//
// The floor keeps this exact. markDirty must not defer a mark on a node that
// carries a flow due at this very instant, which the eager schedule answers
// from the time the flow's last refresh planned. A flow awaiting its plan has
// none, so a pass leaves one to the barrier only where the answer is known to
// be no: with more than max(NodeBandwidth, DiskBandwidth) · now · 2⁻⁵⁰ bytes
// left, four ulps of the clock or more at any share, so now + remaining/rate
// is later than now. Below that (a tenth of a byte at paper rates and
// t=1e6 s; 270 of 1 042 245 rates on the sort benchmark) a flow is planned on
// the spot, as every refresh used to (sim.Reserve), and its node is never
// marked settled, so passes over it walk.
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
	"math"

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

// Validate rejects a fabric that cannot move a byte or never stalls: every
// capacity and the stall timeout must be positive (NaN is not).
func (c Config) Validate() error {
	if !(c.NodeBandwidth > 0) || !(c.DiskBandwidth > 0) || !(c.StallTimeout > 0) {
		return fmt.Errorf("netmodel: node bandwidth %v, disk bandwidth %v and stall timeout %v must be positive",
			c.NodeBandwidth, c.DiskBandwidth, c.StallTimeout)
	}
	return nil
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
	// slot is the flow's index in the flow table; src and dst are the
	// endpoints' node indices. What a repeat refresh touches comes first, in
	// one cache line of the 128-byte object.
	slot, src, dst int32
	gen            uint32

	remaining  float64
	rate       float64
	lastUpdate float64

	// touched: a pass has re-planned the flow since the due-set was last told
	// (it is on the touched list, once). deferred says how: the pass only drew
	// order, the number the new plan's event would have taken (a node's block
	// may hold a later one), and rate and due are the barrier's to work out;
	// without it — a flow under the floor — they are the new plan's already.
	order                              uint64
	finished, touched, deferred, keyed bool
	done                               func(error)

	// due is the queue position of the flow's completion as its last plan left
	// it, key the one the barrier last stored in the due-set (while keyed).
	// completion is pending only once the barrier has found the flow at the
	// head of the set and queued complete — made on first use, one closure a
	// slot: it captures the object, so it outlives the flows that pass through
	// — at that position.
	due        sim.Reservation
	key        dueKey
	completion sim.Event
	stall      sim.Event
	complete   func()
}

// nodeState tracks the flows touching one node, by slot.
type nodeState struct {
	remote []int32
	local  []int32
	// consumed accumulates bytes moved through this node (both
	// directions), for bandwidth measurement.
	consumed float64
	// up is the node's availability as the network last heard it; share and
	// diskShare are what one flow gets of its NIC and disk: the capacity over
	// the list's length, zero while the node is down or the list empty.
	up               bool
	share, diskShare float64
	// settledAt is the instant at which a pass last left every flow on the
	// node settled, above the floor and with no completion queued; or
	// unsettled; or walking while a pass is on the stack that has met nothing
	// against it yet. What breaks the claim later in the instant — a new flow
	// under the floor, the barrier queueing a completion — resets it; an
	// availability change does not, the barrier being where rates are read.
	settledAt float64
	// base is the first number of the block the node's last pass drew, if it
	// did not walk; hasBlock says the barrier has not handed the block out
	// yet and no walk has started since (the node is on Network.blocked).
	base     uint64
	hasBlock bool
	// head is the earliest key the due-set holds for a flow the node owns and
	// headSlot that flow, or -1; stale and rescan are dueHead's (dueset.go).
	head          dueKey
	headSlot      int32
	stale, rescan bool
}

const unsettled, walking = -1.0, -2.0 // nodeState.settledAt, when not an instant

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

	// The due-set orders every flow that has a rate by the (at, seq) position
	// of its completion (dueset.go: due is its heap of owners, stale the ones
	// to sift); only the head is a sim event, queued by the barrier before the
	// next callback runs. A pass does not move the flow inside the set; it puts
	// it on touched (once, flow.touched), or its node on blocked, and the
	// barrier plans and keys each such flow. reservedNow says some refresh since
	// the last barrier planned a flow under the floor for the current instant —
	// the one fact about the up-to-date order that dueNow needs before then.
	due         dueHeap
	stale       []int32
	touched     []int32
	blocked     []int32 // nodes whose hasBlock is set, repeats allowed
	reservedNow bool
	// floorRate times the clock is the floor (see the package comment).
	floorRate float64

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
	mRescans   *metrics.Counter
	mVisits    *metrics.Counter
	mScheduled *metrics.Counter
}

// Instrument registers fabric observability on c: flows started, bytes
// delivered (settled, so partial progress of failed flows counts, matching
// TotalBytes; a point's count is of settle calls, which a pass that does not
// walk does not make) and stall failures, all time-bucketed; and how much work
// the due-set absorbed — rate_refreshes counts the rates turned into a
// completion time (by the barrier, and by a refresh under the floor),
// due_rekeys the keys the barrier stored for them, due_rescans the owners
// whose head had to be looked for and due_rescan_visits the list entries those
// searches read, completions_scheduled the positions that became sim events.
func (n *Network) Instrument(c *metrics.Collector) {
	if c == nil {
		return
	}
	n.mFlows = c.TimedCounter(metrics.LayerNet, "flows_started", "")
	n.mBytes = c.TimedCounter(metrics.LayerNet, "bytes_delivered", "")
	n.mStalls = c.TimedCounter(metrics.LayerNet, "flow_stalls", "")
	n.mRefreshes = c.Counter(metrics.LayerNet, "rate_refreshes", "")
	n.mRekeys = c.Counter(metrics.LayerNet, "due_rekeys", "")
	n.mRescans = c.Counter(metrics.LayerNet, "due_rescans", "")
	n.mVisits = c.Counter(metrics.LayerNet, "due_rescan_visits", "")
	n.mScheduled = c.Counter(metrics.LayerNet, "completions_scheduled", "")
}

// New attaches a network to the cluster and subscribes to availability
// transitions of every node (a node is up or down for the network as its own
// watcher last heard, so a model whose watchers drive it subscribes after
// it). The network registers a simulation barrier so the deferred settle pass
// runs, and the next completion is queued, before any other callback does.
func New(s *sim.Simulation, c *cluster.Cluster, cfg Config) *Network {
	n := &Network{
		sim:       s,
		cfg:       cfg,
		nodes:     make([]nodeState, len(c.Nodes)),
		inDirty:   make([]bool, len(c.Nodes)),
		floorRate: max(cfg.NodeBandwidth, cfg.DiskBandwidth) / (1 << 50),
	}
	n.due.idx = make([]int32, len(c.Nodes))
	for _, node := range c.Nodes {
		n.nodes[node.ID].up = node.Available()
		n.nodes[node.ID].settledAt = unsettled
		n.nodes[node.ID].headSlot, n.due.idx[node.ID] = -1, -1
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
	if !(bytes >= 0) || math.IsInf(bytes, 1) { // negative, NaN or +Inf
		panic(fmt.Sprintf("netmodel: invalid transfer size %v", bytes))
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
	}
	*f = flow{slot: f.slot, src: int32(src.ID), dst: int32(dst.ID), gen: f.gen,
		remaining: bytes, done: done, lastUpdate: now, complete: f.complete}
	ss, ds := &n.nodes[f.src], &n.nodes[f.dst]
	if f.local() {
		ss.local = append(ss.local, f.slot)
	} else {
		ss.remote = append(ss.remote, f.slot)
		ds.remote = append(ds.remote, f.slot)
		n.reshare(ds)
	}
	n.reshare(ss)
	if bytes <= 1e-6 || bytes <= n.floorRate*now {
		// A pass has to find this one, to finish it or plan it on the spot.
		ss.settledAt, ds.settledAt = unsettled, unsettled
	}
	// A mark can settle on the spot and finish the flow: gen moves on then.
	h := Flow{slot: f.slot, gen: f.gen}
	n.markDirty(src.ID)
	if !f.local() {
		n.markDirty(dst.ID)
	}
	n.checkStall(f)
	return h
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

// currentRate is the flow's fair-share rate: the smaller of its endpoints'
// shares, zero while either is down.
func (n *Network) currentRate(f *flow) float64 {
	if f.local() {
		return n.nodes[f.src].diskShare
	}
	srcShare, dstShare := n.nodes[f.src].share, n.nodes[f.dst].share
	if srcShare < dstShare {
		return srcShare
	}
	return dstShare
}

// reshare recomputes the node's shares after a change of a list's length or
// of the node's availability.
func (n *Network) reshare(st *nodeState) {
	st.share, st.diskShare = 0, 0
	if k := len(st.remote); k > 0 && st.up {
		st.share = n.cfg.NodeBandwidth / float64(k)
	}
	if k := len(st.local); k > 0 && st.up {
		st.diskShare = n.cfg.DiskBandwidth / float64(k)
	}
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
// is the stored head's — or was refreshed to now, under the floor, and raised
// reservedNow. That O(1) test is almost always false, and only then are the
// node's own flows looked at: none on a node settled at this instant, and not
// one that awaits its plan, both being above the floor; for the rest flow.due
// is current.
func (n *Network) dueNow(nodeID int) bool {
	now, st := n.sim.Now(), &n.nodes[nodeID]
	if st.settledAt == now {
		return false
	}
	if _, at := n.dueHead(); !n.reservedNow && at != now {
		return false
	}
	for _, slots := range [2][]int32{st.remote, st.local} {
		for _, slot := range slots {
			if f := n.flows[slot]; !f.deferred && f.rate > 0 && f.due.At() == now {
				return true
			}
		}
	}
	return false
}

// barrier is the network's sim.Barrier. It flushes the deferred settle pass;
// hands out the blocks of nodes whose last pass did not walk; plans every flow
// a pass has touched since the last barrier, however often — its rate as the
// callback left it, the time that gives, the last number drawn for it — with
// one key stored in the due-set each (one left without a rate leaves the set);
// releases the slots of finished flows, which no snapshot can name any more;
// and makes sure the head of the set — the one completion that can be the
// simulation's next event — is queued at its position. A head displaced by an
// earlier arrival keeps its event: it is the very event the flow would have
// had on its own, and it stays until the flow's next pass cancels it or it
// fires. No position is therefore ever queued twice.
func (n *Network) barrier() bool {
	did := n.flush()
	for _, id := range n.blocked {
		if st := &n.nodes[id]; st.hasBlock { // listed twice, or walked since
			n.resolve(st)
		}
	}
	n.blocked = n.blocked[:0]
	now := n.sim.Now()
	for _, slot := range n.touched {
		f := n.flows[slot]
		if !f.touched {
			continue // finished, and its slot taken again since: see reclaim
		}
		f.touched = false
		if f.finished {
			continue
		}
		if f.deferred {
			f.deferred = false
			if f.rate = n.currentRate(f); f.rate > 0 {
				f.due = n.sim.ReservedAt(now+f.remaining/f.rate, f.order)
				n.mRefreshes.Inc()
			}
		}
		if f.rate > 0 {
			n.key(f, f.due)
			n.mRekeys.Inc()
		} else {
			n.unkey(f)
		}
	}
	n.touched = n.touched[:0]
	n.reservedNow = false
	n.reclaim()

	slot, _ := n.dueHead()
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
	// A pass has an event to cancel now, so it has to find the flow.
	n.nodes[f.src].settledAt, n.nodes[f.dst].settledAt = unsettled, unsettled
	return true
}

// resolve hands out the node's block: flow i of the list takes base+i unless a
// walk of its other endpoint drew it a later number, and awaits a plan like a
// flow a walk has refreshed — which it may never have been this callback.
func (n *Network) resolve(st *nodeState) {
	st.hasBlock = false
	order := st.base
	for _, slots := range [2][]int32{st.remote, st.local} {
		for _, slot := range slots {
			f := n.flows[slot]
			if order > f.order {
				f.order = order
			}
			order++
			f.deferred = true
			if !f.touched {
				f.touched = true
				n.touched = append(n.touched, slot)
			}
		}
	}
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
	switch slot, _ := n.dueHead(); slot {
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

// settleNode is one pass over the node: every flow touching it is resettled
// and drawn a number for its new plan. A walk goes over a snapshot: refresh can
// finish a flow, which removes it here and lets its done callback start others.
func (n *Network) settleNode(nodeID int) {
	st := &n.nodes[nodeID]
	now := n.sim.Now() // callbacks run inside the pass, the clock does not
	if st.settledAt == now {
		// A repeat pass: every refresh would only draw a number.
		if k := len(st.remote) + len(st.local); k > 0 {
			st.base = n.sim.DrawOrder(k)
			if !st.hasBlock {
				st.hasBlock = true
				n.blocked = append(n.blocked, int32(nodeID))
			}
		}
		return
	}
	st.hasBlock = false // the walk draws later numbers
	st.settledAt = walking
	var buf []int32
	if k := len(n.scratch); k > 0 {
		buf, n.scratch = n.scratch[k-1][:0], n.scratch[:k-1]
	}
	buf = append(buf, st.remote...)
	buf = append(buf, st.local...)
	n.settleDepth++
	settled := true
	for _, slot := range buf {
		if !n.refresh(n.flows[slot], now) {
			settled = false
		}
	}
	n.settleDepth--
	n.scratch = append(n.scratch, buf)
	// A nested pass that ran to its end, or whatever unsettles a node, has had
	// the last word already.
	if st.settledAt == walking {
		st.settledAt = unsettled
		if settled {
			st.settledAt = now
		}
	}
}

// refresh is a pass's visit to one flow: it settles the flow at its old rate,
// cancels its queued completion, finishes it if it is at its end, and
// otherwise draws the number its new plan's event would take — one per
// refresh, right here, so every other event in the run keeps its place — and
// puts it on the touched list; the plan is the barrier's business. A flow
// under the floor is planned here, as every flow used to be, and refresh
// reports it: its node must not count as settled.
func (n *Network) refresh(f *flow, now float64) (settled bool) {
	if f.finished {
		return true // not on the node any more
	}
	if f.deferred {
		// Refreshed earlier in this callback: settled, nothing queued, above
		// the floor. Only the number moves on (and settle's zero observation
		// is repeated); a rate lost since is the barrier's to find.
		n.mBytes.AddAt(now, 0)
		f.order = n.sim.DrawOrder(1)
		return true
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
		n.unkey(f)
		n.finish(f, nil)
		return true
	case f.rate == 0:
		n.unkey(f)
		return f.remaining > n.floorRate*now // or it may come back unable to defer
	case f.remaining > n.floorRate*now:
		f.deferred = true
		f.order = n.sim.DrawOrder(1)
	default:
		f.due = n.sim.Reserve(now + f.remaining/f.rate)
		if f.due.At() == now {
			n.reservedNow = true
		}
		n.mRefreshes.Inc()
	}
	if !f.touched {
		f.touched = true
		n.touched = append(n.touched, f.slot)
	}
	return f.deferred
}

// checkStall arms or disarms the stall-failure timer according to endpoint
// availability.
func (n *Network) checkStall(f *flow) {
	if f.finished {
		return
	}
	down := !n.nodes[f.src].up || !n.nodes[f.dst].up
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
	n.unkey(f)
	n.retired = append(n.retired, f.slot)
	if f.local() {
		removeSlot(&n.nodes[f.src].local, f.slot)
		n.reshare(&n.nodes[f.src])
		n.settleNode(int(f.src))
	} else {
		removeSlot(&n.nodes[f.src].remote, f.slot)
		removeSlot(&n.nodes[f.dst].remote, f.slot)
		n.reshare(&n.nodes[f.src])
		n.reshare(&n.nodes[f.dst])
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
	st := &n.nodes[node.ID]
	st.up = node.Available()
	n.reshare(st)
	n.markDirty(node.ID)
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
