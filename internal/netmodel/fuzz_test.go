package netmodel

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// --- the eager reference -----------------------------------------------------

// eagerNet is the fabric model with none of Network's machinery: every flow
// owns one real sim event for its completion, and every endpoint change
// resettles and reschedules every flow on the node right where it happens.
// No dirty marks, no barrier, no due-set. It is what Network must be
// indistinguishable from — same callbacks at the same instants in the same
// order, same settled bytes to the last bit — and it exists only here.
type eagerNet struct {
	sim   *sim.Simulation
	cfg   Config
	nodes []eagerNode
	total float64
	// nearEnd counts the one thing the eager schedule does that batched
	// settling is known not to reproduce (see fuzzSteps): a transfer or an
	// availability flip — not a finish, which both models settle on the spot —
	// found a flow within 1e-6 bytes of its end whose completion event was
	// queued for a later time, and so finished it inside the call. And its
	// sibling (see realSizes): a transfer of no more than 1e-6 bytes started
	// from a done callback, finished inside that call.
	nearEnd int
	inDone  int // done callbacks on the stack
}

type eagerNode struct {
	remote, local []*eagerFlow
	consumed      float64
}

type eagerFlow struct {
	src, dst                    *cluster.Node
	remaining, rate, lastUpdate float64
	done                        func(error)
	completion, stall           sim.Event
	dueAt                       float64 // when completion fires, while it is pending
	finished                    bool
}

func newEager(s *sim.Simulation, c *cluster.Cluster, cfg Config) *eagerNet {
	e := &eagerNet{sim: s, cfg: cfg, nodes: make([]eagerNode, len(c.Nodes))}
	for _, node := range c.Nodes {
		node.Watch(func(nd *cluster.Node, _ bool) {
			e.settleNode(nd.ID, true)
			for _, f := range e.flowsOn(nd.ID) {
				e.checkStall(f)
			}
		})
	}
	return e
}

func (f *eagerFlow) local() bool { return f.src.ID == f.dst.ID }

// flowsOn snapshots the node's flows, remote first: the order Network
// settles them in.
func (e *eagerNet) flowsOn(id int) []*eagerFlow {
	st := &e.nodes[id]
	return append(slices.Clone(st.remote), st.local...)
}

func (e *eagerNet) transfer(src, dst *cluster.Node, bytes float64, done func(error)) *eagerFlow {
	f := &eagerFlow{src: src, dst: dst, remaining: bytes, done: done, lastUpdate: e.sim.Now()}
	if bytes == 0 {
		f.finished = true
		e.sim.After(0, "eager.done0", func() { done(nil) })
		return f
	}
	if bytes <= 1e-6 && e.inDone > 0 {
		e.nearEnd++
	}
	if f.local() {
		e.nodes[src.ID].local = append(e.nodes[src.ID].local, f)
		e.settleNode(src.ID, true)
	} else {
		e.nodes[src.ID].remote = append(e.nodes[src.ID].remote, f)
		e.nodes[dst.ID].remote = append(e.nodes[dst.ID].remote, f)
		e.settleNode(src.ID, true)
		e.settleNode(dst.ID, true)
	}
	e.checkStall(f)
	return f
}

// settleNode resettles every flow on the node; change says a transfer or a
// flip asked, not a finish.
func (e *eagerNet) settleNode(id int, change bool) {
	for _, f := range e.flowsOn(id) {
		e.refresh(f, change)
	}
}

func (e *eagerNet) rate(f *eagerFlow) float64 {
	if !f.src.Available() || !f.dst.Available() {
		return 0
	}
	if f.local() {
		return e.cfg.DiskBandwidth / float64(len(e.nodes[f.src.ID].local))
	}
	return min(e.cfg.NodeBandwidth/float64(len(e.nodes[f.src.ID].remote)),
		e.cfg.NodeBandwidth/float64(len(e.nodes[f.dst.ID].remote)))
}

func (e *eagerNet) settle(f *eagerFlow) {
	now := e.sim.Now()
	if f.rate > 0 {
		delta := min(f.rate*(now-f.lastUpdate), f.remaining)
		f.remaining -= delta
		e.total += delta
		e.nodes[f.src.ID].consumed += delta
		if !f.local() {
			e.nodes[f.dst.ID].consumed += delta
		}
	}
	f.lastUpdate = now
}

func (e *eagerNet) refresh(f *eagerFlow, change bool) {
	if f.finished {
		return
	}
	e.settle(f)
	f.rate = e.rate(f)
	early := change && f.completion.Pending() && f.dueAt != e.sim.Now()
	e.sim.Cancel(f.completion)
	f.completion = sim.Event{}
	if f.remaining <= 1e-6 {
		if early {
			e.nearEnd++
		}
		e.finish(f, nil)
		return
	}
	if f.rate > 0 {
		f.dueAt = e.sim.Now() + f.remaining/f.rate
		f.completion = e.sim.Schedule(f.dueAt, "eager.complete", func() { e.finish(f, nil) })
	}
}

func (e *eagerNet) checkStall(f *eagerFlow) {
	if f.finished {
		return
	}
	down := !f.src.Available() || !f.dst.Available()
	if down && !f.stall.Pending() {
		f.stall = e.sim.After(e.cfg.StallTimeout, "eager.stall", func() {
			f.stall = sim.Event{}
			e.finish(f, ErrStalled)
		})
	} else if !down && f.stall.Pending() {
		e.sim.Cancel(f.stall)
		f.stall = sim.Event{}
	}
}

func (e *eagerNet) finish(f *eagerFlow, err error) {
	if f.finished {
		return
	}
	e.settle(f)
	f.finished = true
	e.sim.Cancel(f.completion)
	e.sim.Cancel(f.stall)
	drop := func(s *[]*eagerFlow) { *s = slices.DeleteFunc(*s, func(x *eagerFlow) bool { return x == f }) }
	if f.local() {
		drop(&e.nodes[f.src.ID].local)
		e.settleNode(f.src.ID, false)
	} else {
		drop(&e.nodes[f.src.ID].remote)
		drop(&e.nodes[f.dst.ID].remote)
		e.settleNode(f.src.ID, false)
		e.settleNode(f.dst.ID, false)
	}
	e.inDone++
	f.done(err)
	e.inDone--
}

// --- programs ----------------------------------------------------------------

// The fuzzer's bytes decode into a program: a node count, then operations.
// Every operation runs inside a sim callback, the way model code calls the
// network. A program can be run two ways: one operation a callback, or all
// operations between two clock advances in one callback (run's together).
const (
	opTransfer = iota // src, dst, size index, follow-up bits
	opCancel          // flow index
	opFlip            // node: availability toggles at this instant
	opAdvance         // dt index
	opRead            // node
	opKinds
)

// Follow-up bits of a transfer: what its done callback does.
const (
	thenRead     = 1 << 0 // read Consumed(src) and TotalBytes
	thenTransfer = 1 << 1 // start dst -> (dst+1+bits>>2) with the same size
)

var (
	// fuzzSizes are flow sizes in bytes against 100 B/s NICs and 50 B/s
	// disks: zero, and values that put many completions on the same
	// instant. A non-zero size under the 1e-6 completion epsilon is left
	// out on purpose: the eager model finishes such a flow inside Transfer,
	// batched settling (before the due-set as well as with it) at the
	// barrier, and no caller moves a millionth of a byte.
	fuzzSizes = [16]float64{0, 12.5, 25, 50, 50, 100, 100, 150, 200, 250, 300, 1000, 1234.5, 33.3, 7.25, 1e4}
	// fuzzSteps are clock advances in seconds. None is short enough to stop
	// the clock within 1e-6 bytes of a flow's end without stopping on it: a
	// change on such a flow's node finishes it early, which the eager model
	// does inside the call and batched settling (before the due-set and with
	// it) at the barrier — the same known difference as the sub-epsilon size.
	fuzzSteps = [16]float64{0, 0, 0.125, 0.01, 0.25, 0.5, 0.5, 1, 1, 1.5, 2, 2.5, 5, 10, 30, 100}

	// realSizes and realSteps are the second domain, run against
	// DefaultConfig(): the paper's rates, and a clock that gets far enough for
	// now + remaining/rate to round to now with more than 1e-6 bytes left —
	// the floor under which Network may not leave a flow's completion time to
	// the barrier (at 1e6 s, a tenth of a byte). Sizes pair up a few bytes or
	// thousandths apart, so that one of two fetches sharing a NIC ends with
	// the other inside that range; a shuffle segment, a block and a gigabyte
	// stand for the shipped workloads. The one size under the epsilon is here
	// for the node it lands on: eagerNet.transfer lets a program off when a
	// done callback starts one, which is where the two models differ on it.
	realSizes = [16]float64{0, 5e-7, 1e-5, 1e-3, 0.05, 0.5, 6, 530e3, 530e3 + 1e-3, 1e6, 1e6 + 6e-3, 1e6 + 2e-3, 64e6, 64e6 + 0.01, 117e6, 1e9}
	realSteps = [16]float64{0, 0, 1e-3, 0.5, 1, 8.5, 30, 1e4, 1e4, 3e4, 1e5, 1e5, 2.5e5, 5e5, 1e6, 1e6}
)

type progOp struct {
	kind, a, b, c, d int
}

type program struct {
	nodes int
	real  bool // the second domain: realSizes, realSteps and DefaultConfig()
	ops   []progOp
}

// prog starts a program by hand; the methods append operations and bytes()
// is the fuzz input that decodes back to it. realProg starts one in the
// second domain.
func prog(nodes int) *program     { return &program{nodes: nodes} }
func realProg(nodes int) *program { return &program{nodes: nodes, real: true} }

func (p *program) size(i int) float64 {
	if p.real {
		return realSizes[i%len(realSizes)]
	}
	return fuzzSizes[i%len(fuzzSizes)]
}

func (p *program) step(i int) float64 {
	if p.real {
		return realSteps[i%len(realSteps)]
	}
	return fuzzSteps[i%len(fuzzSteps)]
}

func (p *program) config() Config {
	if p.real {
		return DefaultConfig()
	}
	return fuzzConfig()
}

func (p *program) transfer(src, dst, size, follow int) *program {
	p.ops = append(p.ops, progOp{opTransfer, src, dst, size, follow})
	return p
}
func (p *program) cancel(flow int) *program {
	p.ops = append(p.ops, progOp{kind: opCancel, a: flow})
	return p
}
func (p *program) flip(node int) *program {
	p.ops = append(p.ops, progOp{kind: opFlip, a: node})
	return p
}
func (p *program) advance(step int) *program {
	p.ops = append(p.ops, progOp{kind: opAdvance, a: step})
	return p
}
func (p *program) read(node int) *program {
	p.ops = append(p.ops, progOp{kind: opRead, a: node})
	return p
}

func (p *program) bytes() []byte {
	b := []byte{byte(p.nodes - 2)}
	if p.real {
		b[0] |= 0x80
	}
	for _, o := range p.ops {
		b = append(b, byte(o.kind), byte(o.a))
		if o.kind == opTransfer {
			b = append(b, byte(o.b), byte(o.c), byte(o.d))
		}
	}
	return b
}

func decodeProgram(b []byte) *program {
	if len(b) == 0 {
		return prog(2)
	}
	p := &program{nodes: 2 + int(b[0]&0x7f)%7, real: b[0]&0x80 != 0}
	b = b[1:]
	for len(b) >= 2 && len(p.ops) < 256 {
		o := progOp{kind: int(b[0]) % opKinds, a: int(b[1])}
		b = b[2:]
		if o.kind == opTransfer {
			if len(b) < 3 {
				break
			}
			o.b, o.c, o.d = int(b[0]), int(b[1]), int(b[2])
			b = b[3:]
		}
		p.ops = append(p.ops, o)
	}
	return p
}

// traces turns the program's flips into one outage schedule per node. Flips
// depend only on the program's own clock, so they can be laid down before
// either model runs — which is how a cluster takes availability.
func (p *program) traces() []trace.Trace {
	flips := make([][]float64, p.nodes)
	t := 0.0
	for _, o := range p.ops {
		switch o.kind {
		case opAdvance:
			t += p.step(o.a)
		case opFlip:
			id := o.a % p.nodes
			if k := len(flips[id]); k > 0 && flips[id][k-1] == t {
				flips[id] = flips[id][:k-1] // down and up at one instant: nothing
			} else {
				flips[id] = append(flips[id], t)
			}
		}
	}
	out := make([]trace.Trace, p.nodes)
	for id, ts := range flips {
		out[id].Duration = 1e12
		for i := 0; i < len(ts); i += 2 {
			iv := trace.Interval{Start: ts[i], End: 1e9}
			if i+1 < len(ts) {
				iv.End = ts[i+1]
			}
			out[id].Outages = append(out[id].Outages, iv)
		}
	}
	return out
}

// fabric is the surface a program drives, bound to either model.
type fabric struct {
	transfer func(src, dst *cluster.Node, bytes float64, done func(error)) (cancel func())
	consumed func(node int) float64
	total    func() float64
	// Hooks for a model that checks itself; either may be nil. onDone runs
	// in every done callback, between each time the clock has been advanced.
	onDone  func(flow int, err error)
	between func()
}

// run executes the program against one model and returns everything it could
// observe: each completion (flow, error, time bits) and each read (bit
// patterns of Consumed and TotalBytes), in order. Whatever the model, every
// flow must be done exactly once by the end.
func (p *program) run(t testing.TB, bind func(*sim.Simulation, *cluster.Cluster) fabric, together bool) []string {
	s := sim.New()
	c := cluster.New(s, cluster.Config{VolatileTraces: p.traces()})
	fab := bind(s, c)
	var log []string
	var cancels []func()
	var dones []int

	read := func(node int) {
		log = append(log, fmt.Sprintf("t=%x read n%d consumed=%x total=%x", math.Float64bits(s.Now()),
			node, math.Float64bits(fab.consumed(node)), math.Float64bits(fab.total())))
	}
	var start func(src, dst, size, follow int)
	start = func(src, dst, size, follow int) {
		id := len(cancels)
		cancels = append(cancels, nil)
		dones = append(dones, 0)
		cancels[id] = fab.transfer(c.Node(src), c.Node(dst), p.size(size), func(err error) {
			dones[id]++
			log = append(log, fmt.Sprintf("t=%x done f%d %d->%d err=%v", math.Float64bits(s.Now()), id, src, dst, err))
			if fab.onDone != nil {
				fab.onDone(id, err)
			}
			if follow&thenRead != 0 {
				read(src)
			}
			if follow&thenTransfer != 0 {
				start(dst, (dst+1+follow>>2)%p.nodes, size, 0)
			}
		})
	}
	apply := func(o progOp) {
		switch o.kind {
		case opTransfer:
			start(o.a%p.nodes, o.b%p.nodes, o.c, o.d)
		case opCancel:
			if len(cancels) > 0 {
				if cancel := cancels[o.a%len(cancels)]; cancel != nil {
					cancel()
				}
			}
		case opRead:
			read(o.a % p.nodes)
		}
	}

	now := 0.0
	var batch []progOp
	flush := func(until float64) {
		ops := batch
		batch = nil
		s.Schedule(now, "fuzz.batch", func() {
			for _, o := range ops {
				apply(o)
			}
		})
		s.RunUntil(until)
		if fab.between != nil {
			fab.between()
		}
	}
	for _, o := range p.ops {
		switch {
		case o.kind == opAdvance:
			next := now + p.step(o.a)
			flush(next)
			now = next
		case together:
			batch = append(batch, o)
		default:
			batch = []progOp{o}
			flush(now)
		}
	}
	// Let everything end: 512 flows of 1e4 B through one 50 B/s disk take
	// 1e5 s, and flows on a node that never comes back stall out.
	flush(now + 1e7)
	for id := range c.Nodes {
		read(id)
	}
	for id, k := range dones {
		if k != 1 {
			t.Fatalf("flow f%d was done %d times\nprogram: %+v", id, k, *p)
		}
	}
	return log
}

func fuzzConfig() Config { return Config{NodeBandwidth: 100, DiskBandwidth: 50, StallTimeout: 30} }

// bindEager drives the reference; *nearEnd receives how often it finished a
// flow the way batched settling does not (eagerNet.nearEnd).
func bindEager(cfg Config, nearEnd *int) func(*sim.Simulation, *cluster.Cluster) fabric {
	return func(s *sim.Simulation, c *cluster.Cluster) fabric {
		e := newEager(s, c, cfg)
		return fabric{
			transfer: func(src, dst *cluster.Node, bytes float64, done func(error)) func() {
				f := e.transfer(src, dst, bytes, done)
				return func() { e.finish(f, ErrCanceled) }
			},
			consumed: func(node int) float64 { return e.nodes[node].consumed },
			total:    func() float64 { return e.total },
			between:  func() { *nearEnd = e.nearEnd },
		}
	}
}

// dueSetCases counts the situations the seed corpus must contain.
type dueSetCases struct {
	canceledQueuedHead int // Cancel of the flow whose completion is the queued head
	displacedFired     int // a head displaced by an earlier arrival fired at its own, older event
	// A flow seen with a later order number three times at one instant, with
	// a read among them: passed at least three times, planned and re-keyed
	// once.
	refreshedThrice   int
	refreshes, rekeys int // the network's rate_refreshes and due_rekeys
	// What a pass does and the barrier does, by branch. A look (a done
	// callback, a read) found a node whose last pass drew a block and did not
	// walk; a read came with such a block outstanding; a Cancel hit a flow on
	// such a node; a Transfer from under a settle pass was answered with a
	// block (the walk it interrupts goes on afterwards); a node changed
	// availability having been settled at that instant; a transfer of no more
	// than the epsilon landed on a node settled at that instant; a look found
	// a flow re-planned on the spot, being under the floor.
	repeatPass          int
	readAfterRepeat     int
	canceledOnBlocked   int
	floorFlowOnBlocked  int // ... and so did a transfer of less than the floor
	repeatInsidePass    int
	flipOnSettled       int
	subEpsilonOnSettled int
	floorPath           int
	startedInsidePass   int // Transfer from a done callback under a settle pass, a finished flow's slot not yet free
	// Cancel through the handle of a flow that has ended, while the object it
	// named carries another flow in flight: the one a pool without
	// generations would cancel.
	canceledStale int
	// A Transfer was given the slot, and so the object, of a flow that ended
	// at the same instant.
	reusedInInstant int
	// The two-level set. An owner's head went to a flow whose stored key had
	// not moved since the harness last looked: no key stored made it the head,
	// so a rescan found it, and the barrier had not re-planned it. An owner that
	// was in the heap has no keyed flow left and is out of it, others staying.
	rescanChoseUnplanned int
	ownerLeftHeap        int
}

// bindNetwork drives the real Network, checks the due-set's, the slot
// table's and the handles' invariants between callbacks and tallies the cases
// into seen (which may be nil).
func bindNetwork(t testing.TB, cfg Config, seen *dueSetCases) func(*sim.Simulation, *cluster.Cluster) fabric {
	if seen == nil {
		seen = new(dueSetCases)
	}
	return func(s *sim.Simulation, c *cluster.Cluster) fabric {
		// This watcher runs before the network's own and sees what a flip finds.
		var n *Network
		for _, node := range c.Nodes {
			node.Watch(func(nd *cluster.Node, _ bool) {
				if n.nodes[nd.ID].settledAt == s.Now() {
					seen.flipOnSettled++
				}
			})
		}
		n = New(s, c, cfg)
		n.Instrument(metrics.New(10)) // the counters below; and settle's metrics-on path
		topRate := max(cfg.NodeBandwidth, cfg.DiskBandwidth)
		// Per harness flow: its handle (zero until Transfer returns, and for
		// good if the flow was zero bytes) and whether its done has run.
		// Objects are reused, so nothing here is keyed by *flow.
		var flows []Flow
		var ended []bool
		endedAt := map[int32]float64{} // slot -> when the flow that last held it ended
		displaced := map[int]sim.Reservation{}
		// What the set held when between last looked: each keyed flow's stored
		// key and each owner's head, flows named by handle.
		lastKey, lastHead := map[Flow]dueKey{}, map[int]Flow{}

		// latest is the order number the flow would be planned with were the
		// barrier to run now: its own, or a later one out of a block.
		latest := func(f *flow) uint64 {
			order := f.order
			for _, id := range []int32{f.src, f.dst} {
				if st := &n.nodes[id]; st.hasBlock {
					i := slices.Index(append(slices.Clone(st.remote), st.local...), f.slot)
					order = max(order, st.base+uint64(i))
				}
			}
			return order
		}
		// moves counts, per flow, the later numbers seen at the current
		// instant at the points where the harness looks (each done callback,
		// each read): a lower bound on the passes over the flow this instant.
		type moved struct {
			at       float64
			order    uint64
			n        int
			readSeen bool
		}
		moves := map[int]*moved{}
		// look runs mid-callback and also holds Network to what its marks
		// claim. A flow awaiting a plan, and every flow on a node that is
		// settled at this instant, or whose last pass drew a block and which
		// has no pass pending, is settled, has no completion queued and — the
		// floor's whole purpose — cannot complete at this instant at any rate.
		look := func(read bool) {
			now := s.Now()
			claim := func(what string, f *flow) {
				if f.finished || f.lastUpdate != now || f.completion.Pending() || f.remaining <= 1e-6 ||
					now+f.remaining/topRate == now {
					t.Fatalf("%s at %v, yet it is %+v", what, now, f)
				}
			}
			blocks := 0
			for id := range n.nodes {
				st := &n.nodes[id]
				if st.hasBlock {
					blocks++
					if !slices.Contains(n.blocked, int32(id)) {
						t.Fatalf("node %d holds a block and is not listed for the barrier", id)
					}
				}
				if st.settledAt == now || st.hasBlock && !n.inDirty[id] {
					for _, slot := range append(slices.Clone(st.remote), st.local...) {
						claim(fmt.Sprintf("node %d (settled at %v, block: %v) carries slot %d", id, st.settledAt, st.hasBlock, slot), n.flows[slot])
					}
				}
			}
			if blocks > 0 {
				seen.repeatPass++
			}
			for id, h := range flows {
				f := n.lookup(h)
				if f == nil {
					continue
				}
				if f.deferred {
					claim(fmt.Sprintf("flow f%d awaits a plan", id), f)
					if !f.touched {
						t.Fatalf("flow f%d awaits a plan the barrier will not make: %+v", id, f)
					}
				} else if f.touched && f.rate > 0 {
					seen.floorPath++
				}
				m := moves[id]
				if m == nil || m.at != now {
					moves[id] = &moved{at: now, order: latest(f)}
					continue
				}
				if order := latest(f); order != m.order {
					m.order = order
					if m.n++; m.n == 3 && m.readSeen {
						seen.refreshedThrice++
					}
				}
				m.readSeen = m.readSeen || (read && m.n > 0)
			}
		}
		return fabric{
			transfer: func(src, dst *cluster.Node, bytes float64, done func(error)) func() {
				id := len(flows)
				flows = append(flows, Flow{})
				ended = append(ended, false)
				if n.settleDepth > 0 && len(n.retired) > 0 {
					seen.startedInsidePass++
				}
				ss, ds := &n.nodes[src.ID], &n.nodes[dst.ID]
				if bytes > 0 && bytes <= 1e-6 && (ss.settledAt == s.Now() || ds.settledAt == s.Now()) {
					seen.subEpsilonOnSettled++
				}
				if bytes > 0 && bytes <= n.floorRate*s.Now() && (ss.hasBlock || ds.hasBlock) {
					seen.floorFlowOnBlocked++
				}
				underPass, bases := n.settleDepth > 0, [2]uint64{ss.base, ds.base}
				h := n.Transfer(src, dst, bytes, done)
				if underPass && (ss.hasBlock && ss.base != bases[0] || ds.hasBlock && ds.base != bases[1]) {
					seen.repeatInsidePass++
				}
				flows[id] = h
				if h != (Flow{}) {
					if at, ok := endedAt[h.slot]; ok && at == s.Now() {
						seen.reusedInInstant++
					}
					delete(endedAt, h.slot)
				}
				return func() {
					head, _ := n.dueHead()
					switch f := n.lookup(h); {
					case f != nil && head == f.slot && f.completion.Pending():
						seen.canceledQueuedHead++
					case f == nil && h != (Flow{}) && !n.flows[h.slot].finished:
						seen.canceledStale++
					}
					if f := n.lookup(h); f != nil && (n.nodes[f.src].hasBlock || n.nodes[f.dst].hasBlock) {
						seen.canceledOnBlocked++
					}
					n.Cancel(h)
				}
			},
			consumed: func(node int) float64 {
				if len(n.blocked) > 0 {
					seen.readAfterRepeat++
				}
				v := n.Consumed(node)
				look(true)
				return v
			},
			total: n.TotalBytes,
			onDone: func(flow int, err error) {
				ended[flow] = true
				// The handle is still zero when the flow finished inside
				// Transfer. Otherwise its object keeps the finished flow's
				// fields until the slot's next transfer, which cannot have
				// started: this runs first in the flow's done.
				if h := flows[flow]; h != (Flow{}) {
					endedAt[h.slot] = s.Now()
					if due, ok := displaced[flow]; ok && err == nil && due == n.flows[h.slot].due {
						seen.displacedFired++
					}
				}
				look(false)
			},
			between: func() {
				seen.refreshes = int(n.mRefreshes.Value())
				seen.rekeys = int(n.mRekeys.Value())
				if len(n.touched) != 0 || len(n.blocked) != 0 || n.reservedNow || len(n.retired) != 0 {
					t.Fatalf("after a barrier: %d flows touched, %d nodes blocked, reservedNow=%v, %d slots retired",
						len(n.touched), len(n.blocked), n.reservedNow, len(n.retired))
				}
				for id := range n.nodes {
					if n.nodes[id].hasBlock || n.nodes[id].settledAt == walking {
						t.Fatalf("after a barrier: node %d awaits resolution or is mid-walk: %+v", id, n.nodes[id])
					}
				}
				// A handle names its flow until the flow's done has run, and
				// nothing after; idOf finds the harness flow of a live slot.
				idOf := map[int32]int{}
				live := 0
				for id, h := range flows {
					f := n.lookup(h)
					if h != (Flow{}) && (f != nil) == ended[id] {
						t.Fatalf("flow f%d ended=%v, its handle %+v resolves to %+v", id, ended[id], h, f)
					}
					if f == nil {
						continue
					}
					idOf[f.slot] = id
					if f.rate > 0 {
						live++
					}
				}
				// The keyed flows are exactly the live flows with a rate, each
				// planned and stored at the position its plan reserved; the owners'
				// heads and their heap are what those keys imply (checkOwners).
				if keyed := checkOwners(t, n); keyed != live {
					t.Fatalf("%d live flows have a rate, %d flows are keyed under their owners", live, keyed)
				}
				head, _ := n.dueHead()
				key := map[Flow]dueKey{}
				for slot, f := range n.flows {
					if !f.keyed {
						continue
					}
					if f.finished || f.rate <= 0 || f.touched || f.deferred {
						t.Fatalf("slot %d is keyed and holds %+v", slot, f)
					}
					if f.key != (dueKey{f.due.At(), f.due.Seq()}) {
						t.Fatalf("slot %d keyed %+v, its flow reserved (%v, %d)", slot, f.key, f.due.At(), f.due.Seq())
					}
					if int32(slot) != head && f.completion.Pending() {
						displaced[idOf[f.slot]] = f.due
					}
					key[Flow{f.slot, f.gen}] = f.key
				}
				for id := range n.nodes {
					was, had := lastHead[id]
					delete(lastHead, id)
					if slot := n.nodes[id].headSlot; slot >= 0 {
						h := Flow{slot, n.flows[slot].gen}
						if k, keyed := lastKey[h]; had && was != h && keyed && k == key[h] {
							seen.rescanChoseUnplanned++
						}
						lastHead[id] = h
					} else if had && len(n.due.es) > 0 {
						seen.ownerLeftHeap++
					}
				}
				lastKey = key
				// Every slot keeps one object for good. A free slot's object is
				// a finished flow with nothing left attached; with no slot
				// retired, every other slot's is in flight.
				free := map[int32]bool{}
				for _, slot := range n.free {
					f := n.flows[slot]
					if free[slot] || !f.finished || f.done != nil || f.keyed ||
						f.stall.Pending() || f.completion.Pending() {
						t.Fatalf("free slot %d: listed twice, or its object is not a finished, detached flow: %+v", slot, f)
					}
					free[slot] = true
				}
				for slot, f := range n.flows {
					if f.slot != int32(slot) || f.gen == 0 || f.finished != free[int32(slot)] {
						t.Fatalf("slot %d holds %+v (free: %v)", slot, f, free[int32(slot)])
					}
				}
				for id := range n.nodes {
					for _, slot := range append(slices.Clone(n.nodes[id].remote), n.nodes[id].local...) {
						if free[slot] {
							t.Fatalf("node %d lists slot %d, which is free", id, slot)
						}
					}
				}
			},
		}
	}
}

// --- the fuzz target ---------------------------------------------------------

func diffLogs(t testing.TB, p *program, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("observation %d differs\n  eager:   %s\n  network: %s\nprogram: %+v", i, w, g, *p)
		}
	}
}

// seedPrograms is the checked-in corpus: one program per situation the
// due-set handles differently from one-event-per-flow.
var seedPrograms = map[string]*program{
	// 0->1 and 2->3 both take 100 B at 100 B/s: two completions at t=1 on
	// disjoint nodes, one of them queued at the current instant.
	"two-due-one-instant": prog(4).transfer(0, 1, 5, thenRead).transfer(2, 3, 5, thenRead).advance(12),
	// f0 (1000 B, due t=10) is queued as head; at t=1 f1 (100 B, due t=2)
	// arrives on other nodes and takes the head. f0 keeps its event and
	// fires at it, untouched, at t=10. (The stop at t=1.5 is where the test
	// harness sees f0 queued but not head.)
	"displaced-head-fires": prog(4).transfer(0, 1, 11, 0).advance(7).transfer(2, 3, 5, 0).advance(5).advance(13),
	// The only flow is the queued head when it is canceled; its successor
	// then has to be queued at a position reserved before the cancel.
	"cancel-queued-head": prog(4).transfer(0, 1, 5, 0).transfer(2, 3, 8, 0).advance(4).cancel(0).read(0).advance(12),
	// A completion that starts a replacement transfer mid-cascade on a
	// shared sink, with a read inside the callback.
	"follow-up-in-cascade": prog(4).transfer(0, 3, 5, thenRead|thenTransfer).transfer(1, 3, 5, thenTransfer).
		transfer(2, 3, 2, thenRead).advance(7).read(3).advance(13),
	// Local copies sharing a disk, and zero-byte flows.
	"local-and-zero-byte": prog(3).transfer(1, 1, 3, thenRead).transfer(1, 1, 5, 0).transfer(0, 2, 0, thenRead).
		transfer(0, 2, 1, thenTransfer).advance(10).read(1).advance(12),
	// An outage shorter than the stall timeout pauses a flow (it leaves and
	// re-enters the due-set); one longer than it stalls the next.
	"outage-pause-and-stall": prog(3).transfer(0, 1, 9, 0).transfer(2, 1, 11, thenRead).advance(7).flip(0).advance(12).
		flip(0).advance(7).flip(2).advance(15).read(1).advance(15),
	// 0->1 and 0->2 share a NIC and are both due at t=4, the instant node 2
	// suspends. The suspension was scheduled first, so its mark lands on a
	// node carrying a flow due at that very instant — the one case markDirty
	// must not defer — and both flows finish in a cascade inside the watcher.
	"mark-at-due-instant": prog(3).transfer(0, 1, 8, thenRead).transfer(0, 2, 8, thenRead|thenTransfer).
		advance(10).advance(10).flip(2).advance(12),
	// Four equal fetches into node 4 end at t=5 beside a long one. The first
	// completion event finishes the other three in a nested cascade, and each
	// level's pass over node 4 refreshes the long flow again, with the done
	// callbacks' reads in between: four reserved positions, one re-key.
	"refreshed-thrice-one-instant": prog(6).transfer(0, 4, 5, thenRead).transfer(1, 4, 5, thenRead).
		transfer(2, 4, 5, thenRead).transfer(3, 4, 5, thenRead).transfer(5, 4, 11, 0).advance(12).advance(15),
	// f0 (0->2), f1 (1->3) and a local copy f2 on node 0 all end at t=1. f1
	// fires first and its done starts 3->0; node 0 carries flows due now, so
	// that mark settles node 0 on the spot, over the snapshot [f0, 3->0, f2].
	// The pass finishes f0 — and, nested inside, f2 — and f0's done starts
	// 2->3 while the pass still has f2's slot ahead of it. Were the slot free
	// already, 2->3 would take it and the pass would refresh 2->3, a flow that
	// is not on node 0, in f2's place (a mutant that frees slots in finish
	// diverges from the eager model at observation 3, and so does one that
	// reclaims them in a Transfer under a pass).
	"follow-up-inside-pass": prog(4).transfer(0, 2, 5, thenTransfer|12<<2).transfer(1, 3, 5, thenTransfer|12<<2).
		transfer(0, 0, 3, 0),
	// f0 is canceled and f1 started at one instant: the barrier between the
	// two callbacks frees f0's slot, so f1 gets it, and f0's object with it.
	// The cancel that follows goes through f0's handle — an op the eager model
	// ignores, its f0 being finished. A table that handed the object on without
	// a generation would cancel f1 there, and one that checked `finished` on
	// the object would too: f1 has cleared it.
	"stale-cancel-reused-slot": prog(4).transfer(0, 1, 5, 0).cancel(0).transfer(2, 3, 5, thenRead).cancel(0).advance(12),
	// Found by the fuzzer (PR 15) and outside the comparison's domain: the
	// program's clock is a float sum, 16.01 + 2 + 2.5 = 20.509999999999998,
	// and flow f8 (2->1) was planned to end at 20.51, so node 1's flip finds
	// it 3.5e-13 bytes from done without being due. The eager model finishes
	// it inside the watch callback's settle, so the follow-up f17 its done
	// starts arms its stall timer before the callback reaches f16; Network
	// finishes it at the barrier, after. compareWithEager recognises the
	// situation in the eager run and checks invariants only.
	"clock-stops-inside-epsilon": decodeProgram([]byte("29120082910+200722007092200002000091902001000810C07009207929120000221829007070020117200000%9121010909100910+910009920,2000020000918Z929121270920Z0+910")),

	// What a pass leaves to the barrier, one program per branch.
	//
	// Three equal fetches into node 4 end at t=4 beside a long one, in a
	// nested cascade: f0's completion finishes f1 inside its pass over node 4,
	// and that pass finishes f2 inside its own. The innermost pass over node 4
	// leaves it settled, so the 4->5 transfer f2's done starts is answered
	// with a block — and f1's done, next, reads with the block outstanding.
	"repeat-pass-then-read": prog(6).transfer(0, 4, 5, thenRead).transfer(1, 4, 5, thenRead).
		transfer(2, 4, 5, thenTransfer).transfer(5, 4, 11, 0).advance(12).advance(15),
	// The shuffle's shape, a replacement fetch per completion: node 4 serves
	// three equal fetches and a long one, and each done starts x->4. The
	// first of them arrives with two walks of node 4 still on the stack, which
	// go on over their snapshots afterwards and draw later numbers for the
	// flows they still name; the replacement keeps the block's.
	"repeat-pass-under-outer-walk": prog(6).transfer(4, 0, 5, thenTransfer|3<<2).transfer(4, 1, 5, thenTransfer|2<<2).
		transfer(4, 2, 5, thenTransfer|1<<2).transfer(4, 5, 11, 0).advance(12).advance(15),
	// One callback (when run together): the first read walks nodes 0 and 1,
	// the second answers node 1's mark for f1 with a block, and the cancel
	// takes f0 off node 1 while the block still counts it. The pass finish
	// makes draws a new block for the list as it is then.
	"cancel-on-blocked-node": prog(4).transfer(0, 1, 11, 0).read(1).transfer(2, 1, 11, 0).read(1).cancel(0).
		advance(12).advance(15),
	// mark-at-due-instant with a bystander: 0->1 and 0->2 are due at t=4, when
	// node 1 and then node 2 suspend. Node 1's flip finishes both in a cascade,
	// whose pass over node 2 leaves it settled with 3->2 on it (4->5 is there
	// to be the next head: queueing 3->2's completion would unsettle node 2).
	// Node 2's own flip, the next callback of that instant, is then answered
	// with a block, and it is the barrier that finds 3->2 has no rate left.
	"flip-on-settled-node": prog(6).transfer(0, 1, 8, thenRead).transfer(0, 2, 8, thenRead).transfer(3, 2, 11, 0).
		transfer(4, 5, 11, 0).advance(10).advance(10).flip(1).flip(2).advance(12).advance(15),
	// Second domain. 3->4 ends first and stays the queued head, so the barrier
	// after 0->1 starts leaves nodes 0 and 1 settled at t=0; then half a
	// millionth of a byte is to go the same way, which no block can cover: a
	// pass must walk to finish it, or it would be planned and end later.
	"sub-epsilon-onto-settled-node": realProg(5).transfer(3, 4, 6, 0).transfer(0, 1, 9, 0).transfer(0, 1, 1, thenRead).
		advance(4).advance(6),
	// One callback (when run together) at t=1e6: two reads as in
	// cancel-on-blocked-node leave node 1 with a block outstanding, and then a
	// thousandth of a byte arrives, under the floor. The walk that plans it on
	// the spot has to drop the block: it draws later numbers for the flows the
	// block describes, and none the barrier could use for this one.
	"floor-flow-onto-blocked-node": realProg(5).advance(14).transfer(0, 1, 12, 0).read(1).transfer(2, 1, 12, 0).read(1).
		transfer(3, 1, 3, 0).read(1).advance(4).advance(6),
	// TestDueNowSeesPositionReservedThisInstant as a program: at t=1e6 two
	// fetches share node 3's NIC and g is 0.006 bytes longer. When f1 ends, g
	// has more than the epsilon left and, at twice the rate, less than half an
	// ulp of the clock to go: under the floor, so its pass plans it on the
	// spot, at the current instant — where a deferred flow may never be.
	"flow-under-the-floor": realProg(4).advance(14).transfer(1, 3, 9, thenRead|thenTransfer).transfer(2, 3, 10, thenRead).
		advance(4).advance(6),
	// Node 1 is down for good, and at t=2.5e5 a hundred-thousandth of a byte
	// is to leave it: no rate, so nothing to plan, but so little that the
	// flow could not defer if its node came back within the instant. Node 0
	// must not count as settled with it (the fuzzer's input against a mutant
	// that let it; the read is where the harness checks the mark).
	"stalled-flow-under-the-floor": realProg(4).flip(1).advance(12).transfer(1, 0, 2, 0).read(0),
	// Found by the fuzzer the minute the second domain opened: a flow of no
	// more than the epsilon started from a done callback under a settle pass
	// is finished inside Transfer, and the handle Transfer then returned
	// carried the generation finish had already moved on to — the slot's next
	// flow's. The eager model lets the program off the comparison (it finishes
	// such a flow in the same place; top-level it is the other way round); the
	// handle check in between is what failed.
	"sub-epsilon-follow-up-inside-pass": realProg(8).transfer(0, 0, 1, thenTransfer|12<<2).advance(4),

	// The two-level due-set, one program per way an owner's head is lost.
	//
	// Node 3 owns f0 (0->3, due t=2) and f1 (1->3, due t=3). From t=1 node 0
	// sends more and more, and each pass over it re-plans f0 later — node 3 is
	// never passed, so f1 keeps the key it has. With four flows on node 0, f0 is
	// due at t=3 too, behind f1's older number: the rescan that follows the
	// head's re-key picks f1, which no barrier has planned since t=0.
	"rescan-finds-unplanned-flow": prog(6).transfer(0, 3, 5, 0).transfer(1, 3, 7, 0).advance(7).transfer(0, 2, 11, 0).
		transfer(0, 4, 11, 0).transfer(0, 5, 11, 0).advance(10).advance(13),
	// Node 1's only flow ends at t=1 while node 3's runs on: node 1 leaves the
	// heap, node 3 stays and becomes its root.
	"owner-leaves-heap": prog(4).transfer(0, 1, 5, 0).transfer(2, 3, 11, 0).advance(8).advance(13),
}

// compareWithEager runs p one operation a callback against Network (tallying
// into seen) and against the eager reference, and requires the same
// observations. One kind of program is let off that comparison and reported
// as skipped: one where the eager run finished a flow that was within 1e-6
// bytes of its end, but not due, inside the transfer or flip that found it
// (eagerNet.nearEnd). Batched settling finishes that flow at the barrier —
// before the due-set as well as with it — so callbacks of that instant can
// come in another order. Network's own invariants are still checked.
func compareWithEager(t testing.TB, p *program, seen *dueSetCases) (log []string, skipped bool) {
	nearEnd := 0
	want := p.run(t, bindEager(p.config(), &nearEnd), false)
	log = p.run(t, bindNetwork(t, p.config(), seen), false)
	if nearEnd > 0 {
		return log, true
	}
	diffLogs(t, p, want, log)
	return log, false
}

// FuzzNetworkVsEager decodes the input into transfers (remote, local,
// zero-byte), cancels — of flows in flight and, through handles kept past the
// end, of flows that are done — availability flips, reads and clock advances
// over at most eight nodes, runs it against Network and against the eager reference,
// and requires the same observations: every completion's flow, error and
// time, and every Consumed/TotalBytes read, bit for bit.
//
// That comparison runs one operation a callback. With several changes in one
// callback batched settling — with per-flow events, at the commit before the
// due-set, exactly as now — is not tie-for-tie the eager schedule: start a
// local copy on node 0 and then a transfer 1->0 that both end at t=0.5, and
// the eager model's second pass over node 0 schedules the transfer ahead of
// the copy while the single batched pass schedules it behind (this target
// found that in its first second). The shipped figures never hit such a tie;
// the model's order there is defined by the batched pass. So the run with
// operations together has no reference: it checks what can be checked
// without one — the due-set's invariants between callbacks, the panics in
// completionFired and ScheduleReserved, every flow done exactly once.
func FuzzNetworkVsEager(f *testing.F) {
	for _, p := range seedPrograms {
		f.Add(p.bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p := decodeProgram(b)
		compareWithEager(t, p, nil)
		p.run(t, bindNetwork(t, p.config(), nil), true)
	})
}

// TestSeedCorpusCoversDueSetCases keeps the corpus honest: the programs
// named after a situation must actually produce it.
func TestSeedCorpusCoversDueSetCases(t *testing.T) {
	for name, p := range seedPrograms {
		if got := decodeProgram(p.bytes()); !slices.Equal(got.ops, p.ops) || got.nodes != p.nodes {
			t.Fatalf("%s: bytes() does not decode back to the program", name)
		}
	}
	run := func(name string) ([]string, dueSetCases) {
		var seen dueSetCases
		log, _ := compareWithEager(t, seedPrograms[name], &seen)
		return log, seen
	}
	// The comparison's exemption is used by the two programs checked in for
	// its two halves and by no other.
	for name, p := range seedPrograms {
		exempt := name == "clock-stops-inside-epsilon" || name == "sub-epsilon-follow-up-inside-pass"
		if _, skipped := compareWithEager(t, p, nil); skipped != exempt {
			t.Fatalf("%s: skipped the eager comparison = %v", name, skipped)
		}
	}

	log, _ := run("two-due-one-instant")
	doneAt1 := 0
	for _, l := range log {
		if strings.HasPrefix(l, fmt.Sprintf("t=%x done", math.Float64bits(1))) {
			doneAt1++
		}
	}
	if doneAt1 != 2 {
		t.Fatalf("two-due-one-instant: %d completions at t=1, want 2", doneAt1)
	}
	if _, seen := run("displaced-head-fires"); seen.displacedFired != 1 {
		t.Fatalf("displaced-head-fires: %d displaced heads fired, want 1", seen.displacedFired)
	}
	if _, seen := run("cancel-queued-head"); seen.canceledQueuedHead != 1 {
		t.Fatalf("cancel-queued-head: %d cancels hit the queued head, want 1", seen.canceledQueuedHead)
	}
	if _, seen := run("refreshed-thrice-one-instant"); seen.refreshedThrice == 0 || seen.rekeys != seen.refreshes {
		t.Fatalf("refreshed-thrice-one-instant: %d flows seen passed three times at an instant, %d re-keys for %d rates computed, want one each",
			seen.refreshedThrice, seen.rekeys, seen.refreshes)
	}
	if _, seen := run("follow-up-inside-pass"); seen.startedInsidePass == 0 {
		t.Fatal("follow-up-inside-pass: no transfer started under a settle pass with a slot retired")
	}
	log, seen := run("stale-cancel-reused-slot")
	if seen.reusedInInstant != 1 || seen.canceledStale != 1 {
		t.Fatalf("stale-cancel-reused-slot: %d slots reused inside an instant, %d stale cancels, want 1 and 1",
			seen.reusedInInstant, seen.canceledStale)
	}
	if want := fmt.Sprintf("t=%x done f1 2->3 err=<nil>", math.Float64bits(1)); !slices.Contains(log, want) {
		t.Fatalf("stale-cancel-reused-slot: f1 did not complete cleanly at t=1:\n%s", strings.Join(log, "\n"))
	}

	// The branches of the pass/barrier split, each by the program named for it.
	if _, seen := run("repeat-pass-then-read"); seen.repeatPass == 0 || seen.readAfterRepeat == 0 {
		t.Fatalf("repeat-pass-then-read: %d looks found a block outstanding, %d of them reads", seen.repeatPass, seen.readAfterRepeat)
	}
	if _, seen := run("repeat-pass-under-outer-walk"); seen.repeatInsidePass == 0 {
		t.Fatal("repeat-pass-under-outer-walk: no transfer under a settle pass was answered with a block")
	}
	if _, seen := run("flip-on-settled-node"); seen.flipOnSettled != 1 {
		t.Fatalf("flip-on-settled-node: %d flips found their node settled at that instant, want 1", seen.flipOnSettled)
	}
	if _, seen := run("sub-epsilon-onto-settled-node"); seen.subEpsilonOnSettled != 1 {
		t.Fatalf("sub-epsilon-onto-settled-node: %d such transfers, want 1", seen.subEpsilonOnSettled)
	}
	if _, seen := run("flow-under-the-floor"); seen.floorPath == 0 || seen.refreshes <= seen.rekeys {
		t.Fatalf("flow-under-the-floor: %d looks found a flow planned on the spot; %d rates computed for %d re-keys, want more",
			seen.floorPath, seen.refreshes, seen.rekeys)
	}
	if _, seen := run("sub-epsilon-follow-up-inside-pass"); seen.startedInsidePass == 0 {
		t.Fatal("sub-epsilon-follow-up-inside-pass: no transfer started under a settle pass")
	}
	if _, seen := run("rescan-finds-unplanned-flow"); seen.rescanChoseUnplanned != 1 {
		t.Fatalf("rescan-finds-unplanned-flow: %d heads went to a flow no barrier had re-planned, want 1", seen.rescanChoseUnplanned)
	}
	if _, seen := run("owner-leaves-heap"); seen.ownerLeftHeap != 1 {
		t.Fatalf("owner-leaves-heap: %d owners left a heap that others stayed in, want 1", seen.ownerLeftHeap)
	}
	// Two need their operations in one callback, where there is no reference.
	together := func(name string) (seen dueSetCases) {
		p := seedPrograms[name]
		p.run(t, bindNetwork(t, p.config(), &seen), true)
		return seen
	}
	if seen := together("cancel-on-blocked-node"); seen.canceledOnBlocked != 1 {
		t.Fatalf("cancel-on-blocked-node: %d cancels hit a flow on a node with a block outstanding, want 1", seen.canceledOnBlocked)
	}
	if seen := together("floor-flow-onto-blocked-node"); seen.floorFlowOnBlocked != 1 {
		t.Fatalf("floor-flow-onto-blocked-node: %d such transfers, want 1", seen.floorFlowOnBlocked)
	}
}
