package netmodel

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// --- the reference: one heap entry a flow -------------------------------------

// flowHeap is the due-set as it was before it had two levels, kept here as
// the reference: an indexed binary min-heap with one entry for every flow in
// the set, keyed inline and sifted on every re-key. It shares no code with
// dueHeap or with Network's key, unkey and dueHead.
type flowHeap struct {
	es  []flowEntry
	idx []int32
}

type flowEntry struct {
	at   sim.Time
	seq  uint64
	slot int32
}

func (a *flowEntry) before(b *flowEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// head returns the slot of the flow whose completion comes first, or -1.
func (d *flowHeap) head() int32 {
	if len(d.es) == 0 {
		return -1
	}
	return d.es[0].slot
}

// fix moves the slot's entry to (at, seq), inserting it if the slot is not in
// the set.
func (d *flowHeap) fix(slot int32, at sim.Time, seq uint64) {
	e := flowEntry{at: at, seq: seq, slot: slot}
	i := int(d.idx[slot])
	if i < 0 {
		i = len(d.es)
		d.es = append(d.es, e)
		d.up(i)
		return
	}
	d.es[i] = e
	if !d.up(i) {
		d.down(i)
	}
}

// remove takes the slot out of the set; one that is not in it is left alone.
func (d *flowHeap) remove(slot int32) {
	i := int(d.idx[slot])
	if i < 0 {
		return
	}
	last := len(d.es) - 1
	moved := d.es[last]
	d.es = d.es[:last]
	d.idx[slot] = -1
	if i == last {
		return
	}
	d.es[i] = moved
	if !d.up(i) {
		d.down(i)
	}
}

func (d *flowHeap) up(i int) bool {
	e := d.es[i]
	start := i
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&d.es[p]) {
			break
		}
		d.es[i] = d.es[p]
		d.idx[d.es[i].slot] = int32(i)
		i = p
	}
	d.es[i] = e
	d.idx[e.slot] = int32(i)
	return i != start
}

func (d *flowHeap) down(i int) {
	e := d.es[i]
	n := len(d.es)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && d.es[r].before(&d.es[c]) {
			c = r
		}
		if !d.es[c].before(&e) {
			break
		}
		d.es[i] = d.es[c]
		d.idx[d.es[i].slot] = int32(i)
		i = c
	}
	d.es[i] = e
	d.idx[e.slot] = int32(i)
}

// --- op streams ---------------------------------------------------------------

// A due program is a node count and a stream of operations on the due-set of
// a network that carries one flow for every ordered pair of nodes: flow i goes
// from node i/nodes to node i%nodes, so each node owns one local copy and a
// remote flow from every other node, and each node's remote list names the
// flows it sends as well — which a rescan has to pass over.
const (
	dueKeyOp     = iota // flow, time index | dueEarlySeq
	dueUnkey            // flow
	dueUnkeyHead        // the reference's head, which costs the set no query
	dueQuery            // head and head time, compared
	dueOpKinds
	dueEarlySeq = 0x80 // a seq below every seq drawn so far, not above
)

// dueTimes are the completion times keys are drawn from: few, so that keys
// collide on at and seq decides.
var dueTimes = [8]sim.Time{1, 1, 2, 2.5, 3, 5, 8, 13}

type dueOp struct{ kind, a, b int }

type dueProgram struct {
	nodes int
	ops   []dueOp
}

func dueProg(nodes int) *dueProgram { return &dueProgram{nodes: nodes} }

func (p *dueProgram) do(kind, a, b int) *dueProgram {
	p.ops = append(p.ops, dueOp{kind, a, b})
	return p
}
func (p *dueProgram) key(flow, time int) *dueProgram { return p.do(dueKeyOp, flow, time) }
func (p *dueProgram) unkey(flow int) *dueProgram     { return p.do(dueUnkey, flow, 0) }
func (p *dueProgram) unkeyHead() *dueProgram         { return p.do(dueUnkeyHead, 0, 0) }
func (p *dueProgram) query() *dueProgram             { return p.do(dueQuery, 0, 0) }

func (p *dueProgram) bytes() []byte {
	b := []byte{byte(p.nodes - 3)}
	for _, o := range p.ops {
		b = append(b, byte(o.kind), byte(o.a), byte(o.b))
	}
	return b
}

func decodeDueProgram(b []byte) *dueProgram {
	if len(b) == 0 {
		return dueProg(3)
	}
	p := dueProg(3 + int(b[0])%2)
	for b = b[1:]; len(b) >= 3 && len(p.ops) < 512; b = b[3:] {
		p.ops = append(p.ops, dueOp{int(b[0]) % dueOpKinds, int(b[1]), int(b[2])})
	}
	return p
}

// dueCases counts the situations the seed corpus must contain.
type dueCases struct {
	keyed, rekeyedEarlier, rekeyedLater, rekeyedEqualAt int
	unkeyedHead, unkeyedOther, unkeyedAbsent            int
	localHead                                           int // a query found a local copy at the head
	headsLost                                           int // a query came with two or more owners awaiting a rescan
	emptied                                             int // a query found the set empty after it had held flows
}

// run drives the program through Network's two-level set and through the
// flow heap, and requires the same head and head time at every query and at
// the end; after each query the heap of owners must be what the stored keys
// imply.
func (p *dueProgram) run(t testing.TB) (seen dueCases) {
	n := &Network{sim: sim.New(), nodes: make([]nodeState, p.nodes), due: dueHeap{idx: make([]int32, p.nodes)}}
	n.sim.DrawOrder(1 << 33) // every seq below is one the simulation has handed out
	for id := range n.nodes {
		n.nodes[id].headSlot, n.due.idx[id] = -1, -1
	}
	ref := flowHeap{idx: make([]int32, p.nodes*p.nodes)}
	for i := range ref.idx {
		f := &flow{slot: int32(i), src: int32(i / p.nodes), dst: int32(i % p.nodes)}
		n.flows = append(n.flows, f)
		ref.idx[i] = -1
		if f.local() {
			n.nodes[f.src].local = append(n.nodes[f.src].local, f.slot)
		} else {
			n.nodes[f.src].remote = append(n.nodes[f.src].remote, f.slot)
			n.nodes[f.dst].remote = append(n.nodes[f.dst].remote, f.slot)
		}
	}
	late, early := uint64(1<<32), uint64(1<<32)
	query := func(i int) {
		rescans := 0
		for _, id := range n.stale {
			if n.nodes[id].rescan {
				rescans++
			}
		}
		if rescans >= 2 {
			seen.headsLost++
		}
		slot, at := n.dueHead()
		if want := ref.head(); slot != want || want >= 0 && at != ref.es[0].at {
			t.Fatalf("op %d: head is slot %d at %v, the flow heap's is slot %d (%v)\nprogram: %+v", i, slot, at, want, ref.es, *p)
		}
		switch {
		case slot < 0 && seen.keyed > 0:
			seen.emptied++
		case slot >= 0 && n.flows[slot].local():
			seen.localHead++
		}
		checkOwners(t, n)
	}
	for i, o := range p.ops {
		f := n.flows[o.a%len(n.flows)]
		switch o.kind {
		case dueKeyOp:
			seq := late
			if late++; o.b&dueEarlySeq != 0 {
				early--
				seq = early
			}
			at := dueTimes[o.b%len(dueTimes)]
			switch {
			case !f.keyed:
				seen.keyed++
			case at < f.key.at:
				seen.rekeyedEarlier++
			case at > f.key.at:
				seen.rekeyedLater++
			default:
				seen.rekeyedEqualAt++
			}
			n.key(f, n.sim.ReservedAt(at, seq))
			ref.fix(f.slot, at, seq)
		case dueUnkeyHead:
			if ref.head() < 0 {
				continue
			}
			f = n.flows[ref.head()]
			fallthrough
		case dueUnkey:
			switch {
			case !f.keyed:
				seen.unkeyedAbsent++
			case f.slot == ref.head():
				seen.unkeyedHead++
			default:
				seen.unkeyedOther++
			}
			n.unkey(f)
			ref.remove(f.slot)
		case dueQuery:
			query(i)
		}
		if f.keyed != (ref.idx[f.slot] >= 0) {
			t.Fatalf("op %d: flow %d keyed=%v, in the flow heap: %v", i, f.slot, f.keyed, ref.idx[f.slot] >= 0)
		}
	}
	query(len(p.ops))
	return seen
}

// checkOwners holds the heap of owners to the stored keys, with no owner
// stale: every node's head is the earliest key it owns, a node is in the heap
// iff it has a head, at the position it records and keyed by that head, and
// heap order holds. It returns the number of keyed flows.
func checkOwners(t testing.TB, n *Network) (keyed int) {
	t.Helper()
	if len(n.stale) != 0 {
		t.Fatalf("%d owners left stale", len(n.stale))
	}
	for id := range n.nodes {
		st := &n.nodes[id]
		best := int32(-1)
		for _, slot := range append(slices.Clone(st.remote), st.local...) {
			if f := n.flows[slot]; f.keyed && int(f.dst) == id {
				keyed++
				if best < 0 || f.key.before(&n.flows[best].key) {
					best = slot
				}
			}
		}
		if st.stale || st.rescan || st.headSlot != best || best >= 0 && st.head != n.flows[best].key {
			t.Fatalf("node %d records head slot %d at %+v (stale %v, rescan %v), the earliest key it owns is slot %d's",
				id, st.headSlot, st.head, st.stale, st.rescan, best)
		}
		i := n.due.idx[id]
		if (i >= 0) != (best >= 0) {
			t.Fatalf("node %d has head slot %d and heap position %d", id, best, i)
		}
		if i >= 0 && (int(i) >= len(n.due.es) || n.due.es[i] != dueEntry{st.head, int32(id)}) {
			t.Fatalf("node %d indexed at heap position %d, which does not hold it under its head's key", id, i)
		}
	}
	for i, e := range n.due.es {
		if n.due.idx[e.id] != int32(i) {
			t.Fatalf("heap position %d holds node %d, indexed at %d", i, e.id, n.due.idx[e.id])
		}
		if i > 0 && e.before(&n.due.es[(i-1)/2].dueKey) {
			t.Fatalf("heap position %d sorts before its parent", i)
		}
	}
	return keyed
}

// dueSeeds is the checked-in corpus, one program per situation. Over three
// nodes flow 3s+d goes s->d: node 0 owns 0 (local), 3 and 6.
var dueSeeds = map[string]*dueProgram{
	// Node 0's flows keyed latest first: each becomes the head by compare.
	"rekey-earlier-takes-head": dueProg(3).key(6, 5).query().key(3, 4).key(0, 2).query().key(6, 0).query(),
	// The head is re-keyed later and a flow nothing touched is found by rescan.
	"rekey-later-rescans": dueProg(3).key(3, 2).key(6, 4).key(4, 5).query().key(3, 6).query(),
	// Equal at on one owner and across owners: seq decides, both ways.
	"equal-at-other-seq": dueProg(3).key(3, 2).key(6, 2).key(4, 2).query().key(6, 2|dueEarlySeq).query().
		key(4, 2|dueEarlySeq).query().key(4, 2).query(),
	// The head, a flow behind it and a flow that is not in the set are removed.
	"unkey-head-other-absent": dueProg(3).key(3, 0).key(6, 2).key(4, 3).unkey(6).query().unkeyHead().query().
		unkey(8).unkey(4).query(),
	// Three owners lose their heads, one of them twice, before anyone asks.
	"heads-lost-before-query": dueProg(4).key(4, 0).key(8, 2).key(5, 0).key(9, 3).key(6, 2).key(14, 4).query().
		unkeyHead().unkeyHead().unkeyHead().unkeyHead().query(),
	// A local copy at the head, removed, its owner re-keyed before the rescan.
	"local-copy-heads": dueProg(3).key(0, 0).key(3, 2).key(4, 4).query().unkey(0).key(6, 1).query(),
	// The set drains: every owner leaves the heap, and one comes back.
	"drained-and-refilled": dueProg(3).key(3, 2).key(4, 3).query().unkeyHead().unkeyHead().query().key(3, 5).query(),
}

const dueCorpusDir = "testdata/fuzz/FuzzDueSetVsHeap"

// TestDueSetCorpus keeps the corpus honest: each file is the program of its
// name, and the programs named after a situation produce it. With
// MOON_WRITE_DUESET_CORPUS set it writes the files instead.
func TestDueSetCorpus(t *testing.T) {
	for name, p := range dueSeeds {
		if got := decodeDueProgram(p.bytes()); got.nodes != p.nodes || !slices.Equal(got.ops, p.ops) {
			t.Fatalf("%s: bytes() does not decode back to the program", name)
		}
		path := filepath.Join(dueCorpusDir, name)
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p.bytes())
		if os.Getenv("MOON_WRITE_DUESET_CORPUS") != "" {
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != file {
			t.Errorf("%s: the corpus file is not this program (%v)", name, err)
		}
	}
	reaches := func(name string, reached func(dueCases) bool) {
		t.Helper()
		if seen := dueSeeds[name].run(t); !reached(seen) {
			t.Errorf("%s does not reach its case: %+v", name, seen)
		}
	}
	reaches("rekey-earlier-takes-head", func(c dueCases) bool { return c.keyed == 3 && c.rekeyedEarlier == 1 })
	reaches("rekey-later-rescans", func(c dueCases) bool { return c.rekeyedLater == 1 })
	reaches("equal-at-other-seq", func(c dueCases) bool { return c.rekeyedEqualAt == 3 })
	reaches("unkey-head-other-absent", func(c dueCases) bool {
		return c.unkeyedHead == 2 && c.unkeyedOther == 1 && c.unkeyedAbsent == 1 && c.emptied > 0
	})
	reaches("heads-lost-before-query", func(c dueCases) bool { return c.unkeyedHead == 4 && c.headsLost == 1 })
	reaches("local-copy-heads", func(c dueCases) bool { return c.localHead == 1 })
	reaches("drained-and-refilled", func(c dueCases) bool { return c.emptied == 1 && c.keyed == 3 })
}

// FuzzDueSetVsHeap decodes the input into keys stored (new, earlier, later, at
// an equal time under another seq), removals (of the head, of a flow behind
// it, of a flow that is not in the set) and queries over the flows of three or
// four nodes, local copies among them, and runs it through the two-level
// due-set and through the flow heap it replaced: the same head slot and head
// time at every query, however many heads were lost since the last one.
func FuzzDueSetVsHeap(f *testing.F) {
	for _, p := range dueSeeds {
		f.Add(p.bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeDueProgram(b).run(t)
	})
}

// TestHeapHoldsOwnersNotFlows is the structural gate of the two-level set: 64
// flows into one sink and 8 into another are two heap entries, a non-head
// flow's re-key moves neither, and a sink whose flows are all canceled leaves.
func TestHeapHoldsOwnersNotFlows(t *testing.T) {
	s := sim.New()
	c := cluster.New(s, cluster.Config{DedicatedNodes: 2 + 64 + 8})
	n := New(s, c, simpleCfg())
	var wide, narrow []Flow
	for j := 0; j < 64; j++ {
		wide = append(wide, n.Transfer(c.Node(2+j), c.Node(0), float64(1000+j), func(error) {}))
	}
	for j := 0; j < 8; j++ {
		narrow = append(narrow, n.Transfer(c.Node(66+j), c.Node(1), float64(5000+j), func(error) {}))
	}
	s.RunUntil(0.5)
	if keyed := checkOwners(t, n); keyed != 72 || len(n.due.es) != 2 {
		t.Fatalf("%d flows keyed under %d heap entries, want 72 under 2", keyed, len(n.due.es))
	}
	heap := slices.Clone(n.due.es)
	for _, h := range append(wide[1:], narrow[1:]...) {
		f := n.lookup(h)
		n.key(f, s.ReservedAt(f.key.at+1, f.key.seq))
		if len(n.stale) != 0 || !slices.Equal(n.due.es, heap) {
			t.Fatalf("re-keying slot %d, which is not a head, left owners %v stale and the heap %v, was %v", f.slot, n.stale, n.due.es, heap)
		}
	}
	s.Schedule(1, "cancel", func() {
		for _, h := range narrow {
			n.Cancel(h)
		}
	})
	s.RunUntil(1.5)
	if keyed := checkOwners(t, n); keyed != 64 || len(n.due.es) != 1 || n.due.es[0].id != 0 {
		t.Fatalf("%d flows keyed under heap %v, want 64 under node 0 alone", keyed, n.due.es)
	}
}
