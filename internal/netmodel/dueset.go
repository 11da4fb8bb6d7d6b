package netmodel

import "repro/internal/sim"

// The due-set is the network's ordered set of pending flow completions: every
// flow that has a rate, at the (at, seq) queue position the barrier last stored
// for it. The flows of one sink are re-planned together and only the earliest
// can be the simulation's next event, so the set has two levels. A flow holds
// its stored key (flow.key, keyed) and is owned by its destination, a local
// copy by its node; the owner records the earliest stored key among the flows
// it owns (nodeState.head, headSlot); dueHeap orders the owners that have one.
//
// Storing a key is one compare against the owner's head and moves nothing. A
// key that becomes its owner's head leaves the owner's heap entry stale; a head
// re-keyed later, or taken out of the set, leaves the head itself unknown too.
// dueHead, the one place the order is read, first brings stale owners up to
// date: it walks a rescan owner's remote and local lists once for the earliest
// key it owns, and sifts each owner once, however many of its flows moved.
//
// The order is that of the stored keys, not of flow.due: a refresh under the
// floor rewrites flow.due on the spot, and until the barrier stores it the set
// answers as the queue it stands for would, from the positions it was told.

type dueKey struct {
	at  sim.Time
	seq uint64
}

// before is a strict total order: no two flows hold one seq.
func (a *dueKey) before(b *dueKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// key stores r as the flow's position in the set, which the flow enters if new.
func (n *Network) key(f *flow, r sim.Reservation) {
	f.key, f.keyed = dueKey{r.At(), r.Seq()}, true
	o := &n.nodes[f.dst]
	switch {
	case o.headSlot == f.slot && o.head.before(&f.key):
		n.staleOwner(f.dst, o, true)
	case o.headSlot == f.slot || o.headSlot < 0 || f.key.before(&o.head):
		o.head, o.headSlot = f.key, f.slot
		n.staleOwner(f.dst, o, false)
	}
}

// unkey takes the flow out of the set; one that is not in it is left alone.
func (n *Network) unkey(f *flow) {
	if o := &n.nodes[f.dst]; f.keyed && o.headSlot == f.slot {
		n.staleOwner(f.dst, o, true)
	}
	f.keyed = false
}

// staleOwner lists the owner for dueHead: the heap does not hold it under its
// head, which with rescan is the key stored since (if any) or one a walk finds.
func (n *Network) staleOwner(id int32, o *nodeState, rescan bool) {
	if rescan {
		o.rescan, o.headSlot = true, -1
	}
	if !o.stale {
		o.stale = true
		n.stale = append(n.stale, id)
	}
}

// dueHead returns the slot of the flow whose completion comes first and the
// time of that completion, or -1 and -1.
func (n *Network) dueHead() (slot int32, at sim.Time) {
	for _, id := range n.stale {
		o := &n.nodes[id]
		if o.rescan {
			for _, slots := range [2][]int32{o.remote, o.local} {
				for _, s := range slots {
					if f := n.flows[s]; f.keyed && f.dst == id && (o.headSlot < 0 || f.key.before(&o.head)) {
						o.head, o.headSlot = f.key, s
					}
				}
			}
			n.mRescans.Inc()
			n.mVisits.Add(float64(len(o.remote) + len(o.local)))
		}
		o.stale, o.rescan = false, false
		if o.headSlot < 0 {
			n.due.remove(id)
		} else {
			n.due.fix(dueEntry{o.head, id})
		}
	}
	n.stale = n.stale[:0]
	if len(n.due.es) == 0 {
		return -1, -1
	}
	return n.nodes[n.due.es[0].id].headSlot, n.due.es[0].at
}

// dueHeap is an indexed binary min-heap of keys. Entries hold their key inline
// and name its holder, a node, by id, so a sift compares and moves plain
// words: no pointer is loaded and no write barrier is taken. idx maps an id to
// its heap position (-1 outside the heap), which is what lets a re-key sift in
// place and a removal find its entry.
type dueHeap struct {
	es  []dueEntry
	idx []int32
}

type dueEntry struct {
	dueKey
	id int32
}

// fix gives e.id's entry e's key, inserting it if the id is not in the heap.
func (d *dueHeap) fix(e dueEntry) {
	i := int(d.idx[e.id])
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

// remove takes the id out of the heap; one that is not in it is left alone.
func (d *dueHeap) remove(id int32) {
	i := int(d.idx[id])
	if i < 0 {
		return
	}
	last := len(d.es) - 1
	moved := d.es[last]
	d.es = d.es[:last]
	d.idx[id] = -1
	if i == last {
		return
	}
	d.es[i] = moved
	if !d.up(i) {
		d.down(i)
	}
}

// up sifts position i towards the root and reports whether it moved.
func (d *dueHeap) up(i int) bool {
	e := d.es[i]
	start := i
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&d.es[p].dueKey) {
			break
		}
		d.es[i] = d.es[p]
		d.idx[d.es[i].id] = int32(i)
		i = p
	}
	d.es[i] = e
	d.idx[e.id] = int32(i)
	return i != start
}

// down sifts position i towards the leaves.
func (d *dueHeap) down(i int) {
	e := d.es[i]
	n := len(d.es)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && d.es[r].before(&d.es[c].dueKey) {
			c = r
		}
		if !d.es[c].before(&e.dueKey) {
			break
		}
		d.es[i] = d.es[c]
		d.idx[d.es[i].id] = int32(i)
		i = c
	}
	d.es[i] = e
	d.idx[e.id] = int32(i)
}
