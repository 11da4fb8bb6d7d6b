package netmodel

import "repro/internal/sim"

// dueSet is the network's ordered set of pending flow completions: an
// indexed binary min-heap of the flows that currently have a rate. Entries
// hold their key inline — the (at, seq) queue position the flow reserved,
// copied in when the network's barrier (or an insert) sifts it — and name
// the flow by its slot in the network's flow table, so a sift compares and
// moves plain words: no *flow is loaded and no write barrier is taken. idx
// maps a slot to its heap position (-1 outside the set), which is what lets
// a re-key sift in place and a removal find its entry.
//
// Between two barriers a stored key can be older than its flow.due;
// the heap is ordered by the stored keys throughout, and nothing but the
// head's time is read from it until the barrier has brought them up to date.
type dueSet struct {
	es  []dueEntry
	idx []int32
}

type dueEntry struct {
	at   sim.Time
	seq  uint64
	slot int32
}

func (a *dueEntry) before(b *dueEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// head returns the slot of the flow whose completion comes first, or -1.
func (d *dueSet) head() int32 {
	if len(d.es) == 0 {
		return -1
	}
	return d.es[0].slot
}

// fix moves the slot's entry to position r, inserting it if the slot is not
// in the set.
func (d *dueSet) fix(slot int32, r sim.Reservation) {
	e := dueEntry{at: r.At(), seq: r.Seq(), slot: slot}
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
func (d *dueSet) remove(slot int32) {
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

// up sifts position i towards the root and reports whether it moved.
func (d *dueSet) up(i int) bool {
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

// down sifts position i towards the leaves.
func (d *dueSet) down(i int) {
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
