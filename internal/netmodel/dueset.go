package netmodel

// dueSet is the network's ordered set of pending flow completions: an
// indexed binary min-heap of the flows that currently have a rate, keyed by
// the queue position (Flow.due) each reserved at its last rate change. A
// flow knows its slot (Flow.dueIdx, -1 outside the set), so a rate change
// re-keys it in place with one sift instead of a removal and an insert.
type dueSet struct {
	fs []*Flow
}

// head returns the flow whose completion comes first, or nil.
func (d *dueSet) head() *Flow {
	if len(d.fs) == 0 {
		return nil
	}
	return d.fs[0]
}

// fix restores heap order after f.due changed, inserting f if it is not in
// the set.
func (d *dueSet) fix(f *Flow) {
	if f.dueIdx < 0 {
		f.dueIdx = len(d.fs)
		d.fs = append(d.fs, f)
		d.up(f.dueIdx)
		return
	}
	if !d.up(f.dueIdx) {
		d.down(f.dueIdx)
	}
}

// remove takes f out of the set; a flow that is not in it is left alone.
func (d *dueSet) remove(f *Flow) {
	i := f.dueIdx
	if i < 0 {
		return
	}
	last := len(d.fs) - 1
	moved := d.fs[last]
	d.fs[last] = nil
	d.fs = d.fs[:last]
	f.dueIdx = -1
	if i == last {
		return
	}
	d.fs[i] = moved
	moved.dueIdx = i
	if !d.up(i) {
		d.down(i)
	}
}

// up sifts slot i towards the root and reports whether it moved.
func (d *dueSet) up(i int) bool {
	f := d.fs[i]
	start := i
	for i > 0 {
		p := (i - 1) / 2
		if !f.due.Before(d.fs[p].due) {
			break
		}
		d.fs[i] = d.fs[p]
		d.fs[i].dueIdx = i
		i = p
	}
	d.fs[i] = f
	f.dueIdx = i
	return i != start
}

// down sifts slot i towards the leaves.
func (d *dueSet) down(i int) {
	f := d.fs[i]
	n := len(d.fs)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && d.fs[r].due.Before(d.fs[c].due) {
			c = r
		}
		if !d.fs[c].due.Before(f.due) {
			break
		}
		d.fs[i] = d.fs[c]
		d.fs[i].dueIdx = i
		i = c
	}
	d.fs[i] = f
	f.dueIdx = i
}
