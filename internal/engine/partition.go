package engine

import "strings"

// partition is intermediate data in the one form it takes between a map's
// emit and a reduce's ReduceFunc — a worker's store, a fetch reply, a
// reduce's merged input: distinct keys in first-seen order and one flat
// values slice in which key i owns vals[ends[i-1]:ends[i]]. It is built
// once, at its final size, and never written again.
type partition struct {
	keys []string
	ends []int
	vals []string
}

// values returns key i's values, capacity-limited so a ReduceFunc that
// appends to them cannot write into the next key's.
func (p partition) values(i int) []string {
	a := 0
	if i > 0 {
		a = p.ends[i-1]
	}
	return p.vals[a:p.ends[i]:p.ends[i]]
}

// grouper is the scratch both sides of the shuffle group values with: keys
// get dense ids in first-seen order, a count per id sizes the output, and
// the count then becomes the key's write cursor. It belongs to the
// goroutine that executes attempts (worker.run makes it), not to the worker
// value, which peers and the master also reach. Reused from attempt to
// attempt, a steady job stream allocates what it stores and no more.
type grouper struct {
	ids   map[string]int // key → id
	keys  []string       // id → key
	count []int          // id → values counted, then the write cursor
	part  []int          // id → reduce partition (map side)
	log   []emission     // map side: every emission, in order
}

type emission struct {
	key int
	val string
}

func newGrouper() *grouper { return &grouper{ids: make(map[string]int)} }

// reset empties the grouper after an attempt, so that it pins none of its
// keys and values; scratch an outsized attempt grew (past 1.5 MB of log) is
// dropped, not kept for the life of the worker.
func (g *grouper) reset() {
	if max(len(g.log), len(g.keys)) > 1<<16 {
		*g = *newGrouper()
		return
	}
	clear(g.ids)
	clear(g.keys)
	clear(g.log)
	g.keys, g.count, g.part, g.log = g.keys[:0], g.count[:0], g.part[:0], g.log[:0]
}

// id returns key's dense id. The first sight of a key assigns the next id,
// routes the key to its reduce partition, and clones it: a MapFunc emits
// substrings of its split, and neither a stored partition nor a result map
// (whose keys these become) may keep a split alive through one word of it.
func (g *grouper) id(key string, reduces int) int {
	id, ok := g.ids[key]
	if !ok {
		id = len(g.keys)
		key = strings.Clone(key)
		g.ids[key] = id
		g.keys = append(g.keys, key)
		g.count = append(g.count, 0)
		g.part = append(g.part, partitionOf(key, reduces))
	}
	return id
}

// emit records one map emission.
func (g *grouper) emit(key, value string, reduces int) {
	id := g.id(key, reduces)
	g.count[id]++
	g.log = append(g.log, emission{id, value})
}

// split lays the recorded emissions out one partition per reduce, every
// slice allocated at its final size, keys and values in emission order.
func (g *grouper) split(reduces int) []partition {
	nKeys, nVals := make([]int, reduces), make([]int, reduces)
	for id, p := range g.part {
		nKeys[p]++
		nVals[p] += g.count[id]
	}
	parts := make([]partition, reduces)
	for p := range parts {
		parts[p] = partition{
			keys: make([]string, 0, nKeys[p]),
			ends: make([]int, 0, nKeys[p]),
			vals: make([]string, nVals[p]),
		}
		nVals[p] = 0 // from here on, how much of vals is laid out
	}
	for id, p := range g.part {
		n := g.count[id]
		g.count[id] = nVals[p]
		nVals[p] += n
		parts[p].keys = append(parts[p].keys, g.keys[id])
		parts[p].ends = append(parts[p].ends, nVals[p])
	}
	for _, e := range g.log {
		parts[g.part[e.key]].vals[g.count[e.key]] = e.val
		g.count[e.key]++
	}
	return parts
}

// merge groups the sources' values by key in two passes — count per key,
// then copy into one exact slice — so a key's values come in source order,
// then emission order. The result's keys and ends are the grouper's own.
func (g *grouper) merge(srcs []partition) partition {
	for _, src := range srcs {
		for i, k := range src.keys {
			g.count[g.id(k, 1)] += len(src.values(i))
		}
	}
	total := 0
	for id, n := range g.count {
		g.count[id] = total
		total += n
	}
	vals := make([]string, total)
	for _, src := range srcs {
		for i, k := range src.keys {
			id := g.ids[k]
			g.count[id] += copy(vals[g.count[id]:], src.values(i))
		}
	}
	return partition{keys: g.keys, ends: g.count, vals: vals}
}

// partitionOf routes a key to a reduce partition: 32-bit FNV-1a, written
// out so that routing allocates nothing (TestPartitionOfMatchesFNV pins it
// to hash/fnv: a partition that moved would change a key's reducer).
func partitionOf(key string, reduces int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(reduces))
}
