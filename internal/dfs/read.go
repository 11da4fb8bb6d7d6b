package dfs

import (
	"repro/internal/cluster"
	"repro/internal/netmodel"
)

// ReadBlock transfers bytes of the block to the reading node from the best
// live replica. bytes <= 0 reads the whole block (shuffle fetches read only
// the reducer's partition, a fraction of the block).
//
// Replica choice implements MOON's read prioritization: a local replica is
// free-est, and a volatile reader prefers volatile replicas, touching
// dedicated DataNodes only when no volatile copy is believed live. exclude
// lists replica holders the caller already failed against (fetch retry
// state).
//
// The NameNode's view can lag reality; a read directed at a node that is
// actually down stalls and eventually fails with netmodel.ErrStalled, which
// the caller sees via done. If no candidate exists at all, ReadBlock
// returns ErrNoReplica synchronously and done never fires.
//
// done receives tag back untouched, with the source read from: a caller with
// many reads in flight (a shuffle, one per map) tells them apart by it and
// passes the same callback for all of them, not a closure a read.
func (fs *FileSystem) ReadBlock(from *cluster.Node, id BlockID, bytes float64, exclude []int, tag int, done func(tag, src int, err error)) (netmodel.Flow, error) {
	b := fs.lookupBlock(id)
	if b == nil {
		return netmodel.Flow{}, ErrUnknownFile
	}
	if bytes <= 0 || bytes > b.Size {
		bytes = b.Size
	}
	src := fs.pickReadSource(from, b, exclude)
	if src < 0 {
		fs.Metrics.FetchFailures++
		fs.inst.fetchFailures.IncAt(fs.sim.Now())
		return netmodel.Flow{}, ErrNoReplica
	}
	flow := fs.net.Transfer(fs.dn[src].node, from, bytes, func(err error) {
		if err == netmodel.ErrStalled {
			fs.Metrics.ReadStalls++
			fs.inst.readStalls.IncAt(fs.sim.Now())
		}
		if err == nil {
			fs.inst.readBytes.AddAt(fs.sim.Now(), bytes)
		}
		done(tag, src, err)
	})
	return flow, nil
}

// pickReadSource returns the chosen replica holder, or -1. It iterates the
// block's replica list directly — this runs for every shuffle fetch and
// input read, so it must not allocate a candidate slice per call.
func (fs *FileSystem) pickReadSource(from *cluster.Node, b *Block, exclude []int) int {
	// Local fast path.
	for _, id := range b.replicas {
		if id == from.ID && fs.dn[id].state == DNLive && !containsInt(exclude, id) {
			return id
		}
	}
	best, bestTier, bestLoad := -1, 1<<30, 1<<30
	for _, id := range b.replicas {
		if fs.dn[id].state != DNLive || containsInt(exclude, id) {
			continue
		}
		tier := 0
		if fs.cfg.Mode == ModeMOON && !from.IsDedicated() && fs.dn[id].dedicated {
			// Volatile readers spare the dedicated tier.
			tier = 1
		}
		load := fs.net.ActiveFlows(id)
		if tier < bestTier || (tier == bestTier && (load < bestLoad || (load == bestLoad && id < best))) {
			best, bestTier, bestLoad = id, tier, load
		}
	}
	return best
}

// ReadFile reads every block of the file to the node sequentially; done
// fires once with the first error or nil after the last block. Convenience
// for clients that consume whole files (e.g. output validation).
func (fs *FileSystem) ReadFile(from *cluster.Node, name string, done func(error)) error {
	f := fs.files[name]
	if f == nil {
		return ErrUnknownFile
	}
	var step func(i, src int, err error)
	step = func(i, _ int, err error) {
		if err != nil || i >= len(f.Blocks) {
			done(err)
			return
		}
		// Block i's read reports as i+1: the next block to read.
		if _, err := fs.ReadBlock(from, f.Blocks[i].ID, 0, nil, i+1, step); err != nil {
			done(err)
		}
	}
	step(0, -1, nil)
	return nil
}
