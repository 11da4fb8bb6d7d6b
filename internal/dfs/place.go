package dfs

import "slices"

// Placement: target selection for writes and re-replication. Selection is
// deterministic — rotating cursors spread load; candidates are nodes the
// NameNode believes live (its view can lag reality, in which case the
// transfer stalls exactly as the paper describes for I/O sent to nodes not
// yet identified as dead).
//
// MOON's dedicated tier is small beside the volatile one, so a choice within
// a tier walks that tier's id list (FileSystem.dedicated, .volatile) and not
// the fleet. The cursors still count over the whole fleet, one step per call,
// and a tier is entered at its first id at or after the cursor: the nodes come
// up in the order a walk of every DataNode from the cursor would find them.
//
// The choose functions append into a caller-supplied buffer (which may be
// nil) instead of allocating: the write pipeline and the replication scan
// run on every event tick, so placement must not churn the heap. Nodes
// already present in dst are never chosen again, which lets callers build a
// relay plan incrementally in one buffer.

// chooseVolatile appends up to k distinct volatile DataNodes believed live,
// excluding the given holders and anything already in dst, rotating a
// cursor for spread.
func (fs *FileSystem) chooseVolatile(dst []int, k int, exclude []int) []int {
	return fs.chooseTier(dst, k, exclude, fs.volatile, &fs.cursorV)
}

// chooseDedicated appends up to k distinct dedicated DataNodes believed
// live.
func (fs *FileSystem) chooseDedicated(dst []int, k int, exclude []int) []int {
	return fs.chooseTier(dst, k, exclude, fs.dedicated, &fs.cursorD)
}

// chooseAny appends nodes of any type (stock-Hadoop placement).
func (fs *FileSystem) chooseAny(dst []int, k int, exclude []int) []int {
	if k <= 0 {
		return dst
	}
	n := len(fs.dn)
	want, probes := len(dst)+k, 0
	for ; probes < n && len(dst) < want; probes++ {
		if id := (fs.cursorV + probes) % n; fs.placeable(id, exclude, dst) {
			dst = append(dst, id)
		}
	}
	fs.inst.probes.Add(float64(probes))
	fs.cursorV = (fs.cursorV + 1) % n
	return dst
}

func (fs *FileSystem) chooseTier(dst []int, k int, exclude, tier []int, cursor *int) []int {
	if k <= 0 {
		return dst
	}
	at := tierStart(tier, *cursor)
	want, probes := len(dst)+k, 0
	for ; probes < len(tier) && len(dst) < want; probes++ {
		if id := tier[at]; fs.placeable(id, exclude, dst) {
			dst = append(dst, id)
		}
		if at++; at == len(tier) {
			at = 0
		}
	}
	fs.inst.probes.Add(float64(probes))
	*cursor = (*cursor + 1) % len(fs.dn)
	return dst
}

// tierStart is where a walk of the fleet from cursor enters the tier: the
// index of its first id at or after the cursor, or 0 past the last one.
func tierStart(tier []int, cursor int) int {
	at, _ := slices.BinarySearch(tier, cursor)
	if at == len(tier) {
		return 0
	}
	return at
}

// placeable reports whether a new replica may go to the node: believed live
// and in neither list.
func (fs *FileSystem) placeable(id int, exclude, dst []int) bool {
	return fs.dn[id].state == DNLive && !slices.Contains(exclude, id) && !slices.Contains(dst, id)
}

// allDedicatedThrottled reports whether every live dedicated DataNode is
// currently throttled — the condition under which MOON declines dedicated
// copies for opportunistic data (Figure 3's decision process). A tier with
// no live dedicated node at all also declines.
func (fs *FileSystem) allDedicatedThrottled() bool {
	for _, id := range fs.dedicated {
		if v := fs.dn[id]; v.state == DNLive && !v.throttled {
			return false
		}
	}
	return true
}

// pickUnthrottledDedicated returns a live, unthrottled dedicated node for an
// opportunistic write, or -1 when the whole tier is saturated. Nodes in
// either exclusion list are skipped.
func (fs *FileSystem) pickUnthrottledDedicated(exclude, alsoExclude []int) int {
	tier := fs.dedicated
	at := tierStart(tier, fs.cursorD)
	fs.cursorD = (fs.cursorD + 1) % len(fs.dn)
	for probes := 1; probes <= len(tier); probes++ {
		if id := tier[at]; !fs.dn[id].throttled && fs.placeable(id, exclude, alsoExclude) {
			fs.inst.probes.Add(float64(probes))
			return id
		}
		if at++; at == len(tier) {
			at = 0
		}
	}
	fs.inst.probes.Add(float64(len(tier)))
	return -1
}

// sampleThrottle runs Algorithm 1 on every dedicated DataNode: compare the
// freshly measured I/O bandwidth against the window average; a rise that
// stays within the Tb margin means the node has plateaued (saturated), a
// fall below the margin releases it.
func (fs *FileSystem) sampleThrottle() {
	for _, id := range fs.dedicated {
		v := fs.dn[id]
		consumed := fs.net.Consumed(id)
		bw := (consumed - v.lastConsumed) / throttleSampleInterval
		v.lastConsumed = consumed
		fs.throttleStep(v, bw)
	}
}

// throttleStep is Algorithm 1 from the paper: compare the new bandwidth
// sample bw against the average of the past W samples. Rising but within
// the (1+Tb) margin of the average means the node has plateaued: throttle.
// Falling below the (1-Tb) margin releases it. The avg > 0 guard keeps an
// idle node from being declared saturated by zero-vs-zero comparisons.
func (fs *FileSystem) throttleStep(v *dnView, bw float64) {
	const W, Tb = throttleWindow, throttleThreshold
	if len(v.bwWindow) >= W {
		avg := 0.0
		for _, x := range v.bwWindow[len(v.bwWindow)-W:] {
			avg += x
		}
		avg /= float64(W)
		if bw > avg && avg > 0 && bw >= throttleFloor {
			if !v.throttled && bw < avg*(1+Tb) {
				v.throttled = true
			}
		}
		if bw < avg {
			if v.throttled && bw < avg*(1-Tb) {
				v.throttled = false
			}
		}
	}
	v.bwWindow = append(v.bwWindow, bw)
	if len(v.bwWindow) > 4*W { // bound memory
		v.bwWindow = append(v.bwWindow[:0], v.bwWindow[len(v.bwWindow)-W:]...)
	}
}
