package dfs

// Placement: target selection for writes and re-replication. Selection is
// deterministic — rotating cursors spread load; candidates are nodes the
// NameNode believes live (its view can lag reality, in which case the
// transfer stalls exactly as the paper describes for I/O sent to nodes not
// yet identified as dead).
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
	return fs.choose(dst, k, exclude, func(v *dnView) bool {
		return !v.dedicated
	}, &fs.cursorV)
}

// chooseDedicated appends up to k distinct dedicated DataNodes believed
// live.
func (fs *FileSystem) chooseDedicated(dst []int, k int, exclude []int) []int {
	return fs.choose(dst, k, exclude, func(v *dnView) bool {
		return v.dedicated
	}, &fs.cursorD)
}

// chooseAny appends nodes of any type (stock-Hadoop placement).
func (fs *FileSystem) chooseAny(dst []int, k int, exclude []int) []int {
	return fs.choose(dst, k, exclude, func(*dnView) bool { return true }, &fs.cursorV)
}

func (fs *FileSystem) choose(dst []int, k int, exclude []int, eligible func(*dnView) bool, cursor *int) []int {
	if k <= 0 {
		return dst
	}
	n := len(fs.dn)
	chosen := 0
	for probe := 0; probe < n && chosen < k; probe++ {
		id := (*cursor + probe) % n
		v := fs.dn[id]
		if v.state != DNLive || !eligible(v) {
			continue
		}
		if containsInt(exclude, id) || containsInt(dst, id) {
			continue
		}
		dst = append(dst, id)
		chosen++
	}
	*cursor = (*cursor + 1) % n
	return dst
}

// allDedicatedThrottled reports whether every live dedicated DataNode is
// currently throttled — the condition under which MOON declines dedicated
// copies for opportunistic data (Figure 3's decision process). A tier with
// no live dedicated node at all also declines.
func (fs *FileSystem) allDedicatedThrottled() bool {
	for _, v := range fs.dn {
		if v.dedicated && v.state == DNLive && !v.throttled {
			return false
		}
	}
	return true
}

// pickUnthrottledDedicated returns a live, unthrottled dedicated node for an
// opportunistic write, or -1 when the whole tier is saturated. Nodes in
// either exclusion list are skipped.
func (fs *FileSystem) pickUnthrottledDedicated(exclude, alsoExclude []int) int {
	n := len(fs.dn)
	for probe := 0; probe < n; probe++ {
		id := (fs.cursorD + probe) % n
		v := fs.dn[id]
		if v.dedicated && v.state == DNLive && !v.throttled &&
			!containsInt(exclude, id) && !containsInt(alsoExclude, id) {
			fs.cursorD = (fs.cursorD + 1) % n
			return id
		}
	}
	fs.cursorD = (fs.cursorD + 1) % n
	return -1
}

// sampleThrottle runs Algorithm 1 on every dedicated DataNode: compare the
// freshly measured I/O bandwidth against the window average; a rise that
// stays within the Tb margin means the node has plateaued (saturated), a
// fall below the margin releases it.
func (fs *FileSystem) sampleThrottle() {
	for _, v := range fs.dn {
		if !v.dedicated {
			continue
		}
		consumed := fs.net.Consumed(v.node.ID)
		bw := (consumed - v.lastConsumed) / fs.cfg.ThrottleSampleInterval
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
	W := fs.cfg.ThrottleWindow
	if len(v.bwWindow) >= W {
		avg := 0.0
		for _, x := range v.bwWindow[len(v.bwWindow)-W:] {
			avg += x
		}
		avg /= float64(W)
		Tb := fs.cfg.ThrottleThreshold
		if bw > avg && avg > 0 && bw >= fs.cfg.ThrottleFloor {
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
