package sim

import (
	"runtime"
	"sync"
)

// CacheLine is the assumed cache-line size for shard arenas. Per-worker
// state padded to this granularity cannot false-share with its neighbors.
const CacheLine = 64

// Padded wraps one worker's arena in trailing cache-line padding so that
// adjacent arenas in a []Padded[T] never share a line. Clients allocate one
// slice of these per pool — `make([]sim.Padded[myScratch], pool.Workers())`
// — and worker w touches only element w during a phase.
type Padded[T any] struct {
	V T
	_ [CacheLine]byte
}

// ShardPool fans the independent per-item work of a single simulation
// instant across a bounded set of workers — the intra-run counterpart of
// the harness's per-cell sweep pool.
//
// The determinism contract is the byte-identical-at-any-Parallelism bar
// from internal/harness, applied inside one run: a phase is a pure "map"
// step. The callback may read any shared model state but must write only
// (a) per-index result slots that are a function of the index alone, and
// (b) the scratch arena of the worker running it. All shared-state
// mutation — float accumulation, event scheduling (which consumes (at,
// seq) numbers), metric observations — happens after Run returns, applied
// serially in index order by the caller. Under that contract any worker
// count, including 1, produces bit-identical simulations.
//
// Workers are spawned per phase rather than parked on channels, so an
// abandoned Simulation never leaks goroutines; clients amortize the
// spawn by gating phases on a batch-size threshold.
type ShardPool struct {
	workers int
}

// NewShardPool returns a pool of the given width. A non-positive width
// selects GOMAXPROCS — "use the machine" — matching the sweep pool's
// Parallelism convention.
func NewShardPool(workers int) *ShardPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ShardPool{workers: workers}
}

// Workers returns the pool width (always >= 1). Clients size their arena
// slices with it.
func (p *ShardPool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Serial reports whether phases run inline on the caller's goroutine.
func (p *ShardPool) Serial() bool { return p.Workers() == 1 }

// Run executes one parallel phase over the index range [0, n): the range
// is cut into one contiguous span per worker and fn(worker, lo, hi) is
// invoked once per non-empty span, concurrently. Run returns when every
// span is done. With one worker (or n < 2) fn runs inline — the serial
// path and the fanned path are interchangeable by the phase contract
// above, which is what keeps any worker count byte-identical.
func (p *ShardPool) Run(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		lo := k * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			fn(worker, lo, hi)
		}(k, lo, hi)
	}
	// The caller's goroutine is worker 0; running its span inline saves a
	// spawn and keeps the single-span case allocation-free.
	fn(0, 0, min(chunk, n))
	wg.Wait()
}

// SumInt is the exact parallel reduction for integer per-item metrics
// (slot counts, availability scans): fn returns each span's partial sum
// and SumInt folds the partials in span order. Integer addition is
// associative, so the result equals the serial left-to-right sum for any
// worker count — the reduction shape float sums must never use.
func (p *ShardPool) SumInt(n int, fn func(lo, hi int) int) int {
	w := p.Workers()
	if n <= 0 {
		return 0
	}
	if w == 1 || n < 2 {
		return fn(0, n)
	}
	if w > n {
		w = n
	}
	partials := make([]Padded[int], w)
	p.Run(n, func(worker, lo, hi int) {
		partials[worker].V = fn(lo, hi)
	})
	total := 0
	for i := range partials {
		total += partials[i].V
	}
	return total
}

// SetShardWorkers configures the simulation's intra-run worker pool:
// 0 = GOMAXPROCS, 1 = serial, n = exactly n workers. Any value yields
// bit-identical runs; the knob trades cores for wall-clock only.
func (s *Simulation) SetShardWorkers(workers int) {
	s.shards = NewShardPool(workers)
}

// Shards returns the simulation's shard pool, defaulting to a
// GOMAXPROCS-wide pool on first use. Model layers (trace generation, the
// mapred heartbeat) fan their per-node phases through it.
func (s *Simulation) Shards() *ShardPool {
	if s.shards == nil {
		s.shards = NewShardPool(0)
	}
	return s.shards
}
