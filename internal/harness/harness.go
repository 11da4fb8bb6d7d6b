// Package harness is the sweep runner: the one experiment shape of MOON's
// evaluation, variant × unavailability rate × seed → a table. A Variant is
// a label and the Cell it runs at every (rate, seed): a simulated job
// stream (SimCell; a single job is the stream of one) or a live-engine
// cell (LiveCell). Config.RunSweep runs them all into one Sweep, which
// keeps every seed's Stats; the paper's tables read each cell's seed mean.
// What the lines of a figure are is internal/scenario's to say; the only
// figure this package knows is Fig 1's trace table, which is no sweep.
//
// Sweeps are embarrassingly parallel: every (variant, rate, seed) cell is
// independent and shares no state with its siblings, so RunSweep fans the
// cells out over a bounded worker pool and keeps the results in the serial
// order. Output — cell statistics, progress lines, and error selection —
// is byte-identical at every Parallelism setting.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Config controls experiment execution.
type Config struct {
	// Seeds lists the churn realizations to average over.
	Seeds []uint64
	// Scale divides workload size (maps, reduces, input) for quick runs;
	// 1 reproduces the paper's full Table I sizes.
	Scale int
	// Rates are the machine-unavailability rates to sweep.
	Rates []float64
	// Parallelism bounds how many simulations run concurrently in a
	// sweep: 0 (the default) uses runtime.GOMAXPROCS(0), 1 runs serially.
	// Results are deterministic at any setting.
	Parallelism int
	// Progress, when non-nil, receives one line per completed run, in the
	// serial (variant, rate, seed) order regardless of Parallelism. It may
	// be invoked from worker goroutines, but never concurrently.
	Progress func(string)
	// MetricsBucket, when > 0, attaches a metrics.Collector with this
	// series bucket width (seconds) to every run; the per-seed snapshots
	// are merged into one seed-averaged report per (variant, rate) cell,
	// which Sweep.AppendMetrics exports. Collection never perturbs a run:
	// cell statistics are byte-identical with metrics on or off (pinned in
	// regression_test.go).
	MetricsBucket float64
	// MetricsSink, when non-nil (and MetricsBucket > 0), receives every
	// cell collector's instrument writes as they happen — the service's
	// event hub, which offers each one to its /v1/events subscribers.
	// Cells run concurrently, so Push must be safe for concurrent use and
	// must not block. Streaming never changes what a collector records.
	MetricsSink metrics.Sink
}

// WithDefaults fills the zero sweep axes with the paper's sweep: one churn
// seed, full Table I scale, and the unavailability rates 0.1, 0.3 and 0.5.
// These defaults are stated here and nowhere else; a scenario spec's empty
// axes lower to a zero Config and pass through this.
func (c Config) WithDefaults() Config {
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0.1, 0.3, 0.5}
	}
	return c
}

// Validate rejects sweep configurations that would silently produce garbage
// instead of the paper's matrices: NaN or out-of-range unavailability
// rates, a repeated rate (every cell of it would run, print and report
// twice under one key), zero or duplicate churn seeds (a duplicate seed
// double-counts one realization in every averaged cell), a negative scale
// divisor or pool size, and a metrics bucket width metrics.CheckBucket
// refuses. RunSweep enforces it after defaulting, so the zero Config stays
// valid.
func (c Config) Validate() error {
	rates := make(map[float64]bool, len(c.Rates))
	for _, r := range c.Rates {
		if math.IsNaN(r) || r < 0 || r >= 1 {
			return fmt.Errorf("harness: unavailability rate %v outside [0,1)", r)
		}
		if rates[r] {
			return fmt.Errorf("harness: duplicate unavailability rate %v", r)
		}
		rates[r] = true
	}
	seen := make(map[uint64]bool, len(c.Seeds))
	for _, s := range c.Seeds {
		if s == 0 {
			return fmt.Errorf("harness: seed 0 (seeds must be >= 1)")
		}
		if seen[s] {
			return fmt.Errorf("harness: duplicate seed %d", s)
		}
		seen[s] = true
	}
	if c.Scale < 1 {
		return fmt.Errorf("harness: scale %d (want >= 1)", c.Scale)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("harness: parallelism %d (want >= 0; 0 is every core)", c.Parallelism)
	}
	if err := metrics.CheckBucket(c.MetricsBucket); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return nil
}

// workers returns the effective pool size for n jobs.
func (c Config) workers(n int) int {
	p := c.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Variant is one configuration line of a sweep (e.g. "Hadoop1Min" or
// "live-fair"): a label and the cell run at every (rate, seed).
type Variant struct {
	Label string
	Cell  Cell
}

// Cell is what a line runs for one churn realization: a SimCell or a
// LiveCell. run executes it with the runner's collector (nil when metrics
// are off) and returns the realization's stats and, when c.Progress is
// set, the tail of its progress line. Cells share nothing, so the worker
// pool may run any number at once. check builds what run would run at rate
// and validates it with its owners' validators, without running anything.
type Cell interface {
	run(c Config, rate float64, seed uint64, col *metrics.Collector) (Stats, string, error)
	check(c Config, rate float64) error
}

// ValidateLines checks a sweep's lines the way RunSweep does before its
// first cell: every label is unique (a repeat would merge two lines' cells
// under one key), and every line's cell validates at every rate of the
// defaulted c. On failure it returns the index of the line at fault and the
// rate it fails at, so a caller can say where the line came from.
func (c Config) ValidateLines(variants []Variant) (line int, rate float64, err error) {
	c = c.WithDefaults()
	seen := make(map[string]bool, len(variants))
	for i, v := range variants {
		if seen[v.Label] {
			return i, c.Rates[0], fmt.Errorf("harness: line label %q repeats", v.Label)
		}
		seen[v.Label] = true
		for _, rate := range c.Rates {
			if err := v.Cell.check(c, rate); err != nil {
				return i, rate, err
			}
		}
	}
	return -1, 0, nil
}

// outcome is one cell's result plus its metrics snapshot (zero when
// collection is off).
type outcome struct {
	stats Stats
	snap  metrics.Snapshot
}

// runCell executes one sweep cell: it makes the cell's collector, names
// the cell in its error or its progress line ("" when Progress is nil),
// and snapshots the collector once the cell has returned.
func (c Config) runCell(v Variant, rate float64, seed uint64) (outcome, string, error) {
	var col *metrics.Collector
	if c.MetricsBucket > 0 {
		col = metrics.New(c.MetricsBucket)
		col.SetSink(c.MetricsSink)
	}
	st, line, err := v.Cell.run(c, rate, seed, col)
	if err != nil {
		return outcome{}, "", fmt.Errorf("%s rate=%.1f seed=%d: %w", v.Label, rate, seed, err)
	}
	if c.Progress != nil {
		line = fmt.Sprintf("%-14s rate=%.1f seed=%d %s", v.Label, rate, seed, line)
	}
	return outcome{stats: st, snap: col.Snapshot()}, line, nil
}

// orderedProgress re-serializes progress lines from concurrent workers into
// the deterministic job order, emitting each line as soon as every earlier
// job has reported.
type orderedProgress struct {
	emit func(string)
	mu   sync.Mutex
	next int
	buf  map[int]string
}

func newOrderedProgress(emit func(string)) *orderedProgress {
	return &orderedProgress{emit: emit, buf: make(map[int]string)}
}

func (p *orderedProgress) done(i int, line string) {
	if p == nil || p.emit == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf[i] = line
	for {
		l, ok := p.buf[p.next]
		if !ok {
			return
		}
		delete(p.buf, p.next)
		p.next++
		if l != "" {
			p.emit(l)
		}
	}
}

// fanOut runs n independent cells on a worker pool of c.workers(n)
// goroutines and returns the per-cell results in serial order. Each cell
// returns its result plus a pre-formatted progress line, emitted in serial
// order through c.Progress. On failure the error of the lowest-indexed
// failing cell is returned and no cell after the first failure starts
// (in-flight cells finish) — exactly the serial fail-fast behavior, which
// a pool of one is. The calling goroutine is one of the pool's workers, so
// a serial sweep starts no goroutine.
func fanOut[T any](c Config, n int, run func(int) (T, string, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	progress := newOrderedProgress(c.Progress)

	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for {
			// Check before claiming: a claimed index always runs, so every
			// cell below the first failure is recorded and the
			// minimum-index error matches a serial sweep.
			if failed.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			var line string
			results[i], line, errs[i] = run(i)
			if errs[i] != nil {
				// Fail fast: in-flight cells finish, but no new ones start.
				failed.Store(true)
				return
			}
			progress.done(i, line)
		}
	}
	var wg sync.WaitGroup
	for range c.workers(n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	// A serial sweep stops at the first failing cell; report the same one.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// sweepCells enumerates a sweep's (variant, rate, seed) cells in serial
// order.
type sweepCell struct {
	variant int
	rate    float64
	seed    uint64
}

func (c Config) sweepCells(nVariants int) []sweepCell {
	var cells []sweepCell
	for v := 0; v < nVariants; v++ {
		for _, rate := range c.Rates {
			for _, seed := range c.Seeds {
				cells = append(cells, sweepCell{variant: v, rate: rate, seed: seed})
			}
		}
	}
	return cells
}

// RunSweep evaluates every variant at every rate across every seed, running
// the independent cells on a worker pool of Config.Parallelism goroutines.
// Cell statistics, progress ordering and error selection are identical to a
// serial sweep. (A live cell executes in wall-clock time, so its numbers
// are not reproducible; the structure of its sweep is.) A bad axis or line
// fails before the first cell runs (Validate, ValidateLines), named by the
// first cell of the line, the one a serial sweep would have failed in.
func (c Config) RunSweep(title string, variants []Variant) (*Sweep, error) {
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if i, rate, err := c.ValidateLines(variants); err != nil {
		return nil, fmt.Errorf("%s rate=%.1f seed=%d: %w", variants[i].Label, rate, c.Seeds[0], err)
	}
	sw := &Sweep{Title: title, Rates: c.Rates, Seeds: c.Seeds}
	for _, v := range variants {
		sw.Variants = append(sw.Variants, v.Label)
	}
	cells := c.sweepCells(len(variants))
	if len(cells) == 0 {
		return sw, nil
	}
	results, err := fanOut(c, len(cells), func(i int) (outcome, string, error) {
		cell := cells[i]
		return c.runCell(variants[cell.variant], cell.rate, cell.seed)
	})
	if err != nil {
		return nil, err
	}
	snaps := make([]metrics.Snapshot, len(results))
	for i, out := range results {
		sw.runs = append(sw.runs, out.stats)
		snaps[i] = out.snap
	}
	for k := 0; c.MetricsBucket > 0 && k < len(snaps); k += len(c.Seeds) {
		sw.snaps = append(sw.snaps, metrics.Merge(snaps[k:k+len(c.Seeds)]))
	}
	return sw, nil
}
