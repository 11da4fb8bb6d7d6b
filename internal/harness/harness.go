// Package harness is the sweep runner: the one experiment shape of MOON's
// evaluation, variant × unavailability rate × seed → a table. A Variant is
// a label and the Cell it runs at every (rate, seed): a simulated job
// stream (SimCell; a single job is the stream of one) or a live-engine
// cell (LiveCell). Config.RunSweep runs them all into one Sweep of
// seed-averaged Stats, which renders as the paper's tables. What the lines
// of a figure are is internal/scenario's to say; the only figure this
// package knows is Fig 1's trace table, which is no sweep.
//
// Sweeps are embarrassingly parallel: every (variant, rate, seed) cell is
// independent and shares no state with its siblings, so RunSweep fans the
// cells out over a bounded worker pool and reassembles the results in the
// serial order. Output — cell statistics, progress lines, and error
// selection — is byte-identical at every Parallelism setting.
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
	// are merged into one seed-averaged report per (variant, rate) cell
	// on Sweep.Metrics. Collection never perturbs a
	// run: cell statistics are byte-identical with metrics on or off
	// (pinned in regression_test.go).
	MetricsBucket float64
	// MetricsSink, when non-nil (and MetricsBucket > 0), receives every
	// cell collector's instrument writes as they happen — the live
	// streaming feed the service's /v1/events endpoint fans out. Cells
	// run concurrently, so the sink must be safe for concurrent pushes
	// (metrics.StreamSink is). Streaming never changes what a collector
	// records.
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
// divisor, and a non-finite metrics bucket. RunSweep enforces it after
// defaulting, so the zero Config stays valid.
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
	if math.IsNaN(c.MetricsBucket) || c.MetricsBucket < 0 {
		return fmt.Errorf("harness: metrics bucket %v (want >= 0)", c.MetricsBucket)
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
// pool may run any number at once.
type Cell interface {
	run(c Config, rate float64, seed uint64, col *metrics.Collector) (Stats, string, error)
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

// assembleCells folds per-seed outcomes into per-cell aggregates in
// serial (variant, rate, seed) order. The metrics map is nil unless the
// sweep collected metrics.
func assembleCells(c Config, labels []string, results []outcome,
) (map[string]map[float64]Stats, map[string]map[float64]metrics.Snapshot) {
	cells := make(map[string]map[float64]Stats)
	var mcells map[string]map[float64]metrics.Snapshot
	if c.MetricsBucket > 0 {
		mcells = make(map[string]map[float64]metrics.Snapshot)
	}
	stats := make([]Stats, len(c.Seeds))
	snaps := make([]metrics.Snapshot, len(c.Seeds))
	k := 0
	for _, label := range labels {
		cells[label] = make(map[float64]Stats)
		if mcells != nil {
			mcells[label] = make(map[float64]metrics.Snapshot)
		}
		for _, rate := range c.Rates {
			for i, out := range results[k : k+len(c.Seeds)] {
				stats[i], snaps[i] = out.stats, out.snap
			}
			cells[label][rate] = mergeSeeds(stats)
			if mcells != nil {
				mcells[label][rate] = metrics.Merge(snaps)
			}
			k += len(c.Seeds)
		}
	}
	return cells, mcells
}

// fanOut runs n independent cells on a worker pool of c.workers(n)
// goroutines and returns the per-cell results in serial order. Each cell
// returns its result plus a pre-formatted progress line, emitted in serial
// order through c.Progress. On failure the error of the lowest-indexed
// failing cell is returned and no cell after the first failure starts
// (in-flight cells finish) — exactly the serial fail-fast behavior.
func fanOut[T any](c Config, n int, run func(int) (T, string, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	progress := newOrderedProgress(c.Progress)

	if par := c.workers(n); par == 1 {
		for i := 0; i < n; i++ {
			var line string
			results[i], line, errs[i] = run(i)
			if errs[i] != nil {
				break // fail fast, like the serial sweep always did
			}
			progress.done(i, line)
		}
	} else {
		var next atomic.Int64
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					// Check before claiming: a claimed index always runs,
					// so every cell below the first failure is recorded and
					// the minimum-index error matches a serial sweep.
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
						// Fail fast: in-flight cells finish, but no new
						// ones start.
						failed.Store(true)
						return
					}
					progress.done(i, line)
				}
			}()
		}
		wg.Wait()
	}

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
// are not reproducible; the structure of its sweep is.)
func (c Config) RunSweep(title string, variants []Variant) (*Sweep, error) {
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sw := &Sweep{Title: title, Rates: c.Rates, Cells: make(map[string]map[float64]Stats)}
	for _, v := range variants {
		sw.Variants = append(sw.Variants, v.Label)
		sw.Cells[v.Label] = make(map[float64]Stats)
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
	sw.Cells, sw.Metrics = assembleCells(c, sw.Variants, results)
	return sw, nil
}
