// Package harness defines and runs the paper's experiments: every figure
// and table of the evaluation section (Figures 1, 4, 5, 6, 7 and Table II)
// maps to one experiment that sweeps the same configurations the authors
// swept and prints the same rows/series they report.
//
// Sweeps are embarrassingly parallel: every (variant, rate, seed) cell is an
// independent single-threaded simulation sharing no state with its siblings,
// so RunSweep fans the cells out over a bounded worker pool and reassembles
// the results in the serial order. Output — cell statistics, progress lines,
// and error selection — is byte-identical at every Parallelism setting.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/workload"
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
	// on Sweep.Metrics / MultiSweep.Metrics. Collection never perturbs a
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

// DefaultConfig mirrors the paper's sweep with a single seed.
func DefaultConfig() Config {
	return Config{Seeds: []uint64{1}, Scale: 1, Rates: []float64{0.1, 0.3, 0.5}}
}

func (c Config) withDefaults() Config {
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
// rates, zero or duplicate churn seeds (a duplicate seed double-counts one
// realization in every averaged cell), a negative scale divisor, and a
// non-finite metrics bucket. RunSweep and RunMultiSweep enforce it after
// defaulting, so the zero Config stays valid.
func (c Config) Validate() error {
	for _, r := range c.Rates {
		if math.IsNaN(r) || r < 0 || r >= 1 {
			return fmt.Errorf("harness: unavailability rate %v outside [0,1)", r)
		}
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

// RunStats is a seed-averaged run outcome.
type RunStats struct {
	Makespan float64
	// Capped marks runs that hit the simulation horizon before the job
	// finished (the paper's "could not complete" cases); Makespan is
	// then the horizon.
	Capped bool

	AvgMapTime     float64
	AvgShuffleTime float64
	AvgReduceTime  float64
	KilledMaps     float64
	KilledReduces  float64
	Duplicated     float64
	Invalidations  float64

	ReplicationBytes float64
	Runs             int
}

// Variant is one configuration line in a figure (e.g. "Hadoop1Min" or
// "HA-V1"). Build returns the stack options and workload for a given
// cluster spec; the harness fills in churn rate and seed.
type Variant struct {
	Label string
	Build func(cs core.ClusterSpec) (core.Options, workload.Spec)
}

// runOne executes a single simulation.
func runOne(opts core.Options, w workload.Spec) (core.Result, error) {
	s, err := core.NewForWorkload(opts, w)
	if err != nil {
		return core.Result{}, err
	}
	return s.RunWorkload(w)
}

// seedOutcome is one sweep cell's result: the run statistics plus the
// run's metrics snapshot (zero when collection is off).
type seedOutcome struct {
	stats RunStats
	snap  metrics.Snapshot
}

// runSeed executes the simulation for one sweep cell, returning the cell's
// stats and its formatted progress line ("" when Progress is nil). It is
// safe to call from multiple goroutines: every simulation owns its clock,
// rng, cluster, runtime and metrics collector, and shares nothing.
func (c Config) runSeed(v Variant, rate float64, seed uint64) (seedOutcome, string, error) {
	cs := core.ClusterSpec{UnavailabilityRate: rate, Seed: seed}
	opts, w := v.Build(cs)
	w = workload.Scale(w, c.Scale)
	var col *metrics.Collector
	if c.MetricsBucket > 0 {
		col = metrics.New(c.MetricsBucket)
		col.SetSink(c.MetricsSink)
		opts.Metrics = col
	}
	res, err := runOne(opts, w)
	if err != nil {
		return seedOutcome{}, "", fmt.Errorf("%s rate=%.1f seed=%d: %w", v.Label, rate, seed, err)
	}
	p := res.Profile
	st := RunStats{
		Makespan:         p.Makespan,
		AvgMapTime:       p.AvgMapTime,
		AvgShuffleTime:   p.AvgShuffleTime,
		AvgReduceTime:    p.AvgReduceTime,
		KilledMaps:       float64(p.KilledMaps),
		KilledReduces:    float64(p.KilledReduces),
		Duplicated:       float64(p.DuplicatedTasks),
		Invalidations:    float64(p.MapInvalidations),
		ReplicationBytes: res.DFS.ReplicationBytes,
		Runs:             1,
	}
	if res.HitHorizon || p.State != mapred.JobSucceeded {
		st.Capped = true
	}
	out := seedOutcome{stats: st, snap: col.Snapshot()}
	progress := ""
	if c.Progress != nil {
		progress = fmt.Sprintf("%-14s rate=%.1f seed=%d makespan=%.0fs dup=%d killedM=%d capped=%v "+
			"map=%.0fs shuffle=%.0fs reduce=%.0fs declines=%d raises=%d repGB=%.1f stalls=%d",
			v.Label, rate, seed, p.Makespan, p.DuplicatedTasks, p.KilledMaps, res.HitHorizon,
			p.AvgMapTime, p.AvgShuffleTime, p.AvgReduceTime,
			res.DFS.DedicatedDeclines, res.DFS.AdaptiveRaises, res.DFS.ReplicationBytes/1e9,
			res.DFS.ReadStalls)
	}
	return out, progress, nil
}

// mergeSeeds folds per-seed runs into the averaged cell statistics. The
// accumulation order is the seed order, so the floating-point result is
// bit-identical to a serial sweep.
func mergeSeeds(runs []RunStats) RunStats {
	var st RunStats
	for _, r := range runs {
		st.Makespan += r.Makespan
		st.AvgMapTime += r.AvgMapTime
		st.AvgShuffleTime += r.AvgShuffleTime
		st.AvgReduceTime += r.AvgReduceTime
		st.KilledMaps += r.KilledMaps
		st.KilledReduces += r.KilledReduces
		st.Duplicated += r.Duplicated
		st.Invalidations += r.Invalidations
		st.ReplicationBytes += r.ReplicationBytes
		if r.Capped {
			st.Capped = true
		}
		st.Runs += r.Runs
	}
	n := float64(st.Runs)
	st.Makespan /= n
	st.AvgMapTime /= n
	st.AvgShuffleTime /= n
	st.AvgReduceTime /= n
	st.KilledMaps /= n
	st.KilledReduces /= n
	st.Duplicated /= n
	st.Invalidations /= n
	st.ReplicationBytes /= n
	return st
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

// Sweep is a complete figure's data: variant × rate → stats.
type Sweep struct {
	Title    string
	Variants []string
	Rates    []float64
	Cells    map[string]map[float64]RunStats
	// Metrics holds one seed-averaged metrics snapshot per cell when the
	// sweep ran with Config.MetricsBucket > 0 (nil otherwise).
	Metrics map[string]map[float64]metrics.Snapshot
}

// AppendMetrics adds the sweep's collected cell reports to an Export, one
// Experiment entry per (variant, rate) in sweep order. A sweep run without
// metrics contributes nothing.
func (sw *Sweep) AppendMetrics(e *metrics.Export, runs int) {
	appendCellMetrics(e, sw.Title, sw.Variants, sw.Rates, sw.Metrics, runs)
}

// appendCellMetrics is the shared AppendMetrics body of Sweep and
// MultiSweep: one Experiment entry per (variant, rate) cell, in sweep
// order; a nil metrics map contributes nothing.
func appendCellMetrics(e *metrics.Export, title string, variants []string, rates []float64,
	cells map[string]map[float64]metrics.Snapshot, runs int) {
	if cells == nil {
		return
	}
	for _, v := range variants {
		for _, rate := range rates {
			e.Add(title, v, rate, runs, cells[v][rate])
		}
	}
}

// assembleCells folds per-seed sweep outcomes into per-cell aggregates in
// serial (variant, rate, seed) order — the deterministic assembly shared
// by RunSweep and RunMultiSweep, so statistics and metrics merging cannot
// drift between the two sweep kinds. split extracts one outcome's stats
// and snapshot; merge folds the seeds of one cell. The metrics map is nil
// unless the sweep collected metrics.
func assembleCells[S, O any](c Config, labels []string, results []O,
	split func(O) (S, metrics.Snapshot), merge func([]S) S,
) (map[string]map[float64]S, map[string]map[float64]metrics.Snapshot) {
	cells := make(map[string]map[float64]S)
	var mcells map[string]map[float64]metrics.Snapshot
	if c.MetricsBucket > 0 {
		mcells = make(map[string]map[float64]metrics.Snapshot)
	}
	stats := make([]S, len(c.Seeds))
	snaps := make([]metrics.Snapshot, len(c.Seeds))
	k := 0
	for _, label := range labels {
		cells[label] = make(map[float64]S)
		if mcells != nil {
			mcells[label] = make(map[float64]metrics.Snapshot)
		}
		for _, rate := range c.Rates {
			for i, out := range results[k : k+len(c.Seeds)] {
				stats[i], snaps[i] = split(out)
			}
			cells[label][rate] = merge(stats)
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
// serial sweep.
func (c Config) RunSweep(title string, variants []Variant) (*Sweep, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sw := &Sweep{Title: title, Rates: c.Rates, Cells: make(map[string]map[float64]RunStats)}
	for _, v := range variants {
		sw.Variants = append(sw.Variants, v.Label)
		sw.Cells[v.Label] = make(map[float64]RunStats)
	}
	cells := c.sweepCells(len(variants))
	if len(cells) == 0 {
		return sw, nil
	}

	results, err := fanOut(c, len(cells), func(i int) (seedOutcome, string, error) {
		cell := cells[i]
		return c.runSeed(variants[cell.variant], cell.rate, cell.seed)
	})
	if err != nil {
		return nil, err
	}

	// Deterministic assembly: fold seeds per cell in serial order.
	sw.Cells, sw.Metrics = assembleCells(c, sw.Variants, results,
		func(o seedOutcome) (RunStats, metrics.Snapshot) { return o.stats, o.snap }, mergeSeeds)
	return sw, nil
}

// Get returns the stats for a variant/rate cell.
func (sw *Sweep) Get(label string, rate float64) RunStats { return sw.Cells[label][rate] }

// Best returns the variant with the lowest makespan at a rate, restricted
// to labels with the given prefix (e.g. the paper's "best VO
// configuration").
func (sw *Sweep) Best(prefix string, rate float64) (string, RunStats) {
	bestLabel, best := "", RunStats{Makespan: -1}
	var labels []string
	labels = append(labels, sw.Variants...)
	sort.Strings(labels)
	for _, l := range labels {
		if len(l) < len(prefix) || l[:len(prefix)] != prefix {
			continue
		}
		st := sw.Cells[l][rate]
		if best.Makespan < 0 || st.Makespan < best.Makespan {
			bestLabel, best = l, st
		}
	}
	return bestLabel, best
}
