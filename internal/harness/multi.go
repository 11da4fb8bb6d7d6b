package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// MultiVariant is one configuration line of a multi-job sweep: it builds
// the stack options plus a multi-job workload for a cluster spec.
type MultiVariant struct {
	Label string
	Build func(cs core.ClusterSpec) (core.Options, workload.MultiSpec)
}

// MultiStats is a seed-averaged multi-job cell outcome.
type MultiStats struct {
	// JobMakespans holds each job's seed-averaged makespan in submission
	// order (for capped jobs: submission → horizon).
	JobMakespans []float64
	// Span is run start → last completion; Throughput is completed jobs
	// per hour of span.
	Span       float64
	Throughput float64
	Completed  float64
	// Capped marks cells where some seed left a job unfinished at the
	// horizon.
	Capped bool
	Runs   int
}

// MultiSweep is a complete multi-job experiment: variant × rate → stats.
type MultiSweep struct {
	Title    string
	Variants []string
	Rates    []float64
	Cells    map[string]map[float64]MultiStats
	// Metrics holds one seed-averaged metrics snapshot per cell when the
	// sweep ran with Config.MetricsBucket > 0 (nil otherwise).
	Metrics map[string]map[float64]metrics.Snapshot
}

// Get returns the stats for a variant/rate cell.
func (sw *MultiSweep) Get(label string, rate float64) MultiStats { return sw.Cells[label][rate] }

// AppendMetrics adds the sweep's collected cell reports to an Export, one
// Experiment entry per (variant, rate) in sweep order.
func (sw *MultiSweep) AppendMetrics(e *metrics.Export, runs int) {
	appendCellMetrics(e, sw.Title, sw.Variants, sw.Rates, sw.Metrics, runs)
}

// multiOutcome is one multi-job cell's result plus its metrics snapshot.
type multiOutcome struct {
	stats MultiStats
	snap  metrics.Snapshot
}

// runMultiSeed executes one multi-job sweep cell (shares nothing; safe for
// the worker pool).
func (c Config) runMultiSeed(v MultiVariant, rate float64, seed uint64) (multiOutcome, string, error) {
	cs := core.ClusterSpec{UnavailabilityRate: rate, Seed: seed}
	opts, m := v.Build(cs)
	m = workload.ScaleMulti(m, c.Scale)
	var col *metrics.Collector
	if c.MetricsBucket > 0 {
		col = metrics.New(c.MetricsBucket)
		col.SetSink(c.MetricsSink)
		opts.Metrics = col
	}
	s, err := core.NewForMultiWorkload(opts, m)
	if err != nil {
		return multiOutcome{}, "", fmt.Errorf("%s rate=%.1f seed=%d: %w", v.Label, rate, seed, err)
	}
	res, err := s.RunMultiWorkload(m)
	if err != nil {
		return multiOutcome{}, "", fmt.Errorf("%s rate=%.1f seed=%d: %w", v.Label, rate, seed, err)
	}
	st := MultiStats{
		Span:       res.Span,
		Throughput: res.Throughput,
		Completed:  float64(res.Completed),
		Runs:       1,
	}
	for _, jr := range res.Jobs {
		st.JobMakespans = append(st.JobMakespans, jr.Profile.Makespan)
		if jr.HitHorizon {
			st.Capped = true
		}
	}
	progress := ""
	if c.Progress != nil {
		progress = fmt.Sprintf("%-14s rate=%.1f seed=%d span=%.0fs done=%d/%d tput=%.2f/h capped=%v",
			v.Label, rate, seed, res.Span, res.Completed, len(res.Jobs), res.Throughput, st.Capped)
	}
	return multiOutcome{stats: st, snap: col.Snapshot()}, progress, nil
}

// mergeMultiSeeds folds per-seed multi-job runs into the averaged cell, in
// seed order (bit-identical to a serial sweep).
func mergeMultiSeeds(runs []MultiStats) MultiStats {
	var st MultiStats
	for _, r := range runs {
		if st.JobMakespans == nil {
			st.JobMakespans = make([]float64, len(r.JobMakespans))
		}
		for i, mk := range r.JobMakespans {
			st.JobMakespans[i] += mk
		}
		st.Span += r.Span
		st.Throughput += r.Throughput
		st.Completed += r.Completed
		if r.Capped {
			st.Capped = true
		}
		st.Runs += r.Runs
	}
	n := float64(st.Runs)
	for i := range st.JobMakespans {
		st.JobMakespans[i] /= n
	}
	st.Span /= n
	st.Throughput /= n
	st.Completed /= n
	return st
}

// RunMultiSweep evaluates every multi-job variant at every rate across
// every seed on the shared worker pool. Like RunSweep, cell statistics,
// progress ordering and error selection are byte-identical to a serial
// sweep at any Parallelism.
func (c Config) RunMultiSweep(title string, variants []MultiVariant) (*MultiSweep, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sw := &MultiSweep{Title: title, Rates: c.Rates, Cells: make(map[string]map[float64]MultiStats)}
	for _, v := range variants {
		sw.Variants = append(sw.Variants, v.Label)
		sw.Cells[v.Label] = make(map[float64]MultiStats)
	}
	cells := c.sweepCells(len(variants))
	if len(cells) == 0 {
		return sw, nil
	}

	results, err := fanOut(c, len(cells), func(i int) (multiOutcome, string, error) {
		cell := cells[i]
		return c.runMultiSeed(variants[cell.variant], cell.rate, cell.seed)
	})
	if err != nil {
		return nil, err
	}

	sw.Cells, sw.Metrics = assembleCells(c, sw.Variants, results,
		func(o multiOutcome) (MultiStats, metrics.Snapshot) { return o.stats, o.snap }, mergeMultiSeeds)
	return sw, nil
}

// Render prints the multi-job matrix: one row per (rate, variant) with the
// run span, throughput, completions, and each job's makespan in submission
// order. Capped cells are prefixed with '>'.
func (sw *MultiSweep) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — span / throughput / per-job makespan (s)\n", sw.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "unavail\tpolicy\tspan\tjobs/h\tdone\tper-job makespans")
	for _, rate := range sw.Rates {
		for _, v := range sw.Variants {
			st := sw.Cells[v][rate]
			span := fmt.Sprintf("%.0f", st.Span)
			if st.Capped {
				span = ">" + span
			}
			fmt.Fprintf(tw, "%.1f\t%s\t%s\t%.2f\t%.1f", rate, v, span, st.Throughput, st.Completed)
			for i, mk := range st.JobMakespans {
				if i == 0 {
					fmt.Fprintf(tw, "\t%.0f", mk)
				} else {
					fmt.Fprintf(tw, " %.0f", mk)
				}
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// ArrivalSpec selects the submission process of the multi-job experiment.
type ArrivalSpec struct {
	// Process is "staggered" (fixed gaps) or "poisson" (exponential
	// inter-arrivals).
	Process string
	// Interval is the stagger gap or the mean inter-arrival time, seconds.
	Interval float64
	// Seed drives the Poisson offset draws (independent of churn seeds).
	Seed uint64
	// Priorities are per-job-name strict-priority ranks applied to the
	// derived stream (read by the "priority" arbitration policy only).
	Priorities map[string]int
}

// Stream derives the n-job workload for the arrival process.
func (a ArrivalSpec) Stream(base workload.Spec, n int) workload.MultiSpec {
	var m workload.MultiSpec
	switch a.Process {
	case "", "staggered":
		m = workload.Staggered(base, n, a.Interval)
	case "poisson":
		m = workload.PoissonArrivals(base, n, a.Interval, a.Seed)
	default:
		panic(fmt.Sprintf("harness: unknown arrival process %q", a.Process))
	}
	return workload.WithPriorities(m, a.Priorities)
}

// MultiVariants are the lines of the multi-job experiment: one identical
// staggered stream of sleep jobs (scheduling-isolated, like Figures 4/5)
// on the MOON-Hybrid stack, one line per arbitration policy. With no
// policies given it compares FIFO against fair-share.
func MultiVariants(app string, jobs int, stagger float64, policies ...mapred.SchedPolicy) []MultiVariant {
	return MultiArrivalVariants(app, jobs, ArrivalSpec{Process: "staggered", Interval: stagger}, policies...)
}

// MultiArrivalVariants generalizes MultiVariants to any arrival process
// (staggered gaps or a seeded Poisson stream).
func MultiArrivalVariants(app string, jobs int, arr ArrivalSpec, policies ...mapred.SchedPolicy) []MultiVariant {
	if len(policies) == 0 {
		policies = []mapred.SchedPolicy{mapred.FIFO(), mapred.FairShare()}
	}
	var vs []MultiVariant
	for _, pol := range policies {
		pol := pol
		vs = append(vs, MultiVariant{
			Label: "MOON-" + pol.Name(),
			Build: func(cs core.ClusterSpec) (core.Options, workload.MultiSpec) {
				opts := core.MOONPreset(baseCluster(cs), true)
				opts.Sched.JobPolicy = pol
				return opts, arr.Stream(workload.SleepApp(appSpec(app)), jobs)
			},
		})
	}
	return vs
}

// Multi sweeps the multi-job experiment: policy × churn rate × seed,
// reporting per-job makespan and total throughput.
func (c Config) Multi(app string, jobs int, stagger float64) (*MultiSweep, error) {
	return c.RunMultiSweep(
		fmt.Sprintf("Multi-job (%s): %d jobs staggered %.0fs, FIFO vs fair-share", app, jobs, stagger),
		MultiVariants(app, jobs, stagger))
}
