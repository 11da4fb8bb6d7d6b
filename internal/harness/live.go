package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/engine"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
)

// LiveConfig shapes a live-engine sweep cell: the goroutine worker pool,
// the trace-compressed churn replay, and the job stream each cell
// executes for real (actual word counting, not a resource model). The
// sweep axes — rates, seeds, parallelism, metrics — come from the shared
// harness Config, so live sweeps fan out over the same worker pool as the
// simulated ones.
type LiveConfig struct {
	// VolatileWorkers can be suspended by the churn traces;
	// DedicatedWorkers never churn.
	VolatileWorkers  int
	DedicatedWorkers int
	// NoDedicatedReplication disables MOON's hybrid-aware intermediate
	// replication (the inverted spelling keeps the zero LiveConfig on the
	// documented default: map outputs are replicated to a dedicated
	// worker, so churn recovers from the copy instead of re-executing).
	NoDedicatedReplication bool

	// HorizonSeconds is the churn-trace length in simulated seconds; the
	// sweep's rate drives each trace's unavailable fraction exactly like
	// the simulator's cluster layer.
	HorizonSeconds float64
	// Compression maps one simulated trace second to this much wall time
	// (e.g. time.Millisecond turns a 120 s trace into 120 ms of churn).
	Compression time.Duration

	// Jobs is the number of concurrently submitted jobs per cell; each is
	// a real word-count over deterministic synthetic text.
	Jobs int
	// SplitsPerJob / WordsPerSplit / ReducesPerJob size each job.
	SplitsPerJob  int
	WordsPerSplit int
	ReducesPerJob int

	// Arrivals selects the cell's submission process: "" submits every
	// job together (the historical default), "staggered" spaces
	// submissions ArrivalInterval simulated seconds apart, "poisson"
	// draws exponential inter-arrivals with mean ArrivalInterval from
	// ArrivalSeed (first job at t=0, like workload.PoissonArrivals).
	// Offsets are simulated seconds, wall-clock compressed by
	// Compression exactly like the churn traces.
	Arrivals        string
	ArrivalInterval float64
	ArrivalSeed     uint64

	// Timeout bounds one cell's wall-clock execution.
	Timeout time.Duration

	// Link tunes the engine's failure-handling protocol (per-operation
	// timeouts, retries, lease and session clocks); zero fields inherit
	// the engine defaults.
	Link transport.LinkConfig
	// Faults, when non-nil, runs every cell's cluster over a
	// fault-injecting transport (seeded drops, duplicates, delays,
	// connection resets, timed partitions). Nil keeps the lossless
	// loopback fabric.
	Faults *transport.FaultConfig
}

// DefaultLiveConfig returns a small hybrid pool replaying 120 simulated
// seconds of churn per millisecond-compressed cell, three concurrent jobs.
func DefaultLiveConfig() LiveConfig {
	return LiveConfig{
		VolatileWorkers:  4,
		DedicatedWorkers: 1,
		HorizonSeconds:   120,
		Compression:      time.Millisecond,
		Jobs:             3,
		SplitsPerJob:     8,
		WordsPerSplit:    400,
		ReducesPerJob:    3,
		Timeout:          2 * time.Minute,
	}
}

// Validate builds the engine configuration exactly as a cell would and
// runs its validation, so link/fault mistakes (heartbeat not shorter than
// the suspension timeout, malformed rates or partition windows) surface at
// compile time rather than mid-sweep.
func (lc LiveConfig) Validate() error {
	lc = lc.withDefaults()
	switch lc.Arrivals {
	case "", "staggered", "poisson":
	default:
		return fmt.Errorf("harness: unknown live arrival process %q (want staggered or poisson)", lc.Arrivals)
	}
	if lc.Arrivals != "" && lc.ArrivalInterval < 0 {
		return fmt.Errorf("harness: live arrival interval %v must be >= 0", lc.ArrivalInterval)
	}
	ecfg := engine.DefaultConfig()
	ecfg.VolatileWorkers = lc.VolatileWorkers
	ecfg.DedicatedWorkers = lc.DedicatedWorkers
	ecfg.ReplicateToDedicated = !lc.NoDedicatedReplication
	ecfg.Link = lc.Link
	ecfg.Faults = lc.Faults
	return ecfg.Validate()
}

func (lc LiveConfig) withDefaults() LiveConfig {
	d := DefaultLiveConfig()
	if lc.VolatileWorkers == 0 && lc.DedicatedWorkers == 0 {
		lc.VolatileWorkers, lc.DedicatedWorkers = d.VolatileWorkers, d.DedicatedWorkers
	}
	if lc.HorizonSeconds == 0 {
		lc.HorizonSeconds = d.HorizonSeconds
	}
	if lc.Compression == 0 {
		lc.Compression = d.Compression
	}
	if lc.Jobs == 0 {
		lc.Jobs = d.Jobs
	}
	if lc.SplitsPerJob == 0 {
		lc.SplitsPerJob = d.SplitsPerJob
	}
	if lc.WordsPerSplit == 0 {
		lc.WordsPerSplit = d.WordsPerSplit
	}
	if lc.ReducesPerJob == 0 {
		lc.ReducesPerJob = d.ReducesPerJob
	}
	if lc.Timeout == 0 {
		lc.Timeout = d.Timeout
	}
	return lc
}

// LiveVariant is one policy line of a live sweep: the arbitration policy
// every cell of the line runs under, with optional per-job weights
// ("weighted") or priorities ("priority"). Job names are live-j0 ..
// live-j<n-1>, the keys Weights and Priorities use.
type LiveVariant struct {
	Label      string
	Policy     string
	Weights    map[string]float64
	Priorities map[string]int
}

// LiveVariants builds one variant line per policy name (default when
// empty: fifo vs fair, mirroring the simulator's multi-job default).
// Names are canonicalized first, so alias spellings ("weighted-fair",
// "strict-priority") still carry their weights/priorities; a name that
// does not resolve passes through and fails hard in the engine's config
// validation at run time.
func LiveVariants(policies []string, weights map[string]float64, priorities map[string]int) []LiveVariant {
	if len(policies) == 0 {
		policies = []string{"fifo", "fair"}
	}
	var out []LiveVariant
	for _, p := range policies {
		if pol, err := mapred.JobPolicyByName(p); err == nil {
			p = pol.Name()
		}
		v := LiveVariant{Label: "live-" + p, Policy: p}
		if p == "weighted" {
			v.Weights = weights
		}
		if p == "priority" {
			v.Priorities = priorities
		}
		out = append(out, v)
	}
	return out
}

// LiveStats is a seed-averaged live cell outcome. Times are wall-clock
// seconds (the engine executes for real), so unlike simulated cells the
// numbers carry scheduling jitter; the shape — FIFO serializing, fair
// interleaving, backups under churn — is what the sweep demonstrates.
type LiveStats struct {
	// JobMakespans and JobQueueWaits hold each job's seed-averaged
	// submission→completion and submission→first-launch times, in
	// submission order.
	JobMakespans  []float64
	JobQueueWaits []float64
	// Span is first submission → last completion; Completed counts
	// finished jobs (all of them, unless a cell timed out).
	Span      float64
	Completed float64
	// Attempt totals across the cell's jobs.
	MapAttempts    float64
	ReduceAttempts float64
	BackupCopies   float64
	MapReexecs     float64
	FetchFailures  float64
	Runs           int
}

// LiveSweep is a complete live-engine experiment: variant × rate → stats.
type LiveSweep struct {
	Title    string
	Variants []string
	Rates    []float64
	Cells    map[string]map[float64]LiveStats
	// Metrics holds one seed-averaged snapshot per cell when the sweep
	// ran with Config.MetricsBucket > 0 (nil otherwise).
	Metrics map[string]map[float64]metrics.Snapshot
}

// Get returns the stats for a variant/rate cell.
func (sw *LiveSweep) Get(label string, rate float64) LiveStats { return sw.Cells[label][rate] }

// AppendMetrics adds the sweep's collected cell reports to an Export, one
// Experiment entry per (variant, rate) in sweep order.
func (sw *LiveSweep) AppendMetrics(e *metrics.Export, runs int) {
	appendCellMetrics(e, sw.Title, sw.Variants, sw.Rates, sw.Metrics, runs)
}

// liveOutcome is one live cell's result plus its metrics snapshot.
type liveOutcome struct {
	stats LiveStats
	snap  metrics.Snapshot
}

// liveWordCountJob builds job i of a live cell: a real word count over
// deterministic synthetic text (seeded per job, so every seed and backend
// reruns the identical corpus).
func liveWordCountJob(i int, lc LiveConfig) engine.Job {
	vocab := []string{"moon", "map", "reduce", "volunteer", "hadoop", "churn", "node", "data",
		"shuffle", "backup", "hybrid", "dedicated"}
	inputs := make([]string, lc.SplitsPerJob)
	for s := range inputs {
		var b strings.Builder
		for w := 0; w < lc.WordsPerSplit; w++ {
			b.WriteString(vocab[(i*17+s*31+w*7)%len(vocab)])
			b.WriteByte(' ')
		}
		inputs[s] = b.String()
	}
	return engine.Job{
		Name:    fmt.Sprintf("live-j%d", i),
		Inputs:  inputs,
		Reduces: lc.ReducesPerJob,
		Map: func(input string, emit func(k, v string)) {
			for _, w := range strings.Fields(input) {
				emit(w, "1")
			}
		},
		Reduce: func(key string, values []string) string {
			return fmt.Sprintf("%d", len(values))
		},
	}
}

// arrivalOffsets returns each job's submission offset in simulated
// seconds under the configured arrival process (all zero when jobs are
// submitted together). Poisson offsets mirror workload.PoissonArrivals:
// first job at t=0, seeded exponential inter-arrivals after it.
func (lc LiveConfig) arrivalOffsets() []float64 {
	off := make([]float64, lc.Jobs)
	switch lc.Arrivals {
	case "staggered":
		for i := range off {
			off[i] = float64(i) * lc.ArrivalInterval
		}
	case "poisson":
		if lc.ArrivalInterval <= 0 {
			break
		}
		r := rng.New(lc.ArrivalSeed)
		t := 0.0
		for i := range off {
			if i > 0 {
				t += r.Exponential(lc.ArrivalInterval)
			}
			off[i] = t
		}
	}
	return off
}

// runLiveSeed executes one live sweep cell: its own engine cluster, its
// own churn traces (seeded like the simulator's cluster layer), its own
// collector — cells share nothing, so the fanOut pool runs them
// concurrently like any simulated cell.
func (c Config) runLiveSeed(lc LiveConfig, v LiveVariant, rate float64, seed uint64) (liveOutcome, string, error) {
	fail := func(err error) (liveOutcome, string, error) {
		return liveOutcome{}, "", fmt.Errorf("%s rate=%.1f seed=%d: %w", v.Label, rate, seed, err)
	}
	traces, err := trace.GenerateFleet(rng.New(seed), trace.DefaultOutageConfig(rate),
		lc.HorizonSeconds, lc.VolatileWorkers)
	if err != nil {
		return fail(err)
	}

	ecfg := engine.DefaultConfig()
	ecfg.VolatileWorkers = lc.VolatileWorkers
	ecfg.DedicatedWorkers = lc.DedicatedWorkers
	ecfg.ReplicateToDedicated = !lc.NoDedicatedReplication
	ecfg.JobPolicy = v.Policy
	ecfg.JobWeights = v.Weights
	ecfg.Link = lc.Link
	ecfg.Faults = lc.Faults
	var col *metrics.Collector
	if c.MetricsBucket > 0 {
		col = metrics.New(c.MetricsBucket)
		col.SetSink(c.MetricsSink)
		ecfg.Metrics = col
	}
	cl, err := engine.New(ecfg)
	if err != nil {
		return fail(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), lc.Timeout)
	defer cancel()

	churnDone := make(chan struct{})
	go func() {
		engine.NewChurnRunner(cl, lc.Compression).PlayFleet(ctx, traces)
		close(churnDone)
	}()

	start := time.Now()
	offsets := lc.arrivalOffsets()
	handles := make([]*engine.JobHandle, lc.Jobs)
	submitted := make([]time.Time, lc.Jobs)
	for i := 0; i < lc.Jobs; i++ {
		// Hold each submission to its arrival offset, wall-clock
		// compressed like the churn replay.
		at := time.Duration(offsets[i] * float64(lc.Compression))
		if wait := at - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return fail(ctx.Err())
			}
		}
		job := liveWordCountJob(i, lc)
		job.Priority = v.Priorities[job.Name]
		submitted[i] = time.Now()
		if handles[i], err = cl.Submit(job); err != nil {
			return fail(err)
		}
	}

	st := LiveStats{Runs: 1}
	var last time.Time
	for i, h := range handles {
		_, prof, err := h.Wait(ctx)
		if err != nil {
			return fail(fmt.Errorf("job %d: %w", i, err))
		}
		st.JobMakespans = append(st.JobMakespans, prof.Makespan.Seconds())
		st.JobQueueWaits = append(st.JobQueueWaits, prof.QueueWait.Seconds())
		st.Completed++
		st.MapAttempts += float64(prof.Stats.MapAttempts)
		st.ReduceAttempts += float64(prof.Stats.ReduceAttempts)
		st.BackupCopies += float64(prof.Stats.BackupCopies)
		st.MapReexecs += float64(prof.Stats.MapReexecs)
		st.FetchFailures += float64(prof.Stats.FetchFailures)
		// Span is first submission → last completion: each job's end is
		// anchored to its own (possibly offset) submission time.
		if end := submitted[i].Add(prof.Makespan); end.After(last) {
			last = end
		}
	}
	st.Span = last.Sub(start).Seconds()
	cancel() // stop churn replay; workers resume
	<-churnDone

	out := liveOutcome{stats: st}
	if col != nil {
		// Retire in-flight backup attempts, then stop the master so the
		// collector is safe to snapshot.
		drainCtx, drainCancel := context.WithTimeout(context.Background(), lc.Timeout)
		_ = cl.Drain(drainCtx)
		drainCancel()
		cl.Close()
		out.snap = col.Snapshot()
	}
	progress := ""
	if c.Progress != nil {
		progress = fmt.Sprintf("%-14s rate=%.1f seed=%d span=%.3fs done=%d/%d backups=%.0f reexecs=%.0f",
			v.Label, rate, seed, st.Span, int(st.Completed), lc.Jobs, st.BackupCopies, st.MapReexecs)
	}
	return out, progress, nil
}

// mergeLiveSeeds folds per-seed live runs into the averaged cell, in seed
// order.
func mergeLiveSeeds(runs []LiveStats) LiveStats {
	var st LiveStats
	for _, r := range runs {
		if st.JobMakespans == nil {
			st.JobMakespans = make([]float64, len(r.JobMakespans))
			st.JobQueueWaits = make([]float64, len(r.JobQueueWaits))
		}
		for i := range r.JobMakespans {
			st.JobMakespans[i] += r.JobMakespans[i]
			st.JobQueueWaits[i] += r.JobQueueWaits[i]
		}
		st.Span += r.Span
		st.Completed += r.Completed
		st.MapAttempts += r.MapAttempts
		st.ReduceAttempts += r.ReduceAttempts
		st.BackupCopies += r.BackupCopies
		st.MapReexecs += r.MapReexecs
		st.FetchFailures += r.FetchFailures
		st.Runs += r.Runs
	}
	n := float64(st.Runs)
	for i := range st.JobMakespans {
		st.JobMakespans[i] /= n
		st.JobQueueWaits[i] /= n
	}
	st.Span /= n
	st.Completed /= n
	st.MapAttempts /= n
	st.ReduceAttempts /= n
	st.BackupCopies /= n
	st.MapReexecs /= n
	st.FetchFailures /= n
	return st
}

// RunLiveSweep evaluates every live variant at every churn rate across
// every seed on the shared fanOut pool: the live-engine counterpart of
// RunSweep/RunMultiSweep. Every cell owns a fresh engine cluster and
// replays its own trace-compressed churn, so cells are independent;
// because the engine executes in wall-clock time, cell *statistics* are
// not byte-reproducible — only the sweep structure (cells, ordering,
// fail-fast error selection) matches the simulated sweeps.
func (c Config) RunLiveSweep(title string, lc LiveConfig, variants []LiveVariant) (*LiveSweep, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	lc = lc.withDefaults()
	sw := &LiveSweep{Title: title, Rates: c.Rates, Cells: make(map[string]map[float64]LiveStats)}
	for _, v := range variants {
		sw.Variants = append(sw.Variants, v.Label)
		sw.Cells[v.Label] = make(map[float64]LiveStats)
	}
	cells := c.sweepCells(len(variants))
	if len(cells) == 0 {
		return sw, nil
	}

	results, err := fanOut(c, len(cells), func(i int) (liveOutcome, string, error) {
		cell := cells[i]
		return c.runLiveSeed(lc, variants[cell.variant], cell.rate, cell.seed)
	})
	if err != nil {
		return nil, err
	}

	sw.Cells, sw.Metrics = assembleCells(c, sw.Variants, results,
		func(o liveOutcome) (LiveStats, metrics.Snapshot) { return o.stats, o.snap }, mergeLiveSeeds)
	return sw, nil
}

// Render prints the live matrix: one row per (rate, variant) with span,
// completions, attempt totals and each job's makespan (queue wait in
// parentheses), wall-clock seconds.
func (sw *LiveSweep) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — wall-clock span / per-job makespan (queue wait), seconds\n", sw.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "unavail\tpolicy\tspan\tdone\tmaps\tbackups\treexecs\tper-job makespan (wait)")
	for _, rate := range sw.Rates {
		for _, v := range sw.Variants {
			st := sw.Cells[v][rate]
			fmt.Fprintf(tw, "%.1f\t%s\t%.3f\t%.1f\t%.1f\t%.1f\t%.1f",
				rate, v, st.Span, st.Completed, st.MapAttempts, st.BackupCopies, st.MapReexecs)
			for i, mk := range st.JobMakespans {
				sep := "\t"
				if i > 0 {
					sep = " "
				}
				fmt.Fprintf(tw, "%s%.3f(%.3f)", sep, mk, st.JobQueueWaits[i])
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}
