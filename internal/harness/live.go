package harness

import (
	"context"
	"fmt"
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
// harness Config (Scale does not apply), so live lines fan out over the
// same worker pool as the simulated ones. Start from DefaultLiveConfig: a
// zero field here is a zero, not a default.
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

// Validate checks the arrival process and the engine configuration every
// cell runs, so link/fault mistakes (heartbeat not shorter than the
// suspension timeout, malformed rates or partition windows) surface at
// compile time rather than mid-sweep.
func (lc LiveConfig) Validate() error {
	switch lc.Arrivals {
	case "", "staggered", "poisson":
	default:
		return fmt.Errorf("harness: unknown live arrival process %q (want staggered or poisson)", lc.Arrivals)
	}
	if lc.Arrivals != "" && lc.ArrivalInterval < 0 {
		return fmt.Errorf("harness: live arrival interval %v must be >= 0", lc.ArrivalInterval)
	}
	return lc.engineConfig().Validate()
}

// engineConfig lowers the cell shape to the engine's configuration; a cell
// adds its line's policy and its collector.
func (lc LiveConfig) engineConfig() engine.Config {
	ecfg := engine.DefaultConfig()
	ecfg.VolatileWorkers = lc.VolatileWorkers
	ecfg.DedicatedWorkers = lc.DedicatedWorkers
	ecfg.ReplicateToDedicated = !lc.NoDedicatedReplication
	ecfg.Link = lc.Link
	ecfg.Faults = lc.Faults
	return ecfg
}

// LiveCell is a live-engine cell: its own engine cluster executing real
// word counts (job i is "live-j<i>", the key Weights and Priorities use)
// under its own trace-compressed churn, arbitrated by the line's policy.
// Times are wall-clock seconds, so unlike simulated cells the numbers
// carry scheduling jitter; the shape — FIFO serializing, fair
// interleaving, backups under churn — is what a live sweep demonstrates.
type LiveCell struct {
	Config     LiveConfig
	Policy     string
	Weights    map[string]float64
	Priorities map[string]int
}

// LiveVariants builds one live line per policy name (default when empty:
// fifo vs fair, mirroring the simulator's multi-job default), every one on
// the same cell shape. Names are canonicalized first, so alias spellings
// ("weighted-fair", "strict-priority") still carry their
// weights/priorities; a name that does not resolve passes through and
// fails hard in the engine's config validation at run time.
func LiveVariants(lc LiveConfig, policies []string, weights map[string]float64, priorities map[string]int) []Variant {
	if len(policies) == 0 {
		policies = []string{"fifo", "fair"}
	}
	var out []Variant
	for _, p := range policies {
		if pol, err := mapred.JobPolicyByName(p); err == nil {
			p = pol.Name()
		}
		cell := LiveCell{Config: lc, Policy: p}
		if p == "weighted" {
			cell.Weights = weights
		}
		if p == "priority" {
			cell.Priorities = priorities
		}
		out = append(out, Variant{Label: "live-" + p, Cell: cell})
	}
	return out
}

// job builds job i of a cell: a real word count over its own synthetic
// corpus (salted per job, so sibling jobs count different text and every
// seed and backend reruns the identical one).
func (lc LiveConfig) job(i int) engine.Job {
	return engine.WordCountJob(fmt.Sprintf("live-j%d", i), i*17, lc.SplitsPerJob, lc.WordsPerSplit, lc.ReducesPerJob)
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

// run executes one live cell: its own engine cluster and its own churn
// traces (seeded like the simulator's cluster layer). It drains and closes
// the cluster before it returns, because the runner snapshots the
// collector right after.
func (v LiveCell) run(c Config, rate float64, seed uint64, col *metrics.Collector) (Stats, string, error) {
	lc := v.Config
	traces, err := trace.GenerateFleet(rng.New(seed), trace.DefaultOutageConfig(rate),
		lc.HorizonSeconds, lc.VolatileWorkers)
	if err != nil {
		return Stats{}, "", err
	}

	ecfg := lc.engineConfig()
	ecfg.JobPolicy = v.Policy
	ecfg.JobWeights = v.Weights
	ecfg.Metrics = col
	cl, err := engine.New(ecfg)
	if err != nil {
		return Stats{}, "", err
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
				return Stats{}, "", ctx.Err()
			}
		}
		job := lc.job(i)
		job.Priority = v.Priorities[job.Name]
		submitted[i] = time.Now()
		if handles[i], err = cl.Submit(job); err != nil {
			return Stats{}, "", err
		}
	}

	st := Stats{Runs: 1}
	var last time.Time
	var backups, reexecs float64
	for i, h := range handles {
		_, prof, err := h.Wait(ctx)
		if err != nil {
			return Stats{}, "", fmt.Errorf("job %d: %w", i, err)
		}
		js := JobStats{
			Makespan:       prof.Makespan.Seconds(),
			QueueWait:      prof.QueueWait.Seconds(),
			MapAttempts:    float64(prof.Stats.MapAttempts),
			ReduceAttempts: float64(prof.Stats.ReduceAttempts),
			BackupCopies:   float64(prof.Stats.BackupCopies),
			MapReexecs:     float64(prof.Stats.MapReexecs),
			FetchFailures:  float64(prof.Stats.FetchFailures),
		}
		st.Jobs = append(st.Jobs, js)
		st.Completed++
		backups += js.BackupCopies
		reexecs += js.MapReexecs
		// Span is first submission → last completion: each job's end is
		// anchored to its own (possibly offset) submission time.
		if end := submitted[i].Add(prof.Makespan); end.After(last) {
			last = end
		}
	}
	st.Span = last.Sub(start).Seconds()
	cancel() // stop churn replay; workers resume
	<-churnDone

	if col != nil {
		// Retire in-flight backup attempts, then stop the master so the
		// collector is safe to snapshot.
		drainCtx, drainCancel := context.WithTimeout(context.Background(), lc.Timeout)
		_ = cl.Drain(drainCtx)
		drainCancel()
		cl.Close()
	}
	line := ""
	if c.Progress != nil {
		line = fmt.Sprintf("span=%.3fs done=%d/%d backups=%.0f reexecs=%.0f",
			st.Span, int(st.Completed), lc.Jobs, backups, reexecs)
	}
	return st, line, nil
}
