package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
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
	// ArrivalSeed (first job at t=0); workload.Arrivals draws them, as it
	// does for the simulated streams.
	// Offsets are simulated seconds, wall-clock compressed by
	// Compression exactly like the churn traces.
	Arrivals        string
	ArrivalInterval float64
	ArrivalSeed     uint64

	// SessionExpiry is the engine's session-expiry clock
	// (engine.Config.SessionExpiry; 0 never expires a session).
	SessionExpiry time.Duration
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
	}
}

// liveCellTimeout bounds one cell's wall-clock execution, and its drain
// after. A shipped live cell finishes in seconds; the bound only keeps a
// wedged cell from hanging a sweep.
const liveCellTimeout = 2 * time.Minute

// Validate checks the cell shape (positive clocks and sizes, the arrival
// process) and the engine configuration every cell runs, so session-expiry
// and fault mistakes (an expiry under the engine's lease, malformed rates
// or partition windows) surface at compile time rather than mid-sweep. A
// line's cell adds its policy (LiveCell.check).
func (lc LiveConfig) Validate() error { return lc.validate(lc.engineConfig()) }

func (lc LiveConfig) validate(ecfg engine.Config) error {
	if lc.HorizonSeconds <= 0 || lc.Compression <= 0 {
		return fmt.Errorf("harness: live horizon %vs and compression %v must be positive",
			lc.HorizonSeconds, lc.Compression)
	}
	if lc.Jobs < 1 || lc.SplitsPerJob < 1 || lc.WordsPerSplit < 1 || lc.ReducesPerJob < 1 {
		return fmt.Errorf("harness: live jobs %d, splits %d, words per split %d and reduces %d must be >= 1",
			lc.Jobs, lc.SplitsPerJob, lc.WordsPerSplit, lc.ReducesPerJob)
	}
	switch lc.Arrivals {
	case "", "staggered", "poisson":
	default:
		return fmt.Errorf("harness: unknown live arrival process %q (want staggered or poisson)", lc.Arrivals)
	}
	if lc.Arrivals != "" && lc.ArrivalInterval < 0 {
		return fmt.Errorf("harness: live arrival interval %v must be >= 0", lc.ArrivalInterval)
	}
	return ecfg.Validate()
}

// engineConfig lowers the cell shape to the engine's configuration; a cell
// adds its line's policy and its collector.
func (lc LiveConfig) engineConfig() engine.Config {
	ecfg := engine.DefaultConfig()
	ecfg.VolatileWorkers = lc.VolatileWorkers
	ecfg.DedicatedWorkers = lc.DedicatedWorkers
	ecfg.SessionExpiry = lc.SessionExpiry
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
// the same cell shape, with the weights on the "weighted" line and the
// priorities on the "priority" line. A name or weight the engine refuses
// fails the line's check before any cell runs.
func LiveVariants(lc LiveConfig, policies []string, weights map[string]float64, priorities map[string]int) []Variant {
	if len(policies) == 0 {
		policies = []string{"fifo", "fair"}
	}
	var out []Variant
	for _, p := range policies {
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

// engineConfig is the configuration the cell's engine cluster runs: the
// cell shape, the line's policy and the runner's collector.
func (v LiveCell) engineConfig(col *metrics.Collector) engine.Config {
	ecfg := v.Config.engineConfig()
	ecfg.JobPolicy = v.Policy
	ecfg.JobWeights = v.Weights
	ecfg.Metrics = col
	return ecfg
}

// check validates the cell shape and the engine configuration the cell
// would run, the line's policy included.
func (v LiveCell) check(Config, float64) error { return v.Config.validate(v.engineConfig(nil)) }

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

	cl, err := engine.New(v.engineConfig(col))
	if err != nil {
		return Stats{}, "", err
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), liveCellTimeout)
	defer cancel()

	churnDone := make(chan struct{})
	go func() {
		engine.NewChurnRunner(cl, lc.Compression).PlayFleet(ctx, traces)
		close(churnDone)
	}()

	start := time.Now()
	offsets := workload.Arrivals(lc.Arrivals, lc.Jobs, lc.ArrivalInterval, lc.ArrivalSeed)
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

	var st Stats
	var last time.Time
	var backups, reexecs float64
	finals := make([]engine.JobStatus, len(handles))
	for i, h := range handles {
		_, status, err := h.Wait(ctx)
		if err != nil {
			return Stats{}, "", fmt.Errorf("job %d: %w", i, err)
		}
		finals[i] = status
		js := JobStats{
			Makespan:       status.Makespan.Seconds(),
			QueueWait:      status.QueueWait.Seconds(),
			MapAttempts:    float64(status.Stats.MapAttempts),
			ReduceAttempts: float64(status.Stats.ReduceAttempts),
			BackupCopies:   float64(status.Stats.BackupCopies),
			MapReexecs:     float64(status.Stats.MapReexecs),
			FetchFailures:  float64(status.Stats.FetchFailures),
		}
		st.Jobs = append(st.Jobs, js)
		st.Completed++
		backups += js.BackupCopies
		reexecs += js.MapReexecs
		// Span is first submission → last completion: each job's end is
		// anchored to its own (possibly offset) submission time.
		if end := submitted[i].Add(status.Makespan); end.After(last) {
			last = end
		}
	}
	st.Span = last.Sub(start).Seconds()
	cancel() // stop churn replay; workers resume
	<-churnDone

	if col != nil {
		// Retire in-flight backup attempts, then stop the master so the
		// collector is safe to snapshot.
		drainCtx, drainCancel := context.WithTimeout(context.Background(), liveCellTimeout)
		_ = cl.Drain(drainCtx)
		drainCancel()
		cl.Close()
		// The engine mints no instrument per job; the cell's report keeps
		// one queue wait and one makespan per job, from its final status.
		for _, fs := range finals {
			col.Gauge(metrics.LayerEngine, "queue_wait_seconds", fs.Job).Set(fs.QueueWait.Seconds())
			col.Gauge(metrics.LayerEngine, "makespan_seconds", fs.Job).Set(fs.Makespan.Seconds())
		}
	}
	line := ""
	if c.Progress != nil {
		line = fmt.Sprintf("span=%.3fs done=%d/%d backups=%.0f reexecs=%.0f",
			st.Span, int(st.Completed), lc.Jobs, backups, reexecs)
	}
	return st, line, nil
}
