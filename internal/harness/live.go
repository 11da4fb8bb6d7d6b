package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
)

// LiveCell is a live-engine cell: its own engine cluster executing real
// word counts (actual counting, not a resource model; job i is "live-j<i>",
// the key the engine's weights and Priorities use) under its own
// trace-compressed churn, arbitrated by the line's policy. The sweep axes —
// rates, seeds, parallelism, metrics — come from the shared Config (Scale
// does not apply). Times are wall-clock seconds, so unlike simulated cells
// the numbers carry scheduling jitter; the shape — FIFO serializing, fair
// interleaving, backups under churn — is what a live sweep demonstrates.
type LiveCell struct {
	// Engine is the cluster every realization runs: the worker pool, the
	// line's policy and weights, the session clock and the faults. The
	// runner sets its collector.
	Engine engine.Config
	// HorizonSeconds is the churn-trace length in simulated seconds; the
	// sweep's rate drives each trace's unavailable fraction exactly like
	// the simulator's cluster layer. Compression maps one simulated second
	// to this much wall time, for the traces and the Offsets alike (e.g.
	// time.Millisecond turns a 120 s trace into 120 ms of churn).
	HorizonSeconds float64
	Compression    time.Duration
	// Offsets holds one submission time per job, in simulated seconds.
	Offsets []float64
	// SplitsPerJob / WordsPerSplit / ReducesPerJob size each job.
	SplitsPerJob, WordsPerSplit, ReducesPerJob int
	// Priorities are per-job-name ranks for the priority policy.
	Priorities map[string]int
}

// liveCellTimeout bounds one cell's wall-clock execution, and its drain
// after. A shipped live cell finishes in seconds; the bound only keeps a
// wedged cell from hanging a sweep.
const liveCellTimeout = 2 * time.Minute

// check validates the cell's range rules (positive clocks, at least one
// job, sizes of at least one, offsets that are non-negative and never
// decrease) and the engine configuration it runs, the line's policy
// included, so a mistake surfaces at compile time rather than mid-sweep.
func (v LiveCell) check(Config, float64) error {
	if !(v.HorizonSeconds > 0) || v.Compression <= 0 {
		return fmt.Errorf("harness: live horizon %vs and compression %v must be positive",
			v.HorizonSeconds, v.Compression)
	}
	if len(v.Offsets) < 1 || v.SplitsPerJob < 1 || v.WordsPerSplit < 1 || v.ReducesPerJob < 1 {
		return fmt.Errorf("harness: live jobs %d, splits %d, words per split %d and reduces %d must be >= 1",
			len(v.Offsets), v.SplitsPerJob, v.WordsPerSplit, v.ReducesPerJob)
	}
	prev := 0.0
	for i, off := range v.Offsets {
		if !(off >= prev) {
			return fmt.Errorf("harness: live job %d offset %vs (offsets must be non-negative and non-decreasing)", i, off)
		}
		prev = off
	}
	return v.Engine.Validate()
}

// job builds job i of a cell: a real word count over its own synthetic
// corpus (salted per job, so sibling jobs count different text and every
// seed and backend reruns the identical one). It is built when the cell
// runs, so a compiled line holds no input.
func (v LiveCell) job(i int) engine.Job {
	job := engine.WordCountJob(fmt.Sprintf("live-j%d", i), i*17, v.SplitsPerJob, v.WordsPerSplit, v.ReducesPerJob)
	job.Priority = v.Priorities[job.Name]
	return job
}

// run executes one live cell: its own engine cluster and its own churn
// traces (seeded like the simulator's cluster layer). It drains and closes
// the cluster before it returns, because the runner snapshots the
// collector right after.
func (v LiveCell) run(c Config, rate float64, seed uint64, col *metrics.Collector) (Stats, string, error) {
	traces, err := trace.GenerateFleet(rng.New(seed), trace.DefaultOutageConfig(rate),
		v.HorizonSeconds, v.Engine.VolatileWorkers)
	if err != nil {
		return Stats{}, "", err
	}

	ecfg := v.Engine
	ecfg.Metrics = col
	cl, err := engine.New(ecfg)
	if err != nil {
		return Stats{}, "", err
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), liveCellTimeout)
	defer cancel()

	churnDone := make(chan struct{})
	go func() {
		engine.PlayChurn(ctx, cl, traces, v.Compression)
		close(churnDone)
	}()

	start := time.Now()
	handles := make([]*engine.JobHandle, len(v.Offsets))
	submitted := make([]time.Time, len(v.Offsets))
	for i, off := range v.Offsets {
		// Hold each submission to its arrival offset, wall-clock
		// compressed like the churn replay.
		at := time.Duration(off * float64(v.Compression))
		if wait := at - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return Stats{}, "", ctx.Err()
			}
		}
		submitted[i] = time.Now()
		if handles[i], err = cl.Submit(v.job(i)); err != nil {
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
			st.Span, int(st.Completed), len(v.Offsets), backups, reexecs)
	}
	return st, line, nil
}
