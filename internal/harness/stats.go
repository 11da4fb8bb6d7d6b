package harness

import (
	"slices"

	"repro/internal/metrics"
)

// JobStats is one job's row of a run, or of a cell's seed mean: what either
// backend reports per job. A simulated job fills the makespan and the task
// profile of Table II and Figure 5; a live job fills the makespan, the
// queue wait and the attempt counts. Times are simulated seconds in a
// simulated cell and wall-clock seconds in a live one.
type JobStats struct {
	// Makespan is submission → completion (for a capped job: submission →
	// horizon); QueueWait is submission → first launch.
	Makespan  float64
	QueueWait float64

	AvgMapTime     float64
	AvgShuffleTime float64
	AvgReduceTime  float64
	KilledMaps     float64
	KilledReduces  float64
	Duplicated     float64
	Invalidations  float64

	MapAttempts    float64
	ReduceAttempts float64
	BackupCopies   float64
	MapReexecs     float64
	FetchFailures  float64
}

// fields lists every number of a row once, for the seed fold.
func (j *JobStats) fields() []*float64 {
	return []*float64{
		&j.Makespan, &j.QueueWait,
		&j.AvgMapTime, &j.AvgShuffleTime, &j.AvgReduceTime,
		&j.KilledMaps, &j.KilledReduces, &j.Duplicated, &j.Invalidations,
		&j.MapAttempts, &j.ReduceAttempts, &j.BackupCopies, &j.MapReexecs, &j.FetchFailures,
	}
}

// Stats is one run's outcome (one seed of a cell), or, read through
// Sweep.Get, the cell's seed mean: one row per job in submission order (a
// single-job cell has one) plus the run-level numbers.
type Stats struct {
	Jobs []JobStats
	// Span is run start → last completion; Throughput is completed jobs
	// per hour of simulated span; Completed counts jobs that succeeded.
	Span       float64
	Throughput float64
	Completed  float64
	// ReplicationBytes is the DFS re-replication traffic of the run.
	ReplicationBytes float64
	// Capped marks a run where a job hit the simulation horizon or did not
	// succeed (the paper's "could not complete" cases); a cell's mean is
	// capped when any of its seeds is.
	Capped bool
}

// first returns row 0, the job the single-job tables read; a cell the
// sweep did not run (Table II naming a line it lacks) reads as zeros.
func (st Stats) first() JobStats {
	if len(st.Jobs) == 0 {
		return JobStats{}
	}
	return st.Jobs[0]
}

// mergeSeeds folds per-seed runs into the averaged cell statistics. The
// accumulation order is the seed order, so the floating-point result is
// bit-identical to a serial sweep.
func mergeSeeds(runs []Stats) Stats {
	st := Stats{Jobs: make([]JobStats, len(runs[0].Jobs))}
	for _, r := range runs {
		for i := range r.Jobs {
			sum := st.Jobs[i].fields()
			for k, f := range r.Jobs[i].fields() {
				*sum[k] += *f
			}
		}
		st.Span += r.Span
		st.Throughput += r.Throughput
		st.Completed += r.Completed
		st.ReplicationBytes += r.ReplicationBytes
		st.Capped = st.Capped || r.Capped
	}
	n := float64(len(runs))
	for i := range st.Jobs {
		for _, f := range st.Jobs[i].fields() {
			*f /= n
		}
	}
	st.Span /= n
	st.Throughput /= n
	st.Completed /= n
	st.ReplicationBytes /= n
	return st
}

// Sweep is a complete experiment's data: every run it made, kept per seed.
// The tables read a cell's seed mean (Get); Runs gives a cell's seeds one
// by one, which pair across lines: every line draws its churn from the same
// seeds.
type Sweep struct {
	Title    string
	Variants []string
	Rates    []float64
	Seeds    []uint64
	// runs holds one Stats per (variant, rate, seed), in that serial order.
	runs []Stats
	// snaps holds one seed-averaged metrics snapshot per (variant, rate),
	// in serial order, when the sweep ran with Config.MetricsBucket > 0
	// (nil otherwise).
	snaps []metrics.Snapshot
}

// Runs returns a cell's per-seed stats in seed order, or nil for a line or
// rate the sweep did not run.
func (sw *Sweep) Runs(label string, rate float64) []Stats {
	v, r := slices.Index(sw.Variants, label), slices.Index(sw.Rates, rate)
	if v < 0 || r < 0 {
		return nil
	}
	k := (v*len(sw.Rates) + r) * len(sw.Seeds)
	return sw.runs[k : k+len(sw.Seeds)]
}

// Get returns a cell's seed mean; a cell the sweep did not run reads as
// zeros.
func (sw *Sweep) Get(label string, rate float64) Stats {
	runs := sw.Runs(label, rate)
	if runs == nil {
		return Stats{}
	}
	return mergeSeeds(runs)
}

// AppendMetrics adds the sweep's collected cell reports to an Export, one
// Experiment entry per (variant, rate) in sweep order. A sweep run without
// metrics contributes nothing.
func (sw *Sweep) AppendMetrics(e *metrics.Export) {
	for i, snap := range sw.snaps {
		e.Add(sw.Title, sw.Variants[i/len(sw.Rates)], sw.Rates[i%len(sw.Rates)], len(sw.Seeds), snap)
	}
}
