package harness

import "repro/internal/metrics"

// JobStats is one job's seed-averaged row of a cell: what either backend
// reports per job. A simulated job fills the makespan and the task profile
// of Table II and Figure 5; a live job fills the makespan, the queue wait
// and the attempt counts. Times are simulated seconds in a simulated cell
// and wall-clock seconds in a live one.
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

// Stats is a seed-averaged cell outcome: one row per job in submission
// order (a single-job cell has one) plus the run-level numbers.
type Stats struct {
	Jobs []JobStats
	// Span is run start → last completion; Throughput is completed jobs
	// per hour of simulated span; Completed counts jobs that succeeded.
	Span       float64
	Throughput float64
	Completed  float64
	// ReplicationBytes is the DFS re-replication traffic of the run.
	ReplicationBytes float64
	// Capped marks cells where, in some seed, a job hit the simulation
	// horizon or did not succeed (the paper's "could not complete" cases).
	Capped bool
	Runs   int
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
		st.Runs += r.Runs
	}
	n := float64(st.Runs)
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

// Sweep is a complete experiment's data: variant × rate → stats.
type Sweep struct {
	Title    string
	Variants []string
	Rates    []float64
	Cells    map[string]map[float64]Stats
	// Metrics holds one seed-averaged metrics snapshot per cell when the
	// sweep ran with Config.MetricsBucket > 0 (nil otherwise).
	Metrics map[string]map[float64]metrics.Snapshot
}

// Get returns the stats for a variant/rate cell.
func (sw *Sweep) Get(label string, rate float64) Stats { return sw.Cells[label][rate] }

// AppendMetrics adds the sweep's collected cell reports to an Export, one
// Experiment entry per (variant, rate) in sweep order. A sweep run without
// metrics contributes nothing.
func (sw *Sweep) AppendMetrics(e *metrics.Export, runs int) {
	if sw.Metrics == nil {
		return
	}
	for _, v := range sw.Variants {
		for _, rate := range sw.Rates {
			e.Add(sw.Title, v, rate, runs, sw.Metrics[v][rate])
		}
	}
}
