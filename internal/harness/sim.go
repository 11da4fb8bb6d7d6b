package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// SimCell is a simulated cell: one single-threaded simulation of a job
// stream on a churning fleet.
type SimCell struct {
	// Build returns the stack for a churn realization; cs carries the
	// sweep's rate and seed, Build adds the fleet and the policies.
	Build func(cs core.ClusterSpec) core.Options
	// Workload is the job stream at scale 1 (Config.Scale shrinks it); a
	// single job is workload.Single.
	Workload workload.MultiSpec
	// Stream marks a line of a sweep that renders the stream table: its
	// progress line reports span and throughput, whatever the stream's
	// length, where a single-job line reports the job's profile.
	Stream bool
}

// Run builds the stack for one churn realization (rate, seed), runs the
// stream on it at 1/scale size, and returns the options it ran under with
// the outcome. It is the one way a simulated cell executes: the sweep's
// cells and moonsim's single cell both come through here.
func (sc SimCell) Run(scale int, rate float64, seed uint64, col *metrics.Collector) (core.Options, core.Result, error) {
	opts := sc.Build(core.ClusterSpec{UnavailabilityRate: rate, Seed: seed})
	opts.Metrics = col
	m := workload.ScaleMulti(sc.Workload, scale)
	s, err := core.NewForWorkload(opts, m)
	if err != nil {
		return opts, core.Result{}, err
	}
	res, err := s.RunWorkload(m)
	return opts, res, err
}

// check builds the stack and the scaled stream a cell at rate would run and
// checks them the way core.NewForWorkload does, without generating a trace
// or simulating.
func (sc SimCell) check(c Config, rate float64) error {
	opts := sc.Build(core.ClusterSpec{UnavailabilityRate: rate})
	return core.CheckWorkload(opts, workload.ScaleMulti(sc.Workload, c.Scale))
}

func (sc SimCell) run(c Config, rate float64, seed uint64, col *metrics.Collector) (Stats, string, error) {
	_, res, err := sc.Run(c.Scale, rate, seed, col)
	if err != nil {
		return Stats{}, "", err
	}
	st := Stats{
		Span:       res.Span,
		Throughput: res.Throughput,
		Completed:  float64(res.Completed),
	}
	for _, jr := range res.Jobs {
		p := jr.Profile
		st.Jobs = append(st.Jobs, JobStats{
			Makespan:       p.Makespan,
			AvgMapTime:     p.AvgMapTime,
			AvgShuffleTime: p.AvgShuffleTime,
			AvgReduceTime:  p.AvgReduceTime,
			KilledMaps:     float64(p.KilledMaps),
			KilledReduces:  float64(p.KilledReduces),
			Duplicated:     float64(p.DuplicatedTasks),
			Invalidations:  float64(p.MapInvalidations),
		})
		if jr.HitHorizon || p.State != mapred.JobSucceeded {
			st.Capped = true
		}
	}
	switch {
	case c.Progress == nil:
		return st, "", nil
	case sc.Stream:
		return st, fmt.Sprintf("span=%.0fs done=%d/%d tput=%.2f/h capped=%v",
			res.Span, res.Completed, len(res.Jobs), res.Throughput, st.Capped), nil
	}
	p, d := res.Jobs[0].Profile, res.DFS
	return st, fmt.Sprintf("makespan=%.0fs dup=%d killedM=%d capped=%v "+
		"map=%.0fs shuffle=%.0fs reduce=%.0fs declines=%d raises=%d repGB=%.1f stalls=%d",
		p.Makespan, p.DuplicatedTasks, p.KilledMaps, res.Jobs[0].HitHorizon,
		p.AvgMapTime, p.AvgShuffleTime, p.AvgReduceTime,
		d.DedicatedDeclines, d.AdaptiveRaises, d.ReplicationBytes/1e9, d.ReadStalls), nil
}
