// Package core is the public façade of the MOON reproduction: it wires the
// discrete-event simulator, the churn-driven cluster, the network model,
// the MOON/Hadoop DFS and the MOON/Hadoop MapReduce runtime into a single
// Simulation value, and provides the policy presets used throughout the
// paper's evaluation.
//
// ExampleSimulation_RunWorkload shows a typical use, from a cluster spec
// to a job's execution profile; go test checks its output.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ClusterSpec describes the emulated fleet and its churn.
type ClusterSpec struct {
	VolatileNodes  int
	DedicatedNodes int

	// UnavailabilityRate is the target fraction of time each volatile
	// node is away (the paper sweeps 0.1, 0.3, 0.5).
	UnavailabilityRate float64

	// TreatAllVolatile types every machine volatile and churns the
	// dedicated ones too — the paper's Hadoop baseline, which "cannot
	// differentiate between volatile and dedicated".
	TreatAllVolatile bool

	// Seed drives trace generation; distinct seeds give independent
	// churn realizations.
	Seed uint64

	// Horizon is the trace length in seconds (default: 8 hours, the
	// paper's trace length).
	Horizon float64

	// Outage overrides the outage model (default: the paper's
	// mean-409 s truncated normal).
	Outage *trace.OutageConfig

	// Correlated, when set, layers group-correlated lab-session outages
	// (paper Section III) on top of the independent churn; it overrides
	// Outage/UnavailabilityRate for volatile-trace generation.
	Correlated *trace.CorrelatedConfig
}

func (c ClusterSpec) withDefaults() ClusterSpec {
	if c.Horizon == 0 {
		c.Horizon = 8 * 3600
	}
	return c
}

// outage is the independent outage model the volatile traces are drawn
// from, when Correlated does not replace it.
func (c ClusterSpec) outage() trace.OutageConfig {
	if c.Outage != nil {
		return *c.Outage
	}
	return trace.DefaultOutageConfig(c.UnavailabilityRate)
}

// Options assembles a full simulation configuration.
type Options struct {
	Cluster ClusterSpec
	Net     netmodel.Config
	DFS     dfs.Config
	Sched   mapred.SchedConfig

	// Metrics, when non-nil, receives cross-layer instrumentation from
	// every subsystem (sim, cluster, net, dfs, mapred). Collection is
	// strictly passive: a run with a collector is bit-identical to the
	// same run without one, and a nil collector leaves every hot path
	// allocation-free.
	Metrics *metrics.Collector
}

// Validate rejects options NewSimulation cannot build, or could build only
// into a run that fails part way: an empty fleet or a negative node count, a
// horizon that is not positive, and whatever the owners of the churn model,
// the fabric, the file system and the scheduler reject. It builds nothing.
func (o Options) Validate() error {
	cs := o.Cluster.withDefaults()
	if cs.VolatileNodes < 0 || cs.DedicatedNodes < 0 || cs.VolatileNodes+cs.DedicatedNodes == 0 {
		return fmt.Errorf("core: cluster needs nodes (got %d volatile, %d dedicated)",
			cs.VolatileNodes, cs.DedicatedNodes)
	}
	if !(cs.Horizon > 0) {
		return fmt.Errorf("core: horizon %v must be positive", cs.Horizon)
	}
	churn := cs.outage().Validate
	if cs.Correlated != nil {
		churn = cs.Correlated.Validate
	}
	if err := churn(); err != nil {
		return err
	}
	if err := o.Net.Validate(); err != nil {
		return err
	}
	if err := o.DFS.Validate(); err != nil {
		return err
	}
	return o.Sched.Validate()
}

// HadoopPreset configures stock Hadoop with its 600 s TrackerExpiryInterval
// (the paper also sweeps 300 and 60 seconds: set Sched.TrackerExpiry).
func HadoopPreset(cs ClusterSpec) Options {
	return Options{
		Cluster: cs,
		Net:     netmodel.DefaultConfig(),
		DFS:     dfs.DefaultConfig(dfs.ModeHadoop),
		Sched:   mapred.DefaultSchedConfig(mapred.PolicyHadoop),
	}
}

// MOONPreset configures the full MOON stack; hybrid selects the
// hybrid-aware scheduler variant (MOON-Hybrid in the figures).
func MOONPreset(cs ClusterSpec, hybrid bool) Options {
	sched := mapred.DefaultSchedConfig(mapred.PolicyMOON)
	sched.Hybrid = hybrid
	return Options{
		Cluster: cs,
		Net:     netmodel.DefaultConfig(),
		DFS:     dfs.DefaultConfig(dfs.ModeMOON),
		Sched:   sched,
	}
}

// Simulation is one fully wired instance of the system.
type Simulation struct {
	Sim     *sim.Simulation
	Cluster *cluster.Cluster
	Net     *netmodel.Network
	FS      *dfs.FileSystem
	JT      *mapred.JobTracker

	opts Options
}

// NewSimulation builds the whole stack: traces, cluster, network, DFS and
// JobTracker.
func NewSimulation(opts Options) (*Simulation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cs := opts.Cluster.withDefaults()
	opts.Cluster = cs
	ocfg := cs.outage()
	r := rng.New(cs.Seed)
	s := sim.New()
	s.Instrument(opts.Metrics)

	genFleet := func(n int) ([]trace.Trace, error) {
		if cs.Correlated != nil {
			return trace.GenerateCorrelatedFleet(r, *cs.Correlated, cs.Horizon, n)
		}
		return trace.GenerateFleet(r, ocfg, cs.Horizon, n)
	}
	volTraces, err := genFleet(cs.VolatileNodes)
	if err != nil {
		return nil, err
	}
	var cl *cluster.Cluster
	if cs.TreatAllVolatile {
		extra, err := genFleet(cs.DedicatedNodes)
		if err != nil {
			return nil, err
		}
		cl = cluster.NewAllVolatile(s, volTraces, extra)
	} else {
		cl = cluster.New(s, cluster.Config{VolatileTraces: volTraces, DedicatedNodes: cs.DedicatedNodes})
	}

	cl.Instrument(opts.Metrics)
	// The target churn rate, for comparing realized availability against.
	opts.Metrics.Gauge(metrics.LayerCluster, "unavail_rate_target", "").Set(cs.UnavailabilityRate)

	net := netmodel.New(s, cl, opts.Net)
	net.Instrument(opts.Metrics)
	fsys, err := dfs.New(s, cl, net, opts.DFS)
	if err != nil {
		return nil, err
	}
	fsys.Instrument(opts.Metrics)
	jt, err := mapred.NewJobTracker(s, cl, fsys, net, opts.Sched)
	if err != nil {
		return nil, err
	}
	jt.Instrument(opts.Metrics)
	return &Simulation{Sim: s, Cluster: cl, Net: net, FS: fsys, JT: jt, opts: opts}, nil
}

// StageInput materializes a job input file (no simulated cost), as the
// paper does before each measured run.
func (s *Simulation) StageInput(name string, size float64, factor dfs.Factor) error {
	_, err := s.FS.CreateStaged(name, size, dfs.Reliable, factor)
	return err
}

// JobResult is the outcome of one job of a run.
type JobResult struct {
	Profile mapred.Profile
	// HitHorizon marks a job still unfinished at the trace horizon; its
	// Makespan is then the time from submission to the horizon.
	HitHorizon bool
}

// Result is the outcome of one run of a job stream; a single job is the
// stream of one (workload.Single) and reads Jobs[0].
type Result struct {
	// Jobs lists per-job outcomes in submission order.
	Jobs []JobResult
	DFS  dfs.Metrics
	// Span is run start → last job completion (the horizon when capped);
	// the denominator of Throughput.
	Span float64
	// Completed counts jobs that succeeded.
	Completed int
	// Throughput is completed jobs per hour of span.
	Throughput float64
}

// CheckWorkload rejects a stack and stream that cannot run together,
// without building either: the options and the stream must each validate,
// and under the MOON scheduler, which declares a job done only once its
// output holds its replication factor, the fleet must hold the output
// copies of every job that writes output: enough dedicated-typed and
// volatile-typed nodes on the MOON data layer (a fleet treated all-volatile
// types none dedicated), and enough nodes on the Hadoop one, which counts
// every copy alike.
func CheckWorkload(opts Options, m workload.MultiSpec) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if opts.Sched.Policy != mapred.PolicyMOON {
		return nil
	}
	d, v := opts.Cluster.DedicatedNodes, opts.Cluster.VolatileNodes
	if opts.Cluster.TreatAllVolatile {
		d, v = 0, d+v
	}
	for _, mj := range m.Jobs {
		if mj.Spec.Job.OutputPerReduce <= 0 {
			continue // no output file, nothing to wait for
		}
		f := mj.Spec.Job.OutputFactor
		short := f.D > d || f.V > v
		if opts.DFS.Mode == dfs.ModeHadoop {
			short = f.D+f.V > d+v
		}
		if short {
			return fmt.Errorf("core: job %q writes output at factor {D:%d, V:%d}, which MOON waits for, "+
				"but the fleet types %d dedicated and %d volatile nodes", mj.Spec.Job.Name, f.D, f.V, d, v)
		}
	}
	return nil
}

// NewForWorkload builds a simulation whose DFS block size matches the
// workload's common input split, so map i reads input block i, as in
// Hadoop (jobs that skip input reads impose no constraint;
// MultiSpec.Validate enforces that the rest agree).
func NewForWorkload(opts Options, m workload.MultiSpec) (*Simulation, error) {
	if err := CheckWorkload(opts, m); err != nil {
		return nil, err
	}
	if split := m.SplitSize(); split > 0 {
		opts.DFS.BlockSize = split
	}
	return NewSimulation(opts)
}

// RunWorkload stages every job's input up front (no simulated cost, as the
// paper does before each measured run), submits each job at its offset
// (relative to the simulation clock at call time), and runs until all
// jobs finish or the trace horizon ends. Each input file is staged with
// one block per map, which NewForWorkload arranges. Job arbitration
// follows the scheduler's configured JobPolicy.
func (s *Simulation) RunWorkload(m workload.MultiSpec) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	origin := s.Sim.Now()
	for _, mj := range m.Jobs {
		if err := s.StageInput(mj.Spec.Job.InputFile, mj.Spec.InputSize, mj.Spec.InputFactor); err != nil {
			return Result{}, err
		}
	}

	jobs := make([]*mapred.Job, len(m.Jobs))
	var submitErr error
	remaining := len(m.Jobs)
	onDone := func(*mapred.Job) {
		remaining--
		if remaining == 0 {
			s.Sim.Stop() // nothing after the last job matters to the experiment
		}
	}
	for i, mj := range m.Jobs {
		i, mj := i, mj
		submit := func() {
			j, err := s.JT.Submit(mj.Spec.Job, onDone)
			if err != nil {
				submitErr = fmt.Errorf("core: submit %s at t=%v: %w", mj.Spec.Job.Name, mj.Offset, err)
				s.Sim.Stop()
				return
			}
			jobs[i] = j
		}
		if mj.Offset == 0 {
			submit()
		} else {
			s.Sim.Schedule(origin+mj.Offset, "core.submit", submit)
		}
		if submitErr != nil {
			return Result{}, submitErr
		}
	}

	horizon := s.opts.Cluster.Horizon
	s.Sim.RunUntil(horizon)
	if submitErr != nil {
		return Result{}, submitErr
	}

	res := Result{DFS: s.FS.Metrics}
	anyUnfinished := false
	for i, j := range jobs {
		if j == nil {
			// The horizon ended before this job's submission offset; like
			// any capped job it reports submission → horizon (zero here).
			mk := horizon - (origin + m.Jobs[i].Offset)
			if mk < 0 {
				mk = 0
			}
			res.Jobs = append(res.Jobs, JobResult{HitHorizon: true,
				Profile: mapred.Profile{Job: m.Jobs[i].Spec.Job.Name, Makespan: mk}})
			anyUnfinished = true
			continue
		}
		jr := JobResult{Profile: j.Profile()}
		if !j.Done() {
			jr.HitHorizon = true
			jr.Profile.Makespan = horizon - j.SubmittedAt()
			anyUnfinished = true
		} else if sp := j.FinishedAt() - origin; sp > res.Span {
			// Failed jobs end the run's activity too; only jobs still
			// unfinished at the horizon stretch the span to it.
			res.Span = sp
		}
		res.Jobs = append(res.Jobs, jr)
		if j.State() == mapred.JobSucceeded {
			res.Completed++
		}
	}
	if anyUnfinished {
		res.Span = horizon - origin
	}
	if res.Span > 0 {
		res.Throughput = float64(res.Completed) / (res.Span / 3600)
	}
	return res, nil
}
