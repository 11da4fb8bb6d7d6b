// Package core is the public façade of the MOON reproduction: it wires the
// discrete-event simulator, the churn-driven cluster, the network model,
// the MOON/Hadoop DFS and the MOON/Hadoop MapReduce runtime into a single
// Simulation value, and provides the policy presets used throughout the
// paper's evaluation.
//
// A typical use:
//
//	opts := core.MOONPreset(core.ClusterSpec{
//		VolatileNodes: 60, DedicatedNodes: 6,
//		UnavailabilityRate: 0.5, Seed: 1,
//	}, true /* hybrid */)
//	s, _ := core.NewSimulation(opts)
//	profile, _ := s.RunWorkload(workload.Sort(s.ReduceSlots()))
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

// HadoopPreset configures stock Hadoop with the given TrackerExpiryInterval
// (the paper sweeps 600, 300 and 60 seconds).
func HadoopPreset(cs ClusterSpec, trackerExpiry float64) Options {
	sched := mapred.DefaultSchedConfig(mapred.PolicyHadoop)
	sched.TrackerExpiry = trackerExpiry
	return Options{
		Cluster: cs,
		Net:     netmodel.DefaultConfig(),
		DFS:     dfs.DefaultConfig(dfs.ModeHadoop),
		Sched:   sched,
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
	cs := opts.Cluster.withDefaults()
	opts.Cluster = cs
	if cs.VolatileNodes < 0 || cs.VolatileNodes+cs.DedicatedNodes == 0 {
		return nil, fmt.Errorf("core: cluster needs nodes (got %d volatile, %d dedicated)",
			cs.VolatileNodes, cs.DedicatedNodes)
	}
	ocfg := trace.DefaultOutageConfig(cs.UnavailabilityRate)
	if cs.Outage != nil {
		ocfg = *cs.Outage
	}
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

// ReduceSlots returns the cluster's total reduce slots, the paper's basis
// for sort's "0.9 × AvailSlots" reduce count.
func (s *Simulation) ReduceSlots() int {
	return len(s.Cluster.Nodes) * s.opts.Sched.ReduceSlotsPerNode
}

// StageInput materializes a job input file (no simulated cost), as the
// paper does before each measured run.
func (s *Simulation) StageInput(name string, size float64, factor dfs.Factor) error {
	_, err := s.FS.CreateStaged(name, size, dfs.Reliable, factor)
	return err
}

// Result is the outcome of one job run: the runtime profile plus DFS-level
// metrics accumulated during the run.
type Result struct {
	Profile mapred.Profile
	DFS     dfs.Metrics
	// Horizon reports whether the run hit the simulation horizon before
	// the job finished (the paper's "unable to finish" cases).
	HitHorizon bool
}

// RunWorkload stages the workload's input and runs its job to completion
// (or to the trace horizon). The input file is staged with exactly one
// block per map: the DFS block size must equal InputSize / NumMaps, which
// NewForWorkload arranges.
func (s *Simulation) RunWorkload(w workload.Spec) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := s.StageInput(w.Job.InputFile, w.InputSize, w.InputFactor); err != nil {
		return Result{}, err
	}
	var finished *mapred.Job
	job, err := s.JT.Submit(w.Job, func(j *mapred.Job) {
		finished = j
		s.Sim.Stop() // nothing after the job matters to the experiment
	})
	if err != nil {
		return Result{}, err
	}
	s.Sim.RunUntil(s.opts.Cluster.Horizon)
	res := Result{DFS: s.FS.Metrics}
	if finished == nil {
		res.HitHorizon = true
		res.Profile = job.Profile()
		res.Profile.Makespan = s.opts.Cluster.Horizon
		return res, nil
	}
	res.Profile = finished.Profile()
	return res, nil
}

// NewForWorkload builds a simulation whose DFS block size matches the
// workload's input split (so map i reads input block i, as in Hadoop).
func NewForWorkload(opts Options, w workload.Spec) (*Simulation, error) {
	if w.Job.NumMaps > 0 {
		opts.DFS.BlockSize = w.InputSize / float64(w.Job.NumMaps)
	}
	return NewSimulation(opts)
}
