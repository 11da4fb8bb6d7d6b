package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/trace"
	"repro/internal/workload"
)

func smallSpec() workload.Spec {
	return workload.Scale(workload.SleepApp(workload.Sort(2*12)), 8)
}

func TestNewSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(Options{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	cs := ClusterSpec{VolatileNodes: -1}
	if _, err := NewSimulation(MOONPreset(cs, true)); err == nil {
		t.Fatal("negative volatile count accepted")
	}
	// Options.Validate is the check NewSimulation makes, and it reaches every
	// owner: the fleet and horizon, the churn model, the fabric, the DFS and
	// the scheduler.
	good := ClusterSpec{VolatileNodes: 4, DedicatedNodes: 1, UnavailabilityRate: 0.3}
	if err := MOONPreset(good, true).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"negative dedicated count", func(o *Options) { o.Cluster.DedicatedNodes = -1 }},
		{"negative horizon", func(o *Options) { o.Cluster.Horizon = -5 }},
		{"inverted outage clamp", func(o *Options) {
			ocfg := trace.DefaultOutageConfig(0.3)
			ocfg.MinOutage = 4000
			o.Cluster.Outage = &ocfg
		}},
		{"bad correlated model", func(o *Options) {
			corr := trace.DefaultCorrelatedConfig()
			corr.GroupSize = 0
			o.Cluster.Correlated = &corr
		}},
		{"zero stall timeout", func(o *Options) { o.Net.StallTimeout = 0 }},
		{"NaN node bandwidth", func(o *Options) { o.Net.NodeBandwidth = math.NaN() }},
		{"NaN horizon", func(o *Options) { o.Cluster.Horizon = math.NaN() }},
		{"NaN outage stddev", func(o *Options) {
			ocfg := trace.DefaultOutageConfig(0.3)
			ocfg.StddevOutage = math.NaN()
			o.Cluster.Outage = &ocfg
		}},
		{"NaN dfs expiry", func(o *Options) { o.DFS.NodeExpiryInterval = math.NaN() }},
		{"dfs hibernate past expiry", func(o *Options) { o.DFS.NodeHibernateInterval = o.DFS.NodeExpiryInterval }},
		{"sched suspension past expiry", func(o *Options) { o.Sched.SuspensionInterval = o.Sched.TrackerExpiry }},
	} {
		opts := MOONPreset(good, true)
		tc.edit(&opts)
		if opts.Validate() == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := NewSimulation(opts); err == nil {
			t.Errorf("%s: NewSimulation accepted it", tc.name)
		}
	}
}

// TestOutputNeedsAFleetThatHoldsIt: the MOON scheduler declares a job
// done only once its output holds its replication factor, so a fleet that
// cannot hold the copies is refused before the run instead of reaching the
// horizon. Stacks that never wait for the factor, and jobs that write no
// output, still build.
func TestOutputNeedsAFleetThatHoldsIt(t *testing.T) {
	sort := workload.Single(workload.Scale(workload.Sort(2*12), 8)) // output {D:1, V:3}
	sleep := workload.Single(workload.SleepApp(sort.Jobs[0].Spec))  // writes no output
	vo := sort.Jobs[0].Spec
	vo.Job.OutputFactor = dfs.Factor{V: 6}
	hadoopVO := func(cs ClusterSpec) Options {
		opts := HadoopPreset(cs)
		opts.DFS = MOONPreset(cs, false).DFS
		return opts
	}
	moonOnHadoop := func(cs ClusterSpec) Options {
		opts := MOONPreset(cs, false)
		opts.DFS = HadoopPreset(cs).DFS
		return opts
	}
	for _, tc := range []struct {
		name string
		opts Options
		m    workload.MultiSpec
		want string // "" accepts
	}{
		{"moon-hybrid all volatile",
			MOONPreset(ClusterSpec{VolatileNodes: 60, DedicatedNodes: 6, TreatAllVolatile: true}, true), sort,
			"0 dedicated and 66 volatile"},
		{"moon on no dedicated",
			MOONPreset(ClusterSpec{VolatileNodes: 60}, false), sort, "0 dedicated and 60 volatile"},
		{"moon-hybrid on 2 volatile",
			MOONPreset(ClusterSpec{VolatileNodes: 2, DedicatedNodes: 6}, true), sort, "6 dedicated and 2 volatile"},
		{"hadoop on no dedicated", HadoopPreset(ClusterSpec{VolatileNodes: 30}), sort, ""},
		{"hadoop-vo on the moon layer", hadoopVO(ClusterSpec{VolatileNodes: 60, DedicatedNodes: 6}), workload.Single(vo), ""},
		{"moon on the fleet it needs", MOONPreset(ClusterSpec{VolatileNodes: 3, DedicatedNodes: 1}, false), sort, ""},
		{"moon on the hadoop layer, 3 nodes", moonOnHadoop(ClusterSpec{VolatileNodes: 2, DedicatedNodes: 1}), sort,
			"1 dedicated and 2 volatile"},
		{"moon on the hadoop layer, 4 nodes", moonOnHadoop(ClusterSpec{VolatileNodes: 4}), sort, ""},
		{"moon sleep job on no dedicated", MOONPreset(ClusterSpec{VolatileNodes: 60}, false), sleep, ""},
		{"moon-hybrid sleep job all volatile",
			MOONPreset(ClusterSpec{VolatileNodes: 60, DedicatedNodes: 6, TreatAllVolatile: true}, true), sleep, ""},
	} {
		_, err := NewForWorkload(tc.opts, tc.m)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.Contains(err.Error(), `job "sort"`)):
			t.Errorf("%s: err = %v, want a refusal naming the job and %q", tc.name, err, tc.want)
		}
	}
}

func TestPresets(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 4, DedicatedNodes: 1, UnavailabilityRate: 0.2, Seed: 1}
	h := HadoopPreset(cs)
	h.Sched.TrackerExpiry = 60
	if h.Sched.Policy != mapred.PolicyHadoop || h.Sched.TrackerExpiry != 60 {
		t.Fatalf("hadoop preset sched %+v", h.Sched)
	}
	if h.DFS.Mode != dfs.ModeHadoop {
		t.Fatal("hadoop preset dfs mode")
	}
	m := MOONPreset(cs, true)
	if m.Sched.Policy != mapred.PolicyMOON || !m.Sched.Hybrid {
		t.Fatalf("moon preset sched %+v", m.Sched)
	}
	if m.DFS.Mode != dfs.ModeMOON {
		t.Fatal("moon preset dfs mode")
	}
	if MOONPreset(cs, false).Sched.Hybrid {
		t.Fatal("non-hybrid preset has Hybrid set")
	}
}

func TestRunWorkloadEndToEnd(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 10, DedicatedNodes: 2, UnavailabilityRate: 0.3, Seed: 3}
	res := runSingle(t, cs)
	job := res.Jobs[0]
	if job.Profile.State != mapred.JobSucceeded {
		t.Fatalf("state %v", job.Profile.State)
	}
	if job.HitHorizon {
		t.Fatal("tiny job hit the 8-hour horizon")
	}
	if job.Profile.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
	// The run-level numbers of a stream of one are the job's.
	if res.Completed != 1 || res.Span != job.Profile.Makespan || res.Throughput <= 0 {
		t.Fatalf("completed %d span %v throughput %v for makespan %v",
			res.Completed, res.Span, res.Throughput, job.Profile.Makespan)
	}
}

// runSingle runs smallSpec as the stream of one on a MOON-Hybrid stack.
func runSingle(t *testing.T, cs ClusterSpec) Result {
	t.Helper()
	m := workload.Single(smallSpec())
	s, err := NewForWorkload(MOONPreset(cs, true), m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkload(m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewForWorkloadSetsBlockSize(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 4, DedicatedNodes: 1, Seed: 1}
	w := smallSpec()
	s, err := NewForWorkload(MOONPreset(cs, true), workload.Single(w))
	if err != nil {
		t.Fatal(err)
	}
	want := w.InputSize / float64(w.Job.NumMaps)
	if got := s.FS.Config().BlockSize; got != want {
		t.Fatalf("block size %v, want %v", got, want)
	}
	// Staged input must therefore have exactly one block per map.
	if err := s.StageInput(w.Job.InputFile, w.InputSize, w.InputFactor); err != nil {
		t.Fatal(err)
	}
	if got := len(s.FS.File(w.Job.InputFile).Blocks); got != w.Job.NumMaps {
		t.Fatalf("input blocks %d, want %d", got, w.Job.NumMaps)
	}
}

func TestTreatAllVolatile(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 6, DedicatedNodes: 2, UnavailabilityRate: 0.3,
		TreatAllVolatile: true, Seed: 5}
	s, err := NewSimulation(HadoopPreset(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cluster.Dedicated) != 0 {
		t.Fatal("TreatAllVolatile kept dedicated nodes")
	}
	if len(s.Cluster.Volatile) != 8 {
		t.Fatalf("volatile count %d, want 8", len(s.Cluster.Volatile))
	}
}

func TestRunWorkloadRejectsBadSpec(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 4, DedicatedNodes: 1, Seed: 1}
	s, err := NewSimulation(MOONPreset(cs, true))
	if err != nil {
		t.Fatal(err)
	}
	w := smallSpec()
	w.InputSize = -1
	if _, err := s.RunWorkload(workload.Single(w)); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := NewForWorkload(MOONPreset(cs, true), workload.Single(w)); err == nil {
		t.Fatal("NewForWorkload accepted a bad spec")
	}
}

func TestDeterministicAcrossConstructions(t *testing.T) {
	run := func() float64 {
		cs := ClusterSpec{VolatileNodes: 8, DedicatedNodes: 2, UnavailabilityRate: 0.4, Seed: 11}
		return runSingle(t, cs).Jobs[0].Profile.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestDistinctSeedsDistinctChurn(t *testing.T) {
	mk := func(seed uint64) float64 {
		cs := ClusterSpec{VolatileNodes: 8, DedicatedNodes: 2, UnavailabilityRate: 0.4, Seed: seed}
		return runSingle(t, cs).Jobs[0].Profile.Makespan
	}
	if mk(1) == mk(2) && mk(3) == mk(4) && mk(5) == mk(6) {
		t.Fatal("all seed pairs identical; churn not seed-driven")
	}
}

func TestHorizonCap(t *testing.T) {
	// A tiny horizon forces HitHorizon.
	cs := ClusterSpec{VolatileNodes: 4, DedicatedNodes: 1, Seed: 1, Horizon: 5}
	res := runSingle(t, cs)
	if !res.Jobs[0].HitHorizon {
		t.Fatal("job claimed completion within a 5-second horizon")
	}
	if res.Jobs[0].Profile.Makespan != 5 || res.Span != 5 {
		t.Fatalf("capped makespan %v span %v, want horizon 5", res.Jobs[0].Profile.Makespan, res.Span)
	}
}

func TestStageInputDuplicate(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 4, DedicatedNodes: 1, Seed: 1}
	s, err := NewSimulation(MOONPreset(cs, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StageInput("x", 1e6, dfs.Factor{D: 1, V: 1}); err != nil {
		t.Fatal(err)
	}
	err = s.StageInput("x", 1e6, dfs.Factor{D: 1, V: 1})
	if err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("duplicate staging: %v", err)
	}
}
