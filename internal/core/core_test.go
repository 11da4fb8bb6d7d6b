package core

import (
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapred"
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
}

func TestPresets(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 4, DedicatedNodes: 1, UnavailabilityRate: 0.2, Seed: 1}
	h := HadoopPreset(cs, 60)
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
	s, err := NewSimulation(HadoopPreset(cs, 600))
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

func TestReduceSlots(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 60, DedicatedNodes: 6, Seed: 1}
	s, err := NewSimulation(MOONPreset(cs, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ReduceSlots(); got != 132 {
		t.Fatalf("reduce slots %d, want 132", got)
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
