package scenario

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// buildSingle lowers a compiled single-job line to the stack and the job
// of one sweep cell.
func buildSingle(t *testing.T, v harness.Variant, cs core.ClusterSpec) (core.Options, workload.Spec) {
	t.Helper()
	cell, ok := v.Cell.(harness.SimCell)
	if !ok || cell.Stream || len(cell.Workload.Jobs) != 1 || cell.Workload.Jobs[0].Offset != 0 {
		t.Fatalf("line %s is not one plain simulated job: %+v", v.Label, v.Cell)
	}
	return cell.Build(cs), cell.Workload.Jobs[0].Spec
}

// TestFromFlagsAllShape pins the compiled shape of the legacy default
// invocation (-experiment all): fig1 first, then per app the shared
// scheduling sweep (times + duplicates), the shared replication sweep
// (times + table2), the overall sweep and the multi-job sweep.
func TestFromFlagsAllShape(t *testing.T) {
	spec, err := FromFlags(Flags{
		Experiment: "all", App: "both", Policy: "both",
		Jobs: 3, Stagger: 60, Arrivals: "staggered", ArrivalSeed: 1,
		MetricsBucket: metrics.DefaultBucket,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Runs) != 9 { // fig1 + 4 runs x 2 apps
		t.Fatalf("runs %d, want 9", len(plan.Runs))
	}
	if !plan.Runs[0].Fig1 {
		t.Error("first run is not fig1")
	}
	wantTitles := []string{
		"Fig 4/5 (sort): scheduling policies",
		"Fig 6 (sort): intermediate replication",
		"Fig 7 (sort): MOON vs Hadoop-VO",
		"Multi-job (sort): 3 jobs, staggered arrivals every ~60s",
	}
	for i, want := range wantTitles {
		if got := plan.Runs[1+i].Title; got != want {
			t.Errorf("run %d title %q, want %q", 1+i, got, want)
		}
	}
	sched := plan.Runs[1]
	if len(sched.Variants) != 5 || len(sched.Renders) != 2 {
		t.Errorf("scheduling run: %d variants, %d renders (want 5, 2)", len(sched.Variants), len(sched.Renders))
	}
	if sched.Renders[0].Kind != RenderTimes || sched.Renders[1].Kind != RenderDuplicates {
		t.Errorf("scheduling renders %+v", sched.Renders)
	}
	repl := plan.Runs[2]
	if repl.Renders[1].Kind != RenderTable2 || repl.App != "sort" {
		t.Errorf("replication run renders %+v app %q", repl.Renders, repl.App)
	}
	multi := plan.Runs[4]
	if len(multi.Variants) != 2 || multi.Renders[0].Kind != RenderMulti { // both => fifo + fair
		t.Errorf("multi run: %d variants, renders %+v", len(multi.Variants), multi.Renders)
	}
	// The config carries the sweep axes with defaults applied.
	if got := plan.Config.MetricsBucket; got != metrics.DefaultBucket {
		t.Errorf("metrics bucket %v", got)
	}
	if len(plan.Config.Seeds) != 1 || plan.Config.Seeds[0] != 1 {
		t.Errorf("seeds %v", plan.Config.Seeds)
	}
}

// TestFromFlagsValidatesEagerly mirrors the legacy CLI contract: a typo'd
// policy or arrival process fails even when the multi experiment is not
// selected.
func TestFromFlagsValidatesEagerly(t *testing.T) {
	base := Flags{Experiment: "fig4", App: "sort", Policy: "both", Arrivals: "staggered", Jobs: 3, Ablation: "homestretch"}
	bad := []struct {
		mut  func(*Flags)
		want string
	}{
		{func(f *Flags) { f.Experiment = "fig9" }, "experiment"},
		{func(f *Flags) { f.App = "grep" }, "app"},
		{func(f *Flags) { f.Policy = "lifo" }, "policy"},
		{func(f *Flags) { f.Arrivals = "uniform" }, "arrival"},
		{func(f *Flags) { f.Arrivals = "poisson"; f.Lambda = 0 }, "lambda"},
		{func(f *Flags) { f.Experiment = "ablation"; f.Ablation = "nope" }, "ablation"},
	}
	for _, tc := range bad {
		f := base
		tc.mut(&f)
		if _, err := FromFlags(f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("FromFlags(%+v) error %v, want mention of %q", f, err, tc.want)
		}
	}

	// A NaN stagger slips through flag parsing (ParseFloat accepts "NaN")
	// but must die at Validate instead of feeding NaN submission offsets
	// into the event heap.
	f := base
	f.Experiment, f.Stagger = "multi", math.NaN()
	spec, err := FromFlags(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("NaN stagger validated: %v", err)
	}
}

// TestCompileCustomAppliesDeltas builds a delta-heavy custom variant and
// checks the lowered core.Options cell by cell — the declarative surface
// must reach every layer.
func TestCompileCustomAppliesDeltas(t *testing.T) {
	src := `{
  "schema": "moon-scenario/v1",
  "name": "deltas",
  "experiments": [{
    "custom": {
      "title": "deltas",
      "cluster": {
        "volatile": 30,
        "dedicated": 2,
        "horizon_seconds": 7200,
        "outage": {"mean_seconds": 600},
        "correlated": {"group_size": 5, "participation": 0.5}
      },
      "workload": {
        "app": "sort",
        "input_factor": {"d": 0, "v": 4},
        "intermediate_factor": {"d": 1, "v": 2},
        "intermediate_class": "reliable",
        "output_factor": {"d": 2, "v": 1}
      },
      "variants": [{
        "label": "tweaked",
        "preset": "hadoop",
        "sched": {
          "tracker_expiry_seconds": 120,
          "spec_slot_fraction": 0.5,
          "fast_fetch_reaction": true
        },
        "dfs": {"mode": "moon", "availability_target": 0.99},
        "net": {"node_bandwidth_bytes": 5e7},
        "intermediate_factor": {"d": 0, "v": 5}
      }]
    }
  }]
}`
	spec := mustParse(t, src)
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Runs) != 1 || len(plan.Runs[0].Variants) != 1 {
		t.Fatalf("plan shape %+v", plan.Runs)
	}
	v := plan.Runs[0].Variants[0]
	if v.Label != "tweaked" {
		t.Fatalf("label %q", v.Label)
	}
	opts, w := buildSingle(t, v, core.ClusterSpec{UnavailabilityRate: 0.3, Seed: 7})

	cs := opts.Cluster
	if cs.VolatileNodes != 30 || cs.DedicatedNodes != 2 || cs.Horizon != 7200 {
		t.Errorf("cluster %+v", cs)
	}
	if cs.UnavailabilityRate != 0.3 || cs.Seed != 7 {
		t.Errorf("sweep cell fields lost: %+v", cs)
	}
	if cs.Outage == nil || cs.Outage.MeanOutage != 600 || cs.Outage.TargetRate != 0.3 {
		t.Errorf("outage %+v", cs.Outage)
	}
	if cs.Correlated == nil || cs.Correlated.GroupSize != 5 || cs.Correlated.Participation != 0.5 {
		t.Errorf("correlated %+v", cs.Correlated)
	}
	if cs.Correlated.Base.MeanOutage != 600 {
		t.Errorf("correlated base outage did not inherit the override: %+v", cs.Correlated.Base)
	}
	if cs.Correlated.SessionsPerGroup != 2 {
		t.Errorf("correlated defaults lost: %+v", cs.Correlated)
	}

	if opts.Sched.TrackerExpiry != 120 || opts.Sched.SpecSlotFraction != 0.5 || !opts.Sched.FastFetchReaction {
		t.Errorf("sched deltas %+v", opts.Sched)
	}
	if opts.Sched.Policy.String() != "hadoop" {
		t.Errorf("preset policy %v", opts.Sched.Policy)
	}
	if opts.DFS.Mode != dfs.ModeMOON || opts.DFS.AvailabilityTarget != 0.99 {
		t.Errorf("dfs deltas %+v", opts.DFS)
	}
	if opts.Net.NodeBandwidth != 5e7 {
		t.Errorf("net deltas %+v", opts.Net)
	}

	if w.InputFactor != (dfs.Factor{D: 0, V: 4}) {
		t.Errorf("input factor %v", w.InputFactor)
	}
	// Variant-level intermediate factor wins over the workload-level one.
	if w.Job.IntermediateFactor != (dfs.Factor{D: 0, V: 5}) {
		t.Errorf("intermediate factor %v", w.Job.IntermediateFactor)
	}
	if w.Job.IntermediateClass != dfs.Reliable {
		t.Errorf("intermediate class %v", w.Job.IntermediateClass)
	}
	if w.Job.OutputFactor != (dfs.Factor{D: 2, V: 1}) {
		t.Errorf("output factor %v", w.Job.OutputFactor)
	}
	// Reduce slots follow the custom fleet: 0.9 x 2 x (30+2) = 57.
	if w.Job.NumReduces != 57 {
		t.Errorf("reduces %d, want 57", w.Job.NumReduces)
	}
}

// TestCompileScaleSweep pins the scale-sweep builtin's fleet axis: four
// sleep-sort variants whose per-variant clusters double from the paper
// testbed to 8x, with a single-cell sweep (one seed, one rate).
func TestCompileScaleSweep(t *testing.T) {
	spec, ok := Lookup("scale-sweep")
	if !ok {
		t.Fatal("scale-sweep builtin missing")
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Runs) != 1 {
		t.Fatalf("plan has %d runs, want 1", len(plan.Runs))
	}
	if got := plan.Config.Seeds; len(got) != 1 || got[0] != 1 {
		t.Errorf("seeds %v, want [1]", got)
	}
	if got := plan.Config.Rates; len(got) != 1 || got[0] != 0.3 {
		t.Errorf("rates %v, want [0.3]", got)
	}
	want := []struct {
		label    string
		vol, ded int
	}{
		{"66-nodes", 60, 6},
		{"132-nodes", 120, 12},
		{"264-nodes", 240, 24},
		{"528-nodes", 480, 48},
	}
	vs := plan.Runs[0].Variants
	if len(vs) != len(want) {
		t.Fatalf("%d variants, want %d", len(vs), len(want))
	}
	for i, w := range want {
		v := vs[i]
		if v.Label != w.label {
			t.Errorf("variant %d label %q, want %q", i, v.Label, w.label)
			continue
		}
		opts, wl := buildSingle(t, v, core.ClusterSpec{UnavailabilityRate: 0.3, Seed: 1})
		cs := opts.Cluster
		if cs.VolatileNodes != w.vol || cs.DedicatedNodes != w.ded {
			t.Errorf("%s: fleet %dV+%dD, want %dV+%dD",
				w.label, cs.VolatileNodes, cs.DedicatedNodes, w.vol, w.ded)
		}
		if !strings.HasPrefix(wl.Job.Name, "sleep-") {
			t.Errorf("%s: workload %q is not the sleep proxy", w.label, wl.Job.Name)
		}
	}
}

// TestCompileCustomMulti lowers a weighted multi-job custom experiment.
func TestCompileCustomMulti(t *testing.T) {
	spec, ok := Lookup("weighted-skew")
	if !ok {
		t.Fatal("weighted-skew builtin missing")
	}
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := plan.Runs[0]
	if len(run.Variants) != 2 || run.Variants[0].Label != "fair" || run.Variants[1].Label != "weighted-j0x3" {
		t.Fatalf("multi variants %+v", run.Variants)
	}
	if run.Renders[0].Kind != RenderMulti {
		t.Errorf("renders %+v", run.Renders)
	}
	cell := run.Variants[1].Cell.(harness.SimCell)
	if !cell.Stream {
		t.Error("a multi-job line is not marked as a stream")
	}
	opts, m := cell.Build(core.ClusterSpec{UnavailabilityRate: 0.1, Seed: 1}), cell.Workload
	if opts.Sched.JobPolicy == nil || opts.Sched.JobPolicy.Name() != "weighted" {
		t.Errorf("job policy %v", opts.Sched.JobPolicy)
	}
	if len(m.Jobs) != 3 || m.Jobs[1].Offset != 60 || m.Jobs[0].Spec.Job.Name != "sleep-sort-j0" {
		t.Errorf("multi spec %+v", m.Jobs)
	}
}

// TestBuiltinsValidateAndCompile: every registry entry must be runnable.
func TestBuiltinsValidateAndCompile(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Builtins() {
		if seen[s.Name] {
			t.Errorf("duplicate builtin name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if _, err := Compile(s); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if _, ok := Lookup("paper-figures"); !ok {
		t.Error("Lookup(paper-figures) failed")
	}
	if _, ok := Lookup("scale-sweep"); !ok {
		t.Error("Lookup(scale-sweep) failed")
	}
	if _, err := Load("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "list-scenarios") {
		t.Errorf("Load of unknown name: %v", err)
	}
}
