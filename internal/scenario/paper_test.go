package scenario

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/harness"
)

// kinds is one experiment of every built-in kind and shape the lowering
// distinguishes.
func kinds() map[string]Experiment {
	out := map[string]Experiment{
		"correlated": {Correlated: true, App: "wordcount"},
		"multi default": {App: "sort", Multi: &MultiExperiment{
			Jobs: 3, IntervalSeconds: 60}},
		"multi one job": {App: "wordcount", Multi: &MultiExperiment{
			Jobs: 1, Arrivals: "staggered", IntervalSeconds: 60, Policies: []string{"fifo"}}},
		"multi poisson": {App: "sort", Multi: &MultiExperiment{
			Jobs: 4, Arrivals: "poisson", LambdaPerHour: 20, ArrivalSeed: 3,
			Policies:   []string{"fifo", "weighted-fair", "strict-priority"},
			Weights:    map[string]float64{"sleep-sort-j1": 3},
			Priorities: map[string]int{"sleep-sort-j2": 5}}},
	}
	for _, app := range Apps {
		for _, fig := range []string{"fig4", "fig5", "fig6", "table2", "fig7"} {
			out[fig+" "+app] = Experiment{Figure: fig, App: app}
		}
		for _, name := range AblationNames {
			out[name+" "+app] = Experiment{Ablation: name, App: app}
		}
	}
	return out
}

// TestLoweredKindsAreCustomExperiments: every built-in kind lowers to a
// CustomExperiment the custom kind's own validation accepts — so, apart
// from the three unexported fields, to something a spec file could say.
func TestLoweredKindsAreCustomExperiments(t *testing.T) {
	for name, e := range kinds() {
		if err := e.validate(); err != nil {
			t.Fatalf("%s: test experiment invalid: %v", name, err)
		}
		l := e.lower()
		if err := l.custom.validate(); err != nil {
			t.Errorf("%s lowers to an invalid custom experiment: %v", name, err)
		}
		if len(l.renders) == 0 || l.app != e.App {
			t.Errorf("%s: default renders %v, app %q", name, l.renders, l.app)
		}
		for _, r := range l.renders {
			custom := Experiment{Custom: l.custom, Renders: []string{r}}
			if r == "table2" {
				continue // Table II is tied to the fig6/table2 kinds by name
			}
			if err := custom.validate(); err != nil {
				t.Errorf("%s: default render %q does not apply to its custom form: %v", name, r, err)
			}
		}
	}
}

// line compiles an experiment and returns the named line's cell.
func line(t *testing.T, e Experiment, label string) harness.SimCell {
	t.Helper()
	run, err := compileSweep(e.lower(), e.Renders)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range run.Variants {
		if v.Label == label {
			return v.Cell.(harness.SimCell)
		}
	}
	t.Fatalf("no line %q in %q", label, run.Title)
	return harness.SimCell{}
}

var cell = core.ClusterSpec{UnavailabilityRate: 0.3, Seed: 7}

// TestExpirySweepRespellsFig4: hadoop-expiry-sweep's Hadoop1Min line is
// Fig 4's, spec for spec and option for option.
func TestExpirySweepRespellsFig4(t *testing.T) {
	spec, ok := Lookup("hadoop-expiry-sweep")
	if !ok {
		t.Fatal("hadoop-expiry-sweep builtin missing")
	}
	shipped := spec.Experiments[0]
	fig4 := Experiment{Figure: "fig4", App: "sort"}
	find := func(c *CustomExperiment) *VariantSpec {
		for i := range c.Variants {
			if c.Variants[i].Label == "Hadoop1Min" {
				return &c.Variants[i]
			}
		}
		t.Fatalf("%q has no Hadoop1Min line", c.Title)
		return nil
	}
	lowered := fig4.lower().custom
	if want, got := find(lowered), find(shipped.Custom); !reflect.DeepEqual(want, got) {
		t.Fatalf("Hadoop1Min: shipped %+v, fig4 lowers to %+v", got, want)
	}
	if !reflect.DeepEqual(lowered.Workload, shipped.Custom.Workload) {
		t.Errorf("workloads differ: %+v vs %+v", lowered.Workload, shipped.Custom.Workload)
	}
	a, b := line(t, fig4, "Hadoop1Min"), line(t, shipped, "Hadoop1Min")
	if !reflect.DeepEqual(a.Build(cell), b.Build(cell)) || !reflect.DeepEqual(a.Workload, b.Workload) {
		t.Error("the two Hadoop1Min lines build different cells")
	}
	if opts := a.Build(cell); opts.Sched.TrackerExpiry != 60 || opts.DFS.Mode != dfs.ModeMOON ||
		opts.Sched.Policy.String() != "hadoop" {
		t.Errorf("Hadoop1Min stack: expiry %v, dfs mode %v, policy %v",
			opts.Sched.TrackerExpiry, opts.DFS.Mode, opts.Sched.Policy)
	}
}

// TestFig7LinesCarryTheirOwnWorkload: Hadoop-VO stages at {0,6} on an
// all-volatile 66-node fleet, the MOON lines at {1,3} on 60 + D nodes, and
// sort keeps the 66-node testbed's fan-out on every line.
func TestFig7LinesCarryTheirOwnWorkload(t *testing.T) {
	e := Experiment{Figure: "fig7", App: "sort"}
	vo := line(t, e, "Hadoop-VO")
	opts, w := vo.Build(cell), vo.Workload.Jobs[0].Spec
	if !opts.Cluster.TreatAllVolatile || opts.Cluster.VolatileNodes+opts.Cluster.DedicatedNodes != 66 ||
		!opts.Sched.FastFetchReaction || opts.Sched.TrackerExpiry != 600 || opts.DFS.Mode != dfs.ModeMOON {
		t.Errorf("Hadoop-VO stack %+v %+v", opts.Cluster, opts.Sched)
	}
	if w.InputFactor != (dfs.Factor{V: 6}) || w.Job.OutputFactor != (dfs.Factor{V: 6}) ||
		w.Job.IntermediateFactor != (dfs.Factor{V: 3}) {
		t.Errorf("Hadoop-VO replication: in %v inter %v out %v", w.InputFactor, w.Job.IntermediateFactor, w.Job.OutputFactor)
	}
	for label, d := range map[string]int{"MOON-HybridD3": 3, "MOON-HybridD4": 4, "MOON-HybridD6": 6} {
		c := line(t, e, label)
		opts, mw := c.Build(cell), c.Workload.Jobs[0].Spec
		if opts.Cluster.VolatileNodes != 60 || opts.Cluster.DedicatedNodes != d || !opts.Sched.Hybrid {
			t.Errorf("%s fleet %+v", label, opts.Cluster)
		}
		if mw.InputFactor != (dfs.Factor{D: 1, V: 3}) || mw.Job.OutputFactor != (dfs.Factor{D: 1, V: 3}) ||
			mw.Job.IntermediateFactor != (dfs.Factor{D: 1, V: 1}) {
			t.Errorf("%s replication: in %v inter %v out %v", label, mw.InputFactor, mw.Job.IntermediateFactor, mw.Job.OutputFactor)
		}
		if mw.Job.NumReduces != w.Job.NumReduces || mw.Job.NumReduces != 118 {
			t.Errorf("%s runs %d reduces, Hadoop-VO %d, want the testbed's 118 on both", label, mw.Job.NumReduces, w.Job.NumReduces)
		}
	}
}

// TestMultiKindIsAStreamAtOneJob: the multi kind at one job is still a
// renamed stream rendered as a stream; a custom workload with "jobs": 1 is
// a plain job.
func TestMultiKindIsAStreamAtOneJob(t *testing.T) {
	multi := Experiment{App: "sort", Multi: &MultiExperiment{Jobs: 1, Policies: []string{"fifo"}}}
	c := line(t, multi, "MOON-fifo")
	if !c.Stream || len(c.Workload.Jobs) != 1 || c.Workload.Jobs[0].Spec.Job.Name != "sleep-sort-j0" {
		t.Errorf("multi kind at one job: stream %v, jobs %+v", c.Stream, c.Workload.Jobs)
	}
	if r := multi.lower().renders; len(r) != 1 || r[0] != "multi" {
		t.Errorf("multi kind renders %v", r)
	}
	custom := Experiment{Custom: &CustomExperiment{
		Title:    "one",
		Workload: WorkloadSpec{App: "sort", Sleep: true, Jobs: 1},
		Variants: []VariantSpec{{Label: "a", Preset: "moon-hybrid"}},
	}}
	c = line(t, custom, "a")
	if c.Stream || len(c.Workload.Jobs) != 1 || c.Workload.Jobs[0].Spec.Job.Name != "sleep-sort" {
		t.Errorf("custom jobs:1: stream %v, jobs %+v", c.Stream, c.Workload.Jobs)
	}
	if r := custom.lower().renders; len(r) != 1 || r[0] != "times" {
		t.Errorf("custom jobs:1 renders %v", r)
	}
}

// TestMultiKindLines: one MOON-Hybrid line per canonical policy name, the
// weights on the weighted line only, the priorities on the stream under
// every line, and a Poisson rate lowered to its mean interval.
func TestMultiKindLines(t *testing.T) {
	e := kinds()["multi poisson"]
	if title := e.lower().custom.Title; title != "Multi-job (sort): 4 jobs, poisson arrivals every ~180s" {
		t.Errorf("title %q", title)
	}
	for label, policy := range map[string]string{"MOON-fifo": "fifo", "MOON-weighted": "weighted", "MOON-priority": "priority"} {
		c := line(t, e, label)
		opts := c.Build(cell)
		if !opts.Sched.Hybrid || opts.Sched.JobPolicy == nil || opts.Sched.JobPolicy.Name() != policy {
			t.Errorf("%s: hybrid %v, job policy %v", label, opts.Sched.Hybrid, opts.Sched.JobPolicy)
		}
		if len(c.Workload.Jobs) != 4 || c.Workload.Jobs[2].Spec.Job.Priority != 5 || c.Workload.Jobs[1].Spec.Job.Priority != 0 {
			t.Errorf("%s: stream priorities not applied: %+v", label, c.Workload.Jobs)
		}
		if c.Workload.Jobs[0].Offset != 0 || c.Workload.Jobs[3].Offset <= 0 {
			t.Errorf("%s: offsets %v … %v", label, c.Workload.Jobs[0].Offset, c.Workload.Jobs[3].Offset)
		}
	}
	for _, v := range e.lower().custom.Variants {
		if (v.Weights != nil) != (v.Label == "MOON-weighted") {
			t.Errorf("line %s weights %v", v.Label, v.Weights)
		}
	}
}

// TestAblationLinesLowerTheirDelta: each ablation line changes the one
// parameter it names, and the two scheduler ablations run sleep-sort
// whatever app says.
func TestAblationLinesLowerTheirDelta(t *testing.T) {
	abl := func(name string) Experiment { return Experiment{Ablation: name, App: "wordcount"} }
	if o := line(t, abl("homestretch"), "off").Build(cell); o.Sched.HomestretchH != 0 || o.Sched.HomestretchR != 0 {
		t.Errorf("homestretch off: H %v R %v", o.Sched.HomestretchH, o.Sched.HomestretchR)
	}
	h := line(t, abl("homestretch"), "H20-R3")
	if o := h.Build(cell); o.Sched.HomestretchH != 20 || o.Sched.HomestretchR != 3 {
		t.Errorf("H20-R3: H %v R %v", o.Sched.HomestretchH, o.Sched.HomestretchR)
	}
	if name := h.Workload.Jobs[0].Spec.Job.Name; name != "sleep-sort" {
		t.Errorf("homestretch on app wordcount runs %q, want sleep-sort", name)
	}
	s := line(t, abl("speccap"), "uncapped")
	if o := s.Build(cell); o.Sched.SpecSlotFraction != 10 || s.Workload.Jobs[0].Spec.Job.Name != "sleep-sort" {
		t.Errorf("speccap uncapped: fraction %v on %q", o.Sched.SpecSlotFraction, s.Workload.Jobs[0].Spec.Job.Name)
	}
	hib := line(t, abl("hibernate"), "hib1799s")
	if o := hib.Build(cell); o.DFS.NodeHibernateInterval != 1799 || o.DFS.NodeExpiryInterval != 1800 {
		t.Errorf("hib1799s: hibernate %v expiry %v", o.DFS.NodeHibernateInterval, o.DFS.NodeExpiryInterval)
	}
	if w := hib.Workload.Jobs[0].Spec; w.Job.Name != "wordcount" || w.Job.IntermediateFactor != (dfs.Factor{D: 1, V: 1}) {
		t.Errorf("hibernate workload %q at %v", w.Job.Name, w.Job.IntermediateFactor)
	}
	if o := line(t, abl("adaptive"), "target0.99").Build(cell); o.DFS.AvailabilityTarget != 0.99 {
		t.Errorf("target0.99: %v", o.DFS.AvailabilityTarget)
	}
	speccap, adaptive := abl("speccap"), abl("adaptive")
	if l := speccap.lower(); !l.block || !reflect.DeepEqual(l.renders, []string{"times", "duplicates"}) {
		t.Errorf("speccap layout: block %v renders %v", l.block, l.renders)
	}
	if l := adaptive.lower(); !l.block || !reflect.DeepEqual(l.renders, []string{"times"}) {
		t.Errorf("adaptive layout: block %v renders %v", l.block, l.renders)
	}
}

// TestFig6AndCorrelatedLines: the Figure 6 axis is the intermediate factor
// of opportunistic data at fixed {1,3} input/output, and the correlated
// study layers the default lab-session model over the swept rate.
func TestFig6AndCorrelatedLines(t *testing.T) {
	e := Experiment{Figure: "fig6", App: "sort"}
	for label, want := range map[string]dfs.Factor{"VO-V1": {V: 1}, "VO-V5": {V: 5}, "HA-V1": {D: 1, V: 1}, "HA-V3": {D: 1, V: 3}} {
		c := line(t, e, label)
		w := c.Workload.Jobs[0].Spec
		if w.Job.IntermediateFactor != want || w.Job.IntermediateClass != dfs.Opportunistic ||
			w.InputFactor != (dfs.Factor{D: 1, V: 3}) || w.Job.OutputFactor != (dfs.Factor{D: 1, V: 3}) {
			t.Errorf("%s: inter %v class %v in %v out %v", label, w.Job.IntermediateFactor,
				w.Job.IntermediateClass, w.InputFactor, w.Job.OutputFactor)
		}
		if !c.Build(cell).Sched.Hybrid {
			t.Errorf("%s is not scheduled by MOON-Hybrid", label)
		}
	}
	corr := line(t, Experiment{Correlated: true, App: "sort"}, "MOON").Build(cell)
	if cc := corr.Cluster.Correlated; cc == nil || cc.Base.TargetRate != 0.3 || cc.GroupSize != 10 || corr.Sched.Hybrid {
		t.Errorf("correlated MOON line: %+v hybrid %v", corr.Cluster.Correlated, corr.Sched.Hybrid)
	}
}
