package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
)

// liveCells returns the live cells of a compiled live run, every line on
// the same cell but for its policy, weights and priorities.
func liveCells(t *testing.T, run PlanRun) []harness.LiveCell {
	t.Helper()
	shape := func(c harness.LiveCell) harness.LiveCell {
		c.Engine.JobPolicy, c.Engine.JobWeights, c.Priorities = "", nil, nil
		return c
	}
	var cells []harness.LiveCell
	for _, v := range run.Variants {
		cell, ok := v.Cell.(harness.LiveCell)
		if !ok {
			t.Fatalf("line %s of a live run is a %T", v.Label, v.Cell)
		}
		if v.Label != "live-"+cell.Engine.JobPolicy {
			t.Fatalf("line %s runs policy %q", v.Label, cell.Engine.JobPolicy)
		}
		if len(cells) > 0 && !reflect.DeepEqual(shape(cell), shape(cells[0])) {
			t.Fatalf("line %s runs a different cell shape", v.Label)
		}
		cells = append(cells, cell)
	}
	return cells
}

func liveSpec() *Spec {
	s, ok := Lookup("live-mix")
	if !ok {
		panic("live-mix builtin missing")
	}
	return s
}

func TestLiveSpecValidatesAndRoundTrips(t *testing.T) {
	s := liveSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	parsed, err := Parse(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := parsed.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Fatal("live spec round-trip not lossless")
	}
	if parsed.Execution != "live" || parsed.Live == nil || parsed.Live.CompressionMS != 1 {
		t.Fatalf("live fields lost: %+v", parsed)
	}
}

func TestLiveSpecValidationRejections(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Spec)
	}{
		{"unknown execution", func(s *Spec) { s.Execution = "turbo" }},
		{"live settings without live execution", func(s *Spec) { s.Execution = "" }},
		{"figure experiment", func(s *Spec) { s.Experiments[0] = Experiment{Figure: "fig4", App: "sort"} }},
		{"custom experiment", func(s *Spec) {
			s.Experiments[0] = Experiment{Custom: &CustomExperiment{
				Title: "x", Workload: WorkloadSpec{App: "sort"},
				Variants: []VariantSpec{{Label: "a", Preset: "moon"}},
			}}
		}},
		{"sort app", func(s *Spec) { s.Experiments[0].App = "sort" }},
		{"renders", func(s *Spec) { s.Experiments[0].Renders = []string{"multi"} }},
		{"arrival fields without a process", func(s *Spec) {
			s.Experiments[0].Multi.Arrivals = ""
			s.Experiments[0].Multi.LambdaPerHour = 10
			s.Experiments[0].Multi.IntervalSeconds = 0
		}},
		{"unknown arrival process", func(s *Spec) { s.Experiments[0].Multi.Arrivals = "burst" }},
		{"poisson without interval or lambda", func(s *Spec) {
			s.Experiments[0].Multi.Arrivals = "poisson"
			s.Experiments[0].Multi.IntervalSeconds = 0
		}},
		{"staggered with lambda", func(s *Spec) { s.Experiments[0].Multi.LambdaPerHour = 10 }},
		{"zero jobs", func(s *Spec) { s.Experiments[0].Multi.Jobs = 0 }},
		{"unknown policy", func(s *Spec) { s.Experiments[0].Multi.Policies = []string{"lottery"} }},
		{"duplicate canonical policy", func(s *Spec) {
			s.Experiments[0].Multi.Policies = []string{"fair", "fair", "priority"}
		}},
		{"priorities without priority policy", func(s *Spec) { s.Experiments[0].Multi.Policies = []string{"fifo"} }},
		// The live cell's own range rules. A zero size or clock in the spec
		// keeps its default, so the rules that refuse zero are reached
		// with a negative value.
		{"non-positive live horizon", func(s *Spec) { s.Live.HorizonSeconds = -1 }},
		{"negative compression", func(s *Spec) { s.Live.CompressionMS = -1 }},
		{"negative splits", func(s *Spec) { s.Live.SplitsPerJob = -1 }},
		{"non-positive words per split", func(s *Spec) { s.Live.WordsPerSplit = -400 }},
		{"non-positive reduces", func(s *Spec) { s.Live.ReducesPerJob = -3 }},
		{"negative stagger", func(s *Spec) { s.Experiments[0].Multi.IntervalSeconds = -10 }},
		{"negative live workers", func(s *Spec) { s.Live.VolatileWorkers = -2 }},
		{"drop rate above one", func(s *Spec) { s.Live.Faults = &FaultSpec{DropRate: 1.5} }},
		{"negative reset rate", func(s *Spec) { s.Live.Faults = &FaultSpec{ResetRate: -0.1} }},
		{"delay rate without delay", func(s *Spec) { s.Live.Faults = &FaultSpec{DelayRate: 0.1} }},
		{"zero-duration partition", func(s *Spec) {
			s.Live.Faults = &FaultSpec{Partitions: []PartitionSpec{{StartMS: 10}}}
		}},
		{"negative partition worker", func(s *Spec) {
			s.Live.Faults = &FaultSpec{Partitions: []PartitionSpec{{DurationMS: 10, Workers: []int{-1}}}}
		}},
		{"session expiry below the lease", func(s *Spec) { s.Live.Link = &LinkSpec{SessionExpiryMS: 20} }},
		// Past a Duration's range is an error on every platform, not
		// whatever the float-to-int conversion gives there.
		{"session expiry past a duration", func(s *Spec) { s.Live.Link = &LinkSpec{SessionExpiryMS: 1e300} }},
		{"partition start past a duration", func(s *Spec) {
			s.Live.Faults = &FaultSpec{Partitions: []PartitionSpec{{StartMS: 1e300, DurationMS: 10}}}
		}},
	}
	for _, tc := range cases {
		s := liveSpec()
		tc.edit(s)
		if _, err := Compile(s); err == nil {
			t.Errorf("%s: compiled", tc.name)
		}
	}
	s := liveSpec()
	s.Live.Link = &LinkSpec{SessionExpiryMS: -1e300}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "live: link.session_expiry_ms -1e+300 is outside the range of a duration") {
		t.Errorf("err = %v, want the field and its JSON path", err)
	}
}

// TestParseRefusesRemovedLiveFields: the protocol clocks other than session
// expiry are engine constants and a cell's timeout is the harness's, so a
// spec that still sets one is refused by the strict decoder, which names
// the field, instead of running with a value it would ignore.
func TestParseRefusesRemovedLiveFields(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(live map[string]any)
	}{
		{"lease_duration_ms", func(live map[string]any) { live["link"] = map[string]any{"lease_duration_ms": 50} }},
		{"timeout_seconds", func(live map[string]any) { live["timeout_seconds"] = 60 }},
		{"no_dedicated_replication", func(live map[string]any) { live["no_dedicated_replication"] = true }},
	} {
		var buf bytes.Buffer
		if err := liveSpec().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		tc.edit(doc["live"].(map[string]any))
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Parse error %v, want one naming the field", tc.field, err)
		}
	}
}

func TestCompileLiveLowersPlan(t *testing.T) {
	plan, err := Compile(liveSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Runs) != 1 {
		t.Fatalf("runs %d", len(plan.Runs))
	}
	run := plan.Runs[0]
	if run.Fig1 || len(run.Renders) != 1 || run.Renders[0].Kind != RenderLive {
		t.Fatalf("live plan shape: %+v", run)
	}
	vs := liveCells(t, run)
	lc := vs[0]
	if !slices.Equal(lc.Offsets, []float64{0, 10, 20}) {
		t.Fatalf("staggered arrivals lowered to offsets %v, want 10 s apart", lc.Offsets)
	}
	if lc.Engine.VolatileWorkers != 4 || lc.Engine.DedicatedWorkers != 1 {
		t.Fatalf("live pool %+v", lc.Engine)
	}
	if lc.Compression != time.Millisecond || lc.HorizonSeconds != 120 {
		t.Fatalf("live churn shape %+v", lc)
	}
	if len(vs) != 3 || vs[0].Engine.JobPolicy != "fifo" || vs[1].Engine.JobPolicy != "fair" || vs[2].Engine.JobPolicy != "priority" {
		t.Fatalf("live variants %+v", vs)
	}
	if vs[2].Priorities["live-j2"] != 5 {
		t.Fatalf("priority variant lost its ranks: %+v", vs[2])
	}
	if vs[0].Priorities != nil || vs[1].Priorities != nil {
		t.Fatal("priorities leaked onto non-priority variants")
	}
}

// TestLiveVariantsDefaultsAndSelectors: a live block's default comparison
// is fifo vs fair, the one the simulated multi block runs, and the weights
// and priorities attach only to the line of the policy that reads them.
func TestLiveVariantsDefaultsAndSelectors(t *testing.T) {
	s := liveSpec()
	m := s.Experiments[0].Multi
	m.Policies, m.Priorities = nil, nil
	plan, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	def := liveCells(t, plan.Runs[0])
	if len(def) != 2 || def[0].Engine.JobPolicy != "fifo" || def[1].Engine.JobPolicy != "fair" {
		t.Fatalf("default lines %+v", def)
	}

	m.Policies = []string{"weighted", "priority", "fifo"}
	m.Weights = map[string]float64{"live-j0": 3}
	m.Priorities = map[string]int{"live-j1": 9}
	if plan, err = Compile(s); err != nil {
		t.Fatal(err)
	}
	vs := liveCells(t, plan.Runs[0])
	if vs[0].Engine.JobWeights == nil || vs[0].Priorities != nil {
		t.Fatalf("weighted line %+v", vs[0])
	}
	if vs[1].Priorities == nil || vs[1].Engine.JobWeights != nil {
		t.Fatalf("priority line %+v", vs[1])
	}
	if vs[2].Engine.JobWeights != nil || vs[2].Priorities != nil {
		t.Fatalf("fifo line %+v", vs[2])
	}
}

// TestLiveArrivalOffsets: a live block's offsets are drawn at compile time,
// and one multi block compiled under both executions submits at the same
// offsets, bit for bit (with no arrival process, live jobs are submitted
// together where a simulated stream is staggered).
func TestLiveArrivalOffsets(t *testing.T) {
	compile := func(execution, arrivals string) (live []float64, sim []float64) {
		t.Helper()
		multi := &MultiExperiment{Jobs: 4, Arrivals: arrivals, Policies: []string{"fifo"}}
		if arrivals != "" {
			multi.IntervalSeconds, multi.ArrivalSeed = 15, 9
		}
		s := &Spec{Schema: Schema, Name: "offsets", Execution: execution,
			Sweep:       SweepSpec{Rates: []float64{0.3}},
			Experiments: []Experiment{{App: "wordcount", Multi: multi}}}
		plan, err := Compile(s)
		if err != nil {
			t.Fatalf("%s %q: %v", execution, arrivals, err)
		}
		switch cell := plan.Runs[0].Variants[0].Cell.(type) {
		case harness.LiveCell:
			return cell.Offsets, nil
		case harness.SimCell:
			for _, j := range cell.Workload.Jobs {
				sim = append(sim, j.Offset)
			}
		}
		return nil, sim
	}

	if live, _ := compile("live", ""); !slices.Equal(live, []float64{0, 0, 0, 0}) {
		t.Fatalf("default live offsets %v, want every job at 0", live)
	}
	if _, sim := compile("", ""); !slices.Equal(sim, []float64{0, 0, 0, 0}) {
		// The simulated default is staggered at interval 0.
		t.Fatalf("default simulated offsets %v", sim)
	}
	for arrivals, want := range map[string][]float64{
		"staggered": {0, 15, 30, 45},
		// Pinned draws: a change to the draw order moves every live cell's
		// submissions and every simulated stream's.
		"poisson": {0, 89.37950334703592, 110.08482155400065, 140.40668523835987},
	} {
		live, _ := compile("live", arrivals)
		_, sim := compile("", arrivals)
		if !slices.Equal(live, want) || !slices.Equal(sim, want) {
			t.Fatalf("%s: live offsets %v, simulated %v, want %v", arrivals, live, sim, want)
		}
	}
}

// TestFaultsRequireLiveExecution: a faults block under the simulator is a
// category error (the simulator has no message fabric), called out by name
// rather than folded into the generic live-settings rejection.
func TestFaultsRequireLiveExecution(t *testing.T) {
	s := liveSpec()
	s.Execution = "sim"
	s.Experiments[0].Multi.Priorities = nil
	s.Live.Faults = &FaultSpec{Seed: 1, DropRate: 0.1}
	err := s.Validate()
	if err == nil {
		t.Fatal("faults block under sim execution validated")
	}
	if !strings.Contains(err.Error(), "faults") {
		t.Fatalf("error does not name the faults block: %v", err)
	}
}

// TestCompileChaosLiveLowersFaults pins the chaos-live builtin's lowering:
// the faults block becomes a transport.FaultConfig on the cell's engine, with
// partition worker indices resolved to transport addresses, and the link
// block carries the session-expiry clock.
func TestCompileChaosLiveLowersFaults(t *testing.T) {
	s, ok := Lookup("chaos-live")
	if !ok {
		t.Fatal("chaos-live builtin missing")
	}
	plan, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Runs) != 1 {
		t.Fatalf("chaos-live plan shape: %+v", plan.Runs)
	}
	ecfg := liveCells(t, plan.Runs[0])[0].Engine
	if ecfg.SessionExpiry != 150*time.Millisecond {
		t.Fatalf("session expiry %v, want 150ms", ecfg.SessionExpiry)
	}
	f := ecfg.Faults
	if f == nil {
		t.Fatal("faults block lost in lowering")
	}
	if f.Seed != 42 || f.DropRate != 0.03 || f.Delay != time.Millisecond {
		t.Fatalf("fault config %+v", f)
	}
	if len(f.Partitions) != 1 {
		t.Fatalf("partitions %+v", f.Partitions)
	}
	p := f.Partitions[0]
	if p.Start != 100*time.Millisecond || p.Duration != 80*time.Millisecond {
		t.Fatalf("partition window %+v", p)
	}
	if len(p.Addrs) != 1 || p.Addrs[0] != engine.WorkerAddr(1) {
		t.Fatalf("partition addrs %v, want [%s]", p.Addrs, engine.WorkerAddr(1))
	}
	if err := ecfg.Validate(); err != nil {
		t.Fatalf("lowered chaos config invalid: %v", err)
	}
}

func TestFromFlagsLive(t *testing.T) {
	s, err := FromFlags(Flags{
		Experiment: "live", App: "both", Policy: "both",
		Jobs: 4, Stagger: 60, Arrivals: "staggered",
		Seeds: []uint64{1}, Rates: []float64{0.3}, Scale: 1,
		MetricsBucket: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Execution != "live" || len(s.Experiments) != 1 || s.Experiments[0].Multi.Jobs != 4 {
		t.Fatalf("live flag spec: %+v", s)
	}
	if _, err := Compile(s); err != nil {
		t.Fatal(err)
	}

	// A single policy flag narrows the comparison; sort is rejected.
	s, err = FromFlags(Flags{Experiment: "live", App: "wordcount", Policy: "priority",
		Jobs: 2, Stagger: 60, Arrivals: "staggered", MetricsBucket: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Experiments[0].Multi.Policies; len(got) != 1 || got[0] != "priority" {
		t.Fatalf("policies %v", got)
	}
	if _, err := FromFlags(Flags{Experiment: "live", App: "sort", Policy: "both",
		Jobs: 2, Stagger: 60, Arrivals: "staggered"}); err == nil {
		t.Fatal("live sort accepted")
	}
	if _, err := FromFlags(Flags{Experiment: "live", App: "both", Policy: "lottery",
		Jobs: 2, Stagger: 60, Arrivals: "staggered"}); err == nil {
		t.Fatal("live unknown policy accepted")
	}
}
