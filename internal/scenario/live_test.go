package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
)

// liveCells returns the live cells of a compiled live run, every line on
// the same cell shape.
func liveCells(t *testing.T, run PlanRun) []harness.LiveCell {
	t.Helper()
	var cells []harness.LiveCell
	for _, v := range run.Variants {
		cell, ok := v.Cell.(harness.LiveCell)
		if !ok {
			t.Fatalf("line %s of a live run is a %T", v.Label, v.Cell)
		}
		if len(cells) > 0 && cell.Config != cells[0].Config {
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
			s.Experiments[0].Multi.Policies = []string{"fair", "fair-share", "priority"}
		}},
		{"priorities without priority policy", func(s *Spec) { s.Experiments[0].Multi.Policies = []string{"fifo"} }},
		{"negative live horizon", func(s *Spec) { s.Live.HorizonSeconds = -1 }},
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
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
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

func TestLiveSpecAliasPoliciesCarryPrioritiesAndWeights(t *testing.T) {
	// Canonicalized alias spellings must satisfy the weights/priorities
	// policy requirement (the silent-fall-through fix), and their lines run
	// the canonical policy with its selectors: a "strict-priority" line must
	// not run with everyone at rank 0.
	lineOf := func(s *Spec) harness.LiveCell {
		t.Helper()
		plan, err := Compile(s)
		if err != nil {
			t.Fatalf("alias %v rejected: %v", s.Experiments[0].Multi.Policies, err)
		}
		return liveCells(t, plan.Runs[0])[0]
	}
	s := liveSpec()
	s.Experiments[0].Multi.Policies = []string{"strict-priority"}
	if c := lineOf(s); c.Policy != "priority" || c.Priorities == nil {
		t.Fatalf("priority alias dropped its priorities: %+v", c)
	}
	s = liveSpec()
	s.Experiments[0].Multi.Policies = []string{"weighted-fair"}
	s.Experiments[0].Multi.Priorities = nil
	s.Experiments[0].Multi.Weights = map[string]float64{"live-j0": 2}
	if c := lineOf(s); c.Policy != "weighted" || c.Weights == nil {
		t.Fatalf("weighted alias dropped its weights: %+v", c)
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
	lc := vs[0].Config
	if lc.Jobs != 3 || lc.VolatileWorkers != 4 || lc.DedicatedWorkers != 1 {
		t.Fatalf("live config %+v", lc)
	}
	if lc.Compression != time.Millisecond || lc.HorizonSeconds != 120 {
		t.Fatalf("live churn shape %+v", lc)
	}
	if lc.Arrivals != "staggered" || lc.ArrivalInterval != 10 {
		t.Fatalf("arrivals not lowered: %+v", lc)
	}
	if len(vs) != 3 || vs[0].Policy != "fifo" || vs[1].Policy != "fair" || vs[2].Policy != "priority" {
		t.Fatalf("live variants %+v", vs)
	}
	if vs[2].Priorities["live-j2"] != 5 {
		t.Fatalf("priority variant lost its ranks: %+v", vs[2])
	}
	if vs[0].Priorities != nil || vs[1].Priorities != nil {
		t.Fatal("priorities leaked onto non-priority variants")
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
// the faults block becomes a transport.FaultConfig on the cell config, with
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
	lc := liveCells(t, plan.Runs[0])[0].Config
	if lc.SessionExpiry != 150*time.Millisecond {
		t.Fatalf("session expiry %v, want 150ms", lc.SessionExpiry)
	}
	f := lc.Faults
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
	if err := lc.Validate(); err != nil {
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
