package harness_test

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// The paper's lines, as internal/scenario compiles them, run through the
// sweep runner. The line tables themselves are scenario's (its tests assert
// on what each lowers to); these tests hold the runner to what the figures
// need from it end to end.

// compile lowers one experiment to its run.
func compile(t *testing.T, exp scenario.Experiment) scenario.PlanRun {
	t.Helper()
	plan, err := scenario.Compile(&scenario.Spec{
		Schema: scenario.Schema, Name: "paper-lines", Experiments: []scenario.Experiment{exp},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan.Runs[0]
}

func labels(run scenario.PlanRun) string {
	var out []string
	for _, v := range run.Variants {
		out = append(out, v.Label)
	}
	return strings.Join(out, " ")
}

// pick returns the run's lines with the given labels, in the run's order.
func pick(t *testing.T, run scenario.PlanRun, want ...string) []harness.Variant {
	t.Helper()
	var out []harness.Variant
	for _, v := range run.Variants {
		for _, w := range want {
			if v.Label == w {
				out = append(out, v)
			}
		}
	}
	if len(out) != len(want) {
		t.Fatalf("lines %v not all in %q", want, labels(run))
	}
	return out
}

func TestSchedulingVariantsComplete(t *testing.T) {
	for _, fig := range []string{"fig4", "fig5"} {
		run := compile(t, scenario.Experiment{Figure: fig, App: "sort"})
		if got := labels(run); got != "Hadoop10Min Hadoop5Min Hadoop1Min MOON MOON-Hybrid" {
			t.Fatalf("%s lines %q", fig, got)
		}
	}
}

func TestReplicationVariantsComplete(t *testing.T) {
	run := compile(t, scenario.Experiment{Figure: "fig6", App: "wordcount"})
	if got := labels(run); got != "VO-V1 VO-V2 VO-V3 VO-V4 VO-V5 HA-V1 HA-V2 HA-V3" {
		t.Fatalf("fig6 lines %q", got)
	}
}

func TestOverallVariantsComplete(t *testing.T) {
	run := compile(t, scenario.Experiment{Figure: "fig7", App: "sort"})
	if got := labels(run); got != "Hadoop-VO MOON-HybridD3 MOON-HybridD4 MOON-HybridD6" {
		t.Fatalf("fig7 lines %q", got)
	}
}

func TestAblationVariantCatalogs(t *testing.T) {
	for name, want := range map[string]string{
		"homestretch": "off H10-R2 H20-R2 H20-R3 H40-R2",
		"speccap":     "cap5% cap20% cap50% uncapped",
		"hibernate":   "hib30s hib60s hib300s hib1799s",
		"adaptive":    "target0.5 target0.9 target0.99",
	} {
		if got := labels(compile(t, scenario.Experiment{Ablation: name, App: "sort"})); got != want {
			t.Errorf("ablation %s lines %q, want %q", name, got, want)
		}
	}
	if got := labels(compile(t, scenario.Experiment{Correlated: true, App: "sort"})); got != "Hadoop1Min MOON MOON-Hybrid" {
		t.Errorf("correlated lines %q", got)
	}
}

func TestRunAblationUnknownName(t *testing.T) {
	_, err := scenario.Compile(&scenario.Spec{
		Schema: scenario.Schema, Name: "bad", Experiments: []scenario.Experiment{{Ablation: "nosuch", App: "sort"}},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown ablation") {
		t.Fatalf("err = %v", err)
	}
}

func TestAblationSweepTiny(t *testing.T) {
	// Two homestretch lines at tiny scale prove the lowered deltas produce
	// runnable stacks.
	cfg := harness.Config{Seeds: []uint64{1}, Scale: 16, Rates: []float64{0.3}}
	run := compile(t, scenario.Experiment{Ablation: "homestretch", App: "sort"})
	sw, err := cfg.RunSweep("tiny", run.Variants[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sw.Variants {
		if sw.Get(v, 0.3).Jobs[0].Makespan <= 0 {
			t.Fatalf("variant %s produced no makespan", v)
		}
	}
}

func TestCorrelatedSweepTiny(t *testing.T) {
	cfg := harness.Config{Seeds: []uint64{1}, Scale: 16, Rates: []float64{0.1}}
	run := compile(t, scenario.Experiment{Correlated: true, App: "sort"})
	sw, err := cfg.RunSweep(run.Title, run.Variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Variants) != 3 {
		t.Fatalf("variants %v", sw.Variants)
	}
	for _, v := range sw.Variants {
		if sw.Get(v, 0.1).Jobs[0].Makespan <= 0 {
			t.Fatalf("variant %s produced no makespan", v)
		}
	}
}

// TestFIFOFavorsEarlyJobsFairShareBalances: in the same staggered stream,
// FIFO gives the first job at least as good a makespan as fair-share does
// (it never shares slots away from the head of the queue). A cheap sanity
// check that the policy knob actually reaches the scheduler through every
// layer, from the spec's policy name down.
func TestFIFOFavorsEarlyJobsFairShareBalances(t *testing.T) {
	cfg := harness.Config{Seeds: []uint64{1}, Scale: 16, Rates: []float64{0.3}}
	run := compile(t, scenario.Experiment{App: "sort", Multi: &scenario.MultiExperiment{Jobs: 3, IntervalSeconds: 30}})
	sw, err := cfg.RunSweep(run.Title, run.Variants)
	if err != nil {
		t.Fatal(err)
	}
	fifo := sw.Get("MOON-fifo", 0.3)
	fair := sw.Get("MOON-fair", 0.3)
	if fifo.Jobs[0].Makespan > fair.Jobs[0].Makespan+1e-9 {
		t.Errorf("FIFO first-job makespan %v worse than fair-share %v",
			fifo.Jobs[0].Makespan, fair.Jobs[0].Makespan)
	}
	if !(fair.Throughput > 0) {
		t.Errorf("fair throughput %v", fair.Throughput)
	}
}

// TestPaperShapesHold is the reproduction's regression guard: at reduced
// scale and the highest churn rate, the paper's qualitative claims must
// hold. Skipped under -short (it runs a dozen full simulations).
func TestPaperShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation shape check")
	}
	cfg := harness.Config{Seeds: []uint64{1, 2}, Scale: 4, Rates: []float64{0.5}}
	makespan := func(sw *harness.Sweep, label string) float64 { return sw.Get(label, 0.5).Jobs[0].Makespan }

	t.Run("Fig4_MOONHybridBeatsHadoop", func(t *testing.T) {
		run := compile(t, scenario.Experiment{Figure: "fig4", App: "sort"})
		sw, err := cfg.RunSweep(run.Title, run.Variants)
		if err != nil {
			t.Fatal(err)
		}
		hybrid := makespan(sw, "MOON-Hybrid")
		for _, h := range []string{"Hadoop10Min", "Hadoop5Min"} {
			if got := makespan(sw, h); hybrid >= got {
				t.Errorf("MOON-Hybrid (%.0f) not faster than %s (%.0f) at 0.5", hybrid, h, got)
			}
		}
		// Fig 5 from the same sweep: MOON must not out-duplicate the most
		// kill-happy Hadoop setting by more than its homestretch budget
		// (at 1/4 scale the proactive tail copies weigh more than at the
		// paper's full scale, where MOON is strictly below Hadoop1Min).
		if m, h := sw.Get("MOON", 0.5).Jobs[0].Duplicated, sw.Get("Hadoop1Min", 0.5).Jobs[0].Duplicated; m > 1.5*h {
			t.Errorf("MOON duplicates %.0f far exceed Hadoop1Min's %.0f", m, h)
		}
	})

	t.Run("Fig6_HABeatsVO1", func(t *testing.T) {
		// Only the two endpoints of the comparison, to bound runtime.
		run := compile(t, scenario.Experiment{Figure: "fig6", App: "sort"})
		sw, err := cfg.RunSweep("fig6 endpoints", pick(t, run, "VO-V1", "HA-V1"))
		if err != nil {
			t.Fatal(err)
		}
		vo, ha := sw.Get("VO-V1", 0.5).Jobs[0], sw.Get("HA-V1", 0.5).Jobs[0]
		if ha.Makespan >= vo.Makespan {
			t.Errorf("HA-V1 (%.0f) not faster than VO-V1 (%.0f) at 0.5", ha.Makespan, vo.Makespan)
		}
		if ha.KilledMaps >= vo.KilledMaps {
			t.Errorf("HA-V1 killed maps (%.0f) not below VO-V1's (%.0f)", ha.KilledMaps, vo.KilledMaps)
		}
	})

	t.Run("Fig7_MOONBeatsHadoopVO", func(t *testing.T) {
		run := compile(t, scenario.Experiment{Figure: "fig7", App: "sort"})
		sw, err := cfg.RunSweep("fig7 endpoints", pick(t, run, "Hadoop-VO", "MOON-HybridD6"))
		if err != nil {
			t.Fatal(err)
		}
		if moon, hvo := makespan(sw, "MOON-HybridD6"), makespan(sw, "Hadoop-VO"); moon >= hvo {
			t.Errorf("MOON-HybridD6 (%.0f) not faster than Hadoop-VO (%.0f) at 0.5", moon, hvo)
		}
	})
}
