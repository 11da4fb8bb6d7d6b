package trace

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCorrelatedFleetInvariants(t *testing.T) {
	traces, err := GenerateCorrelatedFleet(rng.New(1), DefaultCorrelatedConfig(), 8*3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 60 {
		t.Fatalf("fleet size %d", len(traces))
	}
	for i := range traces {
		if err := traces[i].Validate(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

func TestCorrelatedSessionsRaisePeak(t *testing.T) {
	const horizon = 8 * 3600
	indep, err := GenerateFleet(rng.New(2), DefaultOutageConfig(0.1), horizon, 60)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := GenerateCorrelatedFleet(rng.New(2), DefaultCorrelatedConfig(), horizon, 60)
	if err != nil {
		t.Fatal(err)
	}
	// The peak fraction of nodes away at once, sampled every ten minutes:
	// the quantity the paper bounds at "as many as 90%".
	pi := slices.Max(AggregateUnavailability(indep, 600, horizon))
	pc := slices.Max(AggregateUnavailability(corr, 600, horizon))
	if pc <= pi {
		t.Fatalf("correlated peak %.2f not above independent peak %.2f", pc, pi)
	}
	// Lab sessions capture ~9 of each 10-node group; the peak should be
	// session-scale, not base-churn scale.
	if pc < 0.2 {
		t.Fatalf("correlated peak %.2f implausibly low", pc)
	}
}

func TestCorrelatedGroupGoesDownTogether(t *testing.T) {
	cfg := DefaultCorrelatedConfig()
	cfg.Base.TargetRate = 0 // isolate the correlated component
	cfg.Participation = 1
	cfg.SessionsPerGroup = 1
	traces, err := GenerateCorrelatedFleet(rng.New(3), cfg, 8*3600, 10) // one group
	if err != nil {
		t.Fatal(err)
	}
	// All ten nodes share exactly one outage window.
	first := traces[0].Outages
	if len(first) != 1 {
		t.Fatalf("node 0 has %d outages, want 1", len(first))
	}
	for i := 1; i < 10; i++ {
		if len(traces[i].Outages) != 1 || traces[i].Outages[0] != first[0] {
			t.Fatalf("node %d session %v differs from node 0's %v", i, traces[i].Outages, first)
		}
	}
}

func TestCorrelatedValidation(t *testing.T) {
	bad := DefaultCorrelatedConfig()
	bad.GroupSize = 0
	if _, err := GenerateCorrelatedFleet(rng.New(1), bad, 100, 10); err == nil {
		t.Fatal("zero group size accepted")
	}
	bad = DefaultCorrelatedConfig()
	bad.Participation = 1.5
	if _, err := GenerateCorrelatedFleet(rng.New(1), bad, 100, 10); err == nil {
		t.Fatal("participation > 1 accepted")
	}
	bad = DefaultCorrelatedConfig()
	bad.SessionMean = 0
	if _, err := GenerateCorrelatedFleet(rng.New(1), bad, 100, 10); err == nil {
		t.Fatal("zero session mean accepted")
	}
	if _, err := GenerateCorrelatedFleet(rng.New(1), DefaultCorrelatedConfig(), 100, -1); err == nil {
		t.Fatal("negative fleet size accepted")
	}
}

func TestMergeOutage(t *testing.T) {
	base := Trace{Duration: 100, Outages: []Interval{{Start: 10, End: 20}, {Start: 50, End: 60}}}
	// Overlapping merge.
	got := mergeOutage(base, Interval{Start: 15, End: 55})
	if len(got.Outages) != 1 || got.Outages[0] != (Interval{Start: 10, End: 60}) {
		t.Fatalf("merge = %v", got.Outages)
	}
	// Disjoint insert.
	got = mergeOutage(base, Interval{Start: 70, End: 80})
	if len(got.Outages) != 3 {
		t.Fatalf("insert = %v", got.Outages)
	}
	// Past-horizon clamp.
	got = mergeOutage(base, Interval{Start: 90, End: 200})
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degenerate after clamp.
	got = mergeOutage(base, Interval{Start: 100, End: 100})
	if len(got.Outages) != 2 {
		t.Fatal("degenerate interval changed the trace")
	}
}

// Property: merging any interval preserves trace invariants.
func TestQuickMergeOutage(t *testing.T) {
	if err := quick.Check(func(seed uint64, s16, l16 uint16) bool {
		tr, err := Generate(rng.New(seed), DefaultOutageConfig(0.3), 8*3600)
		if err != nil {
			return false
		}
		start := float64(s16 % (8 * 3600))
		iv := Interval{Start: start, End: start + float64(l16%7200)}
		merged := mergeOutage(tr, iv)
		return merged.Validate() == nil
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
