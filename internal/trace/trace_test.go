package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustGenerate(t *testing.T, seed uint64, rate, duration float64) Trace {
	t.Helper()
	tr, err := Generate(rng.New(seed), DefaultOutageConfig(rate), duration)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr
}

func TestGenerateHitsTargetRate(t *testing.T) {
	for _, rate := range []float64{0.1, 0.3, 0.4, 0.5} {
		tr := mustGenerate(t, 1, rate, 8*3600)
		got := tr.UnavailableFraction()
		if math.Abs(got-rate) > 0.01 {
			t.Fatalf("rate %v: measured %v", rate, got)
		}
	}
}

func TestGenerateInvariantsHold(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		tr := mustGenerate(t, seed, 0.5, 8*3600)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGenerateZeroRate(t *testing.T) {
	tr := mustGenerate(t, 2, 0, 8*3600)
	if len(tr.Outages) != 0 {
		t.Fatalf("zero rate produced %d outages", len(tr.Outages))
	}
	if !tr.AvailableAt(100) {
		t.Fatal("zero-rate trace unavailable")
	}
}

func TestGenerateMeanOutageNearConfig(t *testing.T) {
	tr := mustGenerate(t, 3, 0.4, 40*3600) // long horizon for many samples
	mean := tr.MeanOutage()
	if mean < 300 || mean > 520 {
		t.Fatalf("mean outage %v far from configured 409", mean)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	r := rng.New(1)
	if _, err := Generate(r, DefaultOutageConfig(1.5), 100); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := Generate(r, DefaultOutageConfig(-0.1), 100); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := Generate(r, DefaultOutageConfig(0.3), -5); err == nil {
		t.Fatal("negative duration accepted")
	}
	cfg := DefaultOutageConfig(0.3)
	cfg.MeanOutage = 0
	if _, err := Generate(r, cfg, 100); err == nil {
		t.Fatal("zero mean outage accepted")
	}
	cfg = DefaultOutageConfig(0.3)
	cfg.MinOutage, cfg.MaxOutage = 100, 50
	if _, err := Generate(r, cfg, 100); err == nil {
		t.Fatal("inverted clamp accepted")
	}
	// A negative fleet size is an error, not a makeslice panic (it is
	// `moontrace -nodes -1`).
	if _, err := GenerateFleet(r, DefaultOutageConfig(0.3), 100, -1); err == nil {
		t.Fatal("negative fleet size accepted")
	}
}

func TestAvailableAt(t *testing.T) {
	tr := Trace{Duration: 100, Outages: []Interval{{10, 20}, {50, 60}}}
	cases := []struct {
		at   float64
		want bool
	}{
		{0, true}, {9.99, true}, {10, false}, {15, false}, {19.99, false},
		{20, true}, {49, true}, {55, false}, {60, true}, {99, true}, {150, true},
	}
	for _, c := range cases {
		if got := tr.AvailableAt(c.at); got != c.want {
			t.Fatalf("AvailableAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestNextTransition(t *testing.T) {
	tr := Trace{Duration: 100, Outages: []Interval{{10, 20}, {50, 60}}}
	if when, avail, ok := tr.NextTransition(0); !ok || when != 10 || avail {
		t.Fatalf("NextTransition(0) = %v,%v,%v", when, avail, ok)
	}
	if when, avail, ok := tr.NextTransition(15); !ok || when != 20 || !avail {
		t.Fatalf("NextTransition(15) = %v,%v,%v", when, avail, ok)
	}
	if when, avail, ok := tr.NextTransition(20); !ok || when != 50 || avail {
		t.Fatalf("NextTransition(20) = %v,%v,%v", when, avail, ok)
	}
	if _, _, ok := tr.NextTransition(60); ok {
		t.Fatal("NextTransition past last outage should report !ok")
	}
}

func TestGenerateFleetIndependent(t *testing.T) {
	traces, err := GenerateFleet(rng.New(7), DefaultOutageConfig(0.4), 8*3600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 10 {
		t.Fatalf("fleet size %d", len(traces))
	}
	// Two nodes must not share identical outage schedules.
	for i := 1; i < len(traces); i++ {
		if len(traces[i].Outages) == len(traces[0].Outages) {
			same := true
			for j := range traces[i].Outages {
				if traces[i].Outages[j] != traces[0].Outages[j] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("nodes 0 and %d share an identical trace", i)
			}
		}
	}
}

func TestAggregateUnavailability(t *testing.T) {
	traces := []Trace{
		{Duration: 100, Outages: []Interval{{0, 50}}},
		{Duration: 100, Outages: []Interval{{50, 100}}},
	}
	agg := AggregateUnavailability(traces, 50, 100)
	if len(agg) != 2 {
		t.Fatalf("got %d buckets", len(agg))
	}
	if agg[0] != 0.5 || agg[1] != 0.5 {
		t.Fatalf("agg = %v, want [0.5 0.5]", agg)
	}
	if AggregateUnavailability(nil, 50, 100) != nil {
		t.Fatal("empty fleet should aggregate to nil")
	}
}

func TestGenerateMarkovRateTracksProfile(t *testing.T) {
	r := rng.New(11)
	const horizon = 200 * 3600 // long horizon to converge
	tr := GenerateMarkov(r, func(float64) float64 { return 0.4 }, 409, horizon)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got := tr.UnavailableFraction()
	if math.Abs(got-0.4) > 0.05 {
		t.Fatalf("markov stationary rate %v, want ~0.4", got)
	}
}

func TestGenerateFig1ResemblesPaper(t *testing.T) {
	days := GenerateFig1(rng.New(2026))
	if len(days) != 7 {
		t.Fatalf("got %d days", len(days))
	}
	sum, n := 0.0, 0
	for _, d := range days {
		if len(d.Series) != 48 { // 8h / 10min
			t.Fatalf("day %d has %d buckets", d.Day, len(d.Series))
		}
		for _, v := range d.Series {
			if v < 0 || v > 1 {
				t.Fatalf("impossible unavailability %v", v)
			}
			sum += v
			n++
		}
	}
	avg := sum / float64(n)
	// Paper: "individual node unavailability rates average around 0.4".
	if avg < 0.3 || avg < 0.2 || avg > 0.6 {
		t.Fatalf("fleet-average unavailability %v outside the paper's regime", avg)
	}
}

func TestRoundTripIO(t *testing.T) {
	tr := mustGenerate(t, 5, 0.3, 8*3600)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Duration != tr.Duration || len(back.Outages) != len(tr.Outages) {
		t.Fatalf("round trip changed shape: %d vs %d outages", len(back.Outages), len(tr.Outages))
	}
	for i := range back.Outages {
		if math.Abs(back.Outages[i].Start-tr.Outages[i].Start) > 1e-5 ||
			math.Abs(back.Outages[i].End-tr.Outages[i].End) > 1e-5 {
			t.Fatalf("outage %d changed: %+v vs %+v", i, back.Outages[i], tr.Outages[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                                     // empty
		"duration 100\n1 2\n",                  // missing header
		"# moon-trace v1\n1 2\n",               // missing duration
		"# moon-trace v1\nduration 100\nx y\n", // bad floats
		"# moon-trace v1\nduration 100\n5 4\n", // inverted interval
		"# moon-trace v1\nduration 100\n1 2 3\n",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted: %q", i, c)
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	tr := Trace{Duration: 100, Outages: []Interval{{10, 30}, {20, 40}}}
	if tr.Validate() == nil {
		t.Fatal("overlapping outages validated")
	}
	tr = Trace{Duration: 100, Outages: []Interval{{10, 200}}}
	if tr.Validate() == nil {
		t.Fatal("outage past horizon validated")
	}
}

// Property: generated traces always validate and never exceed the requested
// rate by more than a clamp-width tolerance.
func TestQuickGenerate(t *testing.T) {
	cfgGen := func(seed uint64, ratePct uint8) bool {
		rate := float64(ratePct%90) / 100
		tr, err := Generate(rng.New(seed), DefaultOutageConfig(rate), 8*3600)
		if err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		return math.Abs(tr.UnavailableFraction()-rate) < 0.02
	}
	if err := quick.Check(cfgGen, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
