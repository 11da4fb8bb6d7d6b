package harness

import (
	"math"
	"testing"

	"repro/internal/mapred"
	"repro/internal/metrics"
)

// TestSingleJobRunStatsUnchanged pins the single-job scheduling sweep to
// bit-exact golden values captured before the JobTracker became
// multi-tenant (the job-queue + SchedPolicy refactor). A single submitted
// job under the default FIFO arbitration must reproduce the historical
// one-job-at-a-time scheduler exactly — any drift here means the refactor
// changed single-job behavior.
func TestSingleJobRunStatsUnchanged(t *testing.T) {
	golden := []struct {
		variant    string
		rate       float64
		makespan   uint64 // math.Float64bits
		avgMapTime uint64
		duplicated uint64
		killedMaps float64
		capped     bool
	}{
		{"Hadoop1Min", 0.1, 0x4068800116b9b003, 0x4045000c069c759f, 0x3ff5555555555555, 0.6666666666666666, false},
		{"Hadoop1Min", 0.5, 0x407110004ff155eb, 0x4045000ae7d2370e, 0x401aaaaaaaaaaaab, 2, false},
		{"MOON", 0.1, 0x4060a00242fa7329, 0x404500167ab02703, 0x403f000000000000, 24, false},
		{"MOON", 0.5, 0x4072d3ec78c1fdf3, 0x4045001424bd3789, 0x4041d55555555555, 24, false},
		{"MOON-Hybrid", 0.1, 0x4060a00140c06f4c, 0x40450009e100dfb5, 0x403f000000000000, 24, false},
		{"MOON-Hybrid", 0.5, 0x4060a0014e5cdd50, 0x4045000b11bb6054, 0x403f000000000000, 24, false},
	}

	cfg := Config{Seeds: []uint64{1, 2, 3}, Scale: 16, Rates: []float64{0.1, 0.5}}
	sw, err := cfg.RunSweep("golden", schedLines())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		st := sw.Get(g.variant, g.rate)
		if len(st.Jobs) != 1 {
			t.Fatalf("%s/%v has %d job rows, want 1", g.variant, g.rate, len(st.Jobs))
		}
		job := st.Jobs[0]
		if got := math.Float64bits(job.Makespan); got != g.makespan {
			t.Errorf("%s/%v makespan %v (bits %#x), want bits %#x",
				g.variant, g.rate, job.Makespan, got, g.makespan)
		}
		if got := math.Float64bits(job.AvgMapTime); got != g.avgMapTime {
			t.Errorf("%s/%v avg map time %v (bits %#x), want bits %#x",
				g.variant, g.rate, job.AvgMapTime, got, g.avgMapTime)
		}
		if got := math.Float64bits(job.Duplicated); got != g.duplicated {
			t.Errorf("%s/%v duplicated %v (bits %#x), want bits %#x",
				g.variant, g.rate, job.Duplicated, got, g.duplicated)
		}
		if job.KilledMaps != g.killedMaps {
			t.Errorf("%s/%v killed maps %v, want %v", g.variant, g.rate, job.KilledMaps, g.killedMaps)
		}
		if st.Capped != g.capped {
			t.Errorf("%s/%v capped %v, want %v", g.variant, g.rate, st.Capped, g.capped)
		}
		// A single job is a stream of one: the run-level numbers are its own.
		if st.Span != job.Makespan || st.Completed != 1 {
			t.Errorf("%s/%v span %v completed %v for a one-job makespan %v",
				g.variant, g.rate, st.Span, st.Completed, job.Makespan)
		}
	}
}

// TestMultiJobPolicySweepUnchanged pins the multi-job sweep to bit-exact
// golden values captured before the scheduling core was extracted into
// internal/sched (the JobTracker delegating queueing and slot arbitration
// to the shared package). FIFO, fair-share and weighted-fair must each
// reproduce the pre-refactor scheduler exactly — any drift here means the
// extraction changed arbitration decisions, not just their packaging. The
// configuration (4 jobs, zero stagger, scale 8) saturates the cluster so
// the three policies genuinely diverge: a vacuous pin that passes under
// any ordering would not guard the refactor.
func TestMultiJobPolicySweepUnchanged(t *testing.T) {
	golden := []struct {
		variant    string
		rate       float64
		span       uint64 // math.Float64bits
		throughput uint64
		makespans  []uint64
		capped     bool
	}{
		{"MOON-fifo", 0.3, 0x40704800aaa32088, 0x404c395900eddc6e, []uint64{0x406370022a02282a, 0x406d9003f83afb92, 0x4068e004568c5e2f, 0x406de002217bfa2b}, false},
		{"MOON-fair", 0.3, 0x4072cf98a9dc52e1, 0x4047ee8e844e9eea, []uint64{0x4072cf98a9dc52e1, 0x406b5003fab3241c, 0x406e2004311791c7, 0x406de001f5d3d38c}, false},
		{"MOON-weighted", 0.3, 0x40760000541fe1bf, 0x4044f2911a38aeda, []uint64{0x40637002495e75bb, 0x406d9003f8758fa4, 0x4072280223ad3f98, 0x406de001f0b4c94a}, false},
	}

	cfg := Config{Seeds: []uint64{1, 2}, Scale: 8, Rates: []float64{0.3}}
	sw, err := cfg.RunSweep("golden-multi", streamLines(4, 0,
		mapred.FIFO(), mapred.FairShare(), mapred.WeightedFair(map[string]float64{"sleep-sort-j0": 4})))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		st := sw.Get(g.variant, g.rate)
		if got := math.Float64bits(st.Span); got != g.span {
			t.Errorf("%s/%v span %v (bits %#x), want bits %#x", g.variant, g.rate, st.Span, got, g.span)
		}
		if got := math.Float64bits(st.Throughput); got != g.throughput {
			t.Errorf("%s/%v throughput %v (bits %#x), want bits %#x", g.variant, g.rate, st.Throughput, got, g.throughput)
		}
		if len(st.Jobs) != len(g.makespans) {
			t.Fatalf("%s/%v has %d job rows, want %d", g.variant, g.rate, len(st.Jobs), len(g.makespans))
		}
		for i, job := range st.Jobs {
			if got := math.Float64bits(job.Makespan); got != g.makespans[i] {
				t.Errorf("%s/%v job %d makespan %v (bits %#x), want bits %#x", g.variant, g.rate, i, job.Makespan, got, g.makespans[i])
			}
		}
		if st.Capped != g.capped {
			t.Errorf("%s/%v capped %v, want %v", g.variant, g.rate, st.Capped, g.capped)
		}
	}
}

// sameBits compares two cells number by number at the bit level: metrics
// collection must not shift a single ulp anywhere.
func sameBits(t *testing.T, label string, a, b Stats) {
	t.Helper()
	cmp := func(name string, x, y float64) {
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("%s: %s differs with metrics on: %v (bits %#x) vs %v (bits %#x)",
				label, name, x, math.Float64bits(x), y, math.Float64bits(y))
		}
	}
	if len(a.Jobs) != 1 || len(b.Jobs) != 1 {
		t.Fatalf("%s: %d and %d job rows, want 1 each", label, len(a.Jobs), len(b.Jobs))
	}
	names := []string{"makespan", "queueWait", "avgMapTime", "avgShuffleTime", "avgReduceTime",
		"killedMaps", "killedReduces", "duplicated", "invalidations",
		"mapAttempts", "reduceAttempts", "backupCopies", "mapReexecs", "fetchFailures"}
	bf := b.Jobs[0].fields()
	for i, f := range a.Jobs[0].fields() {
		cmp(names[i], *f, *bf[i])
	}
	cmp("span", a.Span, b.Span)
	cmp("throughput", a.Throughput, b.Throughput)
	cmp("completed", a.Completed, b.Completed)
	cmp("replicationBytes", a.ReplicationBytes, b.ReplicationBytes)
	if a.Capped != b.Capped || a.Runs != b.Runs {
		t.Errorf("%s: capped/runs differ with metrics on: %v/%d vs %v/%d",
			label, a.Capped, a.Runs, b.Capped, b.Runs)
	}
}

// TestMetricsCollectionDoesNotPerturbRuns pins the tentpole invariant of
// the metrics subsystem: attaching a collector to every run of a sweep must
// leave every cell's Stats byte-identical to the uninstrumented sweep —
// collection is observation, never interference. It also asserts the
// collected reports actually carry non-zero series from the sim, cluster,
// dfs and mapred layers, so the invariant is not vacuously met by an idle
// collector.
func TestMetricsCollectionDoesNotPerturbRuns(t *testing.T) {
	variants := schedLines()[1:] // MOON, MOON-Hybrid
	cfg := Config{Seeds: []uint64{1, 2}, Scale: 16, Rates: []float64{0.5}}
	plain, err := cfg.RunSweep("plain", variants)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != nil {
		t.Fatal("uninstrumented sweep grew a metrics report")
	}

	cfg.MetricsBucket = 600
	inst, err := cfg.RunSweep("instrumented", variants)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range plain.Variants {
		for _, rate := range plain.Rates {
			sameBits(t, v, plain.Get(v, rate), inst.Get(v, rate))
		}
	}

	if inst.Metrics == nil {
		t.Fatal("instrumented sweep has no metrics report")
	}
	snap := inst.Metrics["MOON"][0.5]
	nonZero := map[string]bool{}
	for _, sd := range snap.Series {
		for _, pt := range sd.Points {
			if pt.Value != 0 {
				nonZero[sd.Layer] = true
				break
			}
		}
	}
	for _, layer := range []string{"sim", "cluster", "dfs", "mapred"} {
		if !nonZero[layer] {
			t.Errorf("no non-zero series collected from layer %q", layer)
		}
	}
	if snap.Bucket != 600 {
		t.Errorf("snapshot bucket %v, want 600", snap.Bucket)
	}
	// The merged cell must carry the per-job gauges too.
	var sawMakespan bool
	for _, g := range snap.Gauges {
		if g.Layer == string(metrics.LayerMapred) && g.Name == "makespan_seconds" {
			sawMakespan = g.Value > 0
		}
	}
	if !sawMakespan {
		t.Error("per-job makespan gauge missing from merged snapshot")
	}
}
