package harness

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestLiveCellsEndToEnd drives the live goroutine engine through the
// shared sweep runner: (policy × rate × seed) cells on the fanOut pool,
// trace-compressed churn per cell, per-job profiles folded into the
// cell's job rows, and engine-layer metrics merged per cell.
func TestLiveCellsEndToEnd(t *testing.T) {
	lc := DefaultLiveConfig()
	lc.HorizonSeconds = 60
	lc.Jobs = 3
	lc.SplitsPerJob = 5
	lc.WordsPerSplit = 120
	lc.ReducesPerJob = 2

	cfg := Config{Seeds: []uint64{1, 2}, Rates: []float64{0.3}, MetricsBucket: 1}
	var lines []string
	cfg.Progress = func(s string) { lines = append(lines, s) }

	sw, err := cfg.RunSweep("live smoke", LiveVariants(lc, []string{"fifo", "fair"}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Variants) != 2 || sw.Variants[0] != "live-fifo" || sw.Variants[1] != "live-fair" {
		t.Fatalf("variants %v", sw.Variants)
	}
	for _, v := range sw.Variants {
		st := sw.Get(v, 0.3)
		if n := len(sw.Runs(v, 0.3)); n != 2 {
			t.Fatalf("%s kept %d runs, want 2", v, n)
		}
		if st.Completed != float64(lc.Jobs) {
			t.Fatalf("%s completed %v of %d jobs", v, st.Completed, lc.Jobs)
		}
		if len(st.Jobs) != lc.Jobs {
			t.Fatalf("%s has %d job rows, want %d", v, len(st.Jobs), lc.Jobs)
		}
		for i, job := range st.Jobs {
			if job.Makespan <= 0 {
				t.Errorf("%s job %d makespan %v", v, i, job.Makespan)
			}
			if job.QueueWait < 0 || job.QueueWait > job.Makespan {
				t.Errorf("%s job %d queue wait %v vs makespan %v", v, i, job.QueueWait, job.Makespan)
			}
			if job.MapAttempts < float64(lc.SplitsPerJob) {
				t.Errorf("%s job %d map attempts %v below its input count", v, i, job.MapAttempts)
			}
		}

		// Engine-layer metrics merged per cell: fleet counters, per-job
		// gauges, and the task-duration histogram.
		snap := sw.snaps[slices.Index(sw.Variants, v)] // one rate: a snapshot per line
		var sawAttempts, sawHist bool
		for _, c := range snap.Counters {
			if c.Layer == metrics.LayerEngine && c.Name == "map_attempts" && c.Value > 0 {
				sawAttempts = true
			}
		}
		gauges := map[string]int{}
		for _, g := range snap.Gauges {
			if g.Layer == metrics.LayerEngine {
				gauges[g.Name]++
			}
		}
		sawGauge := gauges["makespan_seconds"] == lc.Jobs && gauges["queue_wait_seconds"] == lc.Jobs
		for _, h := range snap.Histograms {
			if h.Layer == metrics.LayerEngine && h.Name == "task_duration_seconds" && h.Count > 0 {
				sawHist = true
			}
		}
		if !sawAttempts || !sawGauge || !sawHist {
			t.Errorf("%s metrics incomplete: counters=%v gauges=%v histograms=%v", v, sawAttempts, sawGauge, sawHist)
		}
	}
	// Progress lines arrive in serial cell order.
	if len(lines) != 4 {
		t.Fatalf("progress lines %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "live-fifo") || !strings.HasPrefix(lines[2], "live-fair") {
		t.Fatalf("progress order: %v", lines)
	}

	// Render produces the matrix without error.
	var sb strings.Builder
	if err := sw.RenderLive(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "live-fifo") || !strings.Contains(sb.String(), "per-job makespan") {
		t.Fatalf("render output:\n%s", sb.String())
	}
}

// TestLiveVariantsDefaultsAndSelectors: the default comparison is
// fifo vs fair; weights and priorities attach only to their policies.
func TestLiveVariantsDefaultsAndSelectors(t *testing.T) {
	lc := DefaultLiveConfig()
	cells := func(vs []Variant) []LiveCell {
		out := make([]LiveCell, len(vs))
		for i, v := range vs {
			out[i] = v.Cell.(LiveCell)
			if out[i].Config != lc {
				t.Fatalf("line %s lost the cell shape: %+v", v.Label, out[i].Config)
			}
		}
		return out
	}
	def := cells(LiveVariants(lc, nil, nil, nil))
	if len(def) != 2 || def[0].Policy != "fifo" || def[1].Policy != "fair" {
		t.Fatalf("default variants %+v", def)
	}
	w := map[string]float64{"live-j0": 3}
	p := map[string]int{"live-j1": 9}
	vs := cells(LiveVariants(lc, []string{"weighted", "priority", "fifo"}, w, p))
	if vs[0].Weights == nil || vs[0].Priorities != nil {
		t.Fatalf("weighted variant %+v", vs[0])
	}
	if vs[1].Priorities == nil || vs[1].Weights != nil {
		t.Fatalf("priority variant %+v", vs[1])
	}
	if vs[2].Weights != nil || vs[2].Priorities != nil {
		t.Fatalf("fifo variant %+v", vs[2])
	}

	// Names are the caller's to resolve (scenario canonicalizes alias
	// spellings, TestLiveSpecAliasPoliciesCarryPrioritiesAndWeights); one
	// the engine does not know fails its line's check before any cell runs.
	if _, _, err := (Config{}).ValidateLines(LiveVariants(lc, []string{"fifo", "lottery"}, nil, nil)); err == nil {
		t.Fatal("a line with an unknown policy passed its check")
	}
}

func TestLiveArrivalOffsets(t *testing.T) {
	lc := DefaultLiveConfig()
	lc.Jobs = 4
	// The offsets the live cell submits at.
	offsets := func() []float64 {
		return workload.Arrivals(lc.Arrivals, lc.Jobs, lc.ArrivalInterval, lc.ArrivalSeed)
	}

	// Default: every job submitted together.
	for i, off := range offsets() {
		if off != 0 {
			t.Fatalf("default offset %d = %v, want 0", i, off)
		}
	}

	lc.Arrivals = "staggered"
	lc.ArrivalInterval = 15
	got := offsets()
	for i, off := range got {
		if off != float64(i)*15 {
			t.Fatalf("staggered offsets %v", got)
		}
	}

	lc.Arrivals = "poisson"
	lc.ArrivalSeed = 9
	a := offsets()
	b := offsets()
	if a[0] != 0 {
		t.Fatalf("poisson first offset %v, want 0", a[0])
	}
	prev := -1.0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("poisson offsets not deterministic: %v vs %v", a, b)
		}
		if a[i] < prev {
			t.Fatalf("poisson offsets decrease: %v", a)
		}
		prev = a[i]
	}
	if a[1] == 15 && a[2] == 30 {
		t.Fatalf("poisson offsets look staggered: %v", a)
	}
	// Pinned draws: a change to the draw order moves every live cell's
	// submissions.
	if want := []float64{0, 89.37950334703592, 110.08482155400065, 140.40668523835987}; !slices.Equal(a, want) {
		t.Fatalf("poisson offsets %v, want %v", a, want)
	}

	// A live cell and a simulated stream of the same (process, n,
	// interval, seed) submit at the same offsets, bit for bit.
	base := workload.Sort(8)
	for process, stream := range map[string]workload.MultiSpec{
		"staggered": workload.Stream(base, workload.Arrivals("staggered", lc.Jobs, lc.ArrivalInterval, 0), 0),
		"poisson":   workload.Stream(base, workload.Arrivals("poisson", lc.Jobs, lc.ArrivalInterval, lc.ArrivalSeed), 0),
	} {
		lc.Arrivals = process
		live := offsets()
		for i, j := range stream.Jobs {
			if live[i] != j.Offset {
				t.Fatalf("%s: live offsets %v, simulated job %d at %v", process, live, i, j.Offset)
			}
		}
	}

	lc.Arrivals = "burst"
	if err := lc.Validate(); err == nil {
		t.Fatal("unknown arrival process validated")
	}
	lc.Arrivals = "staggered"
	lc.ArrivalInterval = -1
	if err := lc.Validate(); err == nil {
		t.Fatal("negative arrival interval validated")
	}
	for _, tc := range []struct {
		name string
		edit func(*LiveConfig)
	}{
		{"zero horizon", func(c *LiveConfig) { c.HorizonSeconds = 0 }},
		{"negative compression", func(c *LiveConfig) { c.Compression = -time.Millisecond }},
		{"session expiry under the lease", func(c *LiveConfig) { c.SessionExpiry = time.Millisecond }},
		{"zero jobs", func(c *LiveConfig) { c.Jobs = 0 }},
		{"negative splits", func(c *LiveConfig) { c.SplitsPerJob = -1 }},
		{"zero words per split", func(c *LiveConfig) { c.WordsPerSplit = 0 }},
		{"zero reduces", func(c *LiveConfig) { c.ReducesPerJob = 0 }},
	} {
		lc := DefaultLiveConfig()
		tc.edit(&lc)
		if lc.Validate() == nil {
			t.Errorf("%s validated", tc.name)
		}
	}
}

func TestLiveCellsWithArrivalOffsets(t *testing.T) {
	lc := DefaultLiveConfig()
	lc.HorizonSeconds = 60
	lc.Jobs = 3
	lc.SplitsPerJob = 4
	lc.WordsPerSplit = 80
	lc.ReducesPerJob = 2
	lc.Arrivals = "staggered"
	lc.ArrivalInterval = 20 // 20 ms of wall clock at 1 ms compression

	cfg := Config{Seeds: []uint64{1}, Rates: []float64{0.2}}
	sw, err := cfg.RunSweep("live arrivals", LiveVariants(lc, []string{"fifo"}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	st := sw.Get("live-fifo", 0.2)
	if st.Completed != 3 {
		t.Fatalf("completed %v of 3", st.Completed)
	}
	// The span covers at least the last arrival offset: 40 ms.
	if st.Span < 0.040 {
		t.Fatalf("span %v shorter than the last arrival offset", st.Span)
	}
}

// TestLiveJobIsTheParentsJob: job i of a live cell is byte for byte the job
// harness.liveWordCountJob built before the constructor moved to
// internal/engine: same name, same corpus, same counts. Its map emits each
// distinct word of a split once, with its count, in first-seen order.
func TestLiveJobIsTheParentsJob(t *testing.T) {
	vocab := []string{"moon", "map", "reduce", "volunteer", "hadoop", "churn", "node", "data",
		"shuffle", "backup", "hybrid", "dedicated"}
	lc := DefaultLiveConfig()
	lc.SplitsPerJob, lc.WordsPerSplit, lc.ReducesPerJob = 5, 73, 2
	for i := 0; i < 4; i++ {
		job := lc.job(i)
		if job.Name != fmt.Sprintf("live-j%d", i) || job.Reduces != 2 || len(job.Inputs) != 5 {
			t.Fatalf("job %d: name %q, %d reduces, %d inputs", i, job.Name, job.Reduces, len(job.Inputs))
		}
		for s, input := range job.Inputs {
			var b strings.Builder
			for w := 0; w < lc.WordsPerSplit; w++ {
				b.WriteString(vocab[(i*17+s*31+w*7)%len(vocab)])
				b.WriteByte(' ')
			}
			if input != b.String() {
				t.Fatalf("job %d split %d:\n%q\nparent built:\n%q", i, s, input, b.String())
			}
			var got, want []string
			job.Map(input, func(k, v string) { got = append(got, k+"="+v) })
			counts := map[string]int{}
			var seen []string // first-seen order
			for _, w := range strings.Fields(input) {
				if counts[w]++; counts[w] == 1 {
					seen = append(seen, w)
				}
			}
			for _, w := range seen {
				want = append(want, fmt.Sprintf("%s=%d", w, counts[w]))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("job %d split %d: map emitted %v, want %v", i, s, got, want)
			}
		}
		twelve := slices.Repeat([]string{"1"}, 12)
		if got := job.Reduce("moon", twelve); got != "12" {
			t.Fatalf("reduce of twelve 1s = %q", got)
		}
		if got := job.Reduce("moon", []string{"5", "7"}); got != "12" {
			t.Fatalf("reduce of 5 and 7 = %q", got)
		}
		if job.Combine != nil {
			t.Fatal("the map counts its split, yet the job has a combiner")
		}
	}
}
