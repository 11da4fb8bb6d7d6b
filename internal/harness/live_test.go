package harness

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// testCell is a small live cell: the default pool, 60 s of churn at 1 ms
// per simulated second, three jobs submitted together.
func testCell() LiveCell {
	return LiveCell{
		Engine:         engine.DefaultConfig(),
		HorizonSeconds: 60,
		Compression:    time.Millisecond,
		Offsets:        []float64{0, 0, 0},
		SplitsPerJob:   5,
		WordsPerSplit:  120,
		ReducesPerJob:  2,
	}
}

// liveLines is one line per policy, each on cell with its policy set.
func liveLines(cell LiveCell, policies ...string) []Variant {
	var out []Variant
	for _, p := range policies {
		c := cell
		c.Engine.JobPolicy = p
		out = append(out, Variant{Label: "live-" + p, Cell: c})
	}
	return out
}

// TestLiveCellsEndToEnd drives the live goroutine engine through the
// shared sweep runner: (policy × rate × seed) cells on the fanOut pool,
// trace-compressed churn per cell, per-job profiles folded into the
// cell's job rows, and engine-layer metrics merged per cell.
func TestLiveCellsEndToEnd(t *testing.T) {
	lc := testCell()
	jobs := len(lc.Offsets)

	cfg := Config{Seeds: []uint64{1, 2}, Rates: []float64{0.3}, MetricsBucket: 1}
	var lines []string
	cfg.Progress = func(s string) { lines = append(lines, s) }

	sw, err := cfg.RunSweep("live smoke", liveLines(lc, "fifo", "fair"))
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
		if st.Completed != float64(jobs) {
			t.Fatalf("%s completed %v of %d jobs", v, st.Completed, jobs)
		}
		if len(st.Jobs) != jobs {
			t.Fatalf("%s has %d job rows, want %d", v, len(st.Jobs), jobs)
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
		sawGauge := gauges["makespan_seconds"] == jobs && gauges["queue_wait_seconds"] == jobs
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

// TestLiveCellCheck: a cell's check refuses what its run could not do,
// naming it, and passes the engine's own rules through.
func TestLiveCellCheck(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(*LiveCell)
	}{
		{"zero horizon", "horizon 0s", func(c *LiveCell) { c.HorizonSeconds = 0 }},
		{"NaN horizon", "horizon NaNs", func(c *LiveCell) { c.HorizonSeconds = math.NaN() }},
		{"zero compression", "compression 0s", func(c *LiveCell) { c.Compression = 0 }},
		{"no jobs", "jobs 0", func(c *LiveCell) { c.Offsets = nil }},
		{"negative splits", "splits -1", func(c *LiveCell) { c.SplitsPerJob = -1 }},
		{"zero words per split", "words per split 0", func(c *LiveCell) { c.WordsPerSplit = 0 }},
		{"zero reduces", "reduces 0", func(c *LiveCell) { c.ReducesPerJob = 0 }},
		{"negative first offset", "job 0 offset -1s", func(c *LiveCell) { c.Offsets = []float64{-1} }},
		{"decreasing offsets", "job 2 offset 5s", func(c *LiveCell) { c.Offsets = []float64{0, 10, 5} }},
		{"NaN offset", "job 1 offset NaNs", func(c *LiveCell) { c.Offsets = []float64{0, math.NaN()} }},
		{"unknown policy", "lottery", func(c *LiveCell) { c.Engine.JobPolicy = "lottery" }},
		{"session expiry under the lease", "SessionExpiry 1ms", func(c *LiveCell) { c.Engine.SessionExpiry = time.Millisecond }},
	} {
		cell := testCell()
		tc.edit(&cell)
		if err := cell.check(Config{}, 0.3); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if err := testCell().check(Config{}, 0.3); err != nil {
		t.Fatal(err)
	}
}

func TestLiveCellsWithArrivalOffsets(t *testing.T) {
	lc := testCell()
	lc.SplitsPerJob, lc.WordsPerSplit = 4, 80
	lc.Offsets = []float64{0, 20, 40} // 20 ms apart at 1 ms compression

	cfg := Config{Seeds: []uint64{1}, Rates: []float64{0.2}}
	sw, err := cfg.RunSweep("live arrivals", liveLines(lc, "fifo"))
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
	lc := testCell()
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
