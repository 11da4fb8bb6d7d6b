package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestPinnedOutputs holds moonbench's stdout to the bytes it printed before
// the three sweep stacks became one (sha256 prefixes taken from the parent
// of that change, serial runs). Every experiment kind is here, a stream of
// one included, and two -scale values that divide neither 384 nor 320 maps:
// a single job must keep workload.Scale's rule at every scale, and no
// golden sees it when only dividing scales are pinned. About half a second
// in all; the slow hashes (paper-figures -scale 4 and scale-100k, which
// CI's "scale-100k, full size" step checks, and the
// bench/workloads ones) stay in .claude/skills/verify/SKILL.md. A row in
// reports also runs with -metrics and pins the report and its timeline:
// two seeds a cell, so metrics.Merge's seed average is in the bytes.
func TestPinnedOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	cases := []struct{ args, sha string }{
		{"-experiment all -scale 16 -seeds 1,2", "73f70d2bca48"},
		{"-experiment ablation -scale 16 -ablation homestretch -app sort", "b6c09102d7fc"},
		{"-experiment ablation -scale 16 -ablation speccap -app sort", "274ec65ad053"},
		{"-experiment ablation -scale 16 -ablation hibernate -app wordcount", "b4195671bd94"},
		{"-experiment ablation -scale 16 -ablation adaptive -app sort", "c60ad1bfade5"},
		{"-experiment correlated -app both -scale 16", "9fe9af70cfe3"},
		{"-experiment multi -app sort -policy both -jobs 4 -stagger 0 -scale 8", "8ed535103f67"},
		{"-experiment multi -app sort -policy weighted -jobs 3 -arrivals poisson -lambda 20 -scale 16", "b7ef265c6e8c"},
		{"-experiment multi -app sort -jobs 1 -scale 16", "12fa7e9874f3"},
		{"-experiment fig7 -app sort -scale 7 -rates 0.5", "9e4e28b69170"},
		{"-experiment fig6 -app wordcount -scale 3 -rates 0.5", "f10156f851fd"},
	}
	reports := map[string][2]string{
		"-experiment all -scale 16 -seeds 1,2": {"7dd9382537bb", "b8350e064a6e"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			args := append(strings.Fields(tc.args), "-parallel", "1")
			path := filepath.Join(t.TempDir(), "r.json")
			pins, pinned := reports[tc.args]
			if pinned {
				args = append(args, "-metrics", path)
			}
			out := runCLI(t, args...)
			if got := sha(out); got[:len(tc.sha)] != tc.sha {
				t.Errorf("stdout sha256 %s, want %s\n%s", got, tc.sha, out)
			}
			if !pinned {
				return
			}
			for file, want := range map[string]string{path: pins[0], strings.TrimSuffix(path, ".json") + ".timeline.csv": pins[1]} {
				raw, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha(string(raw)); got[:len(want)] != want {
					t.Errorf("%s sha256 %s, want %s", filepath.Base(file), got, want)
				}
			}
		})
	}
}

// sha is the hex sha256 of s.
func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestStreamOfOnePrintsTheStreamLine: the multi kind at one job still
// renders the stream table, so -v reports the stream (span, done,
// throughput) and not job 0's profile — what a progress line says follows
// what the experiment renders, not how many jobs ran.
func TestStreamOfOnePrintsTheStreamLine(t *testing.T) {
	const want = `MOON-fifo      rate=0.5 seed=1 span=133s done=1/1 tput=27.07/h capped=false
MOON-fair      rate=0.5 seed=1 span=133s done=1/1 tput=27.07/h capped=false
`
	var out, errb bytes.Buffer
	args := strings.Fields("-experiment multi -app sort -jobs 1 -scale 16 -rates 0.5 -parallel 1 -v")
	if err := run(args, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if errb.String() != want {
		t.Errorf("-v stderr:\n%s\nwant:\n%s", errb.String(), want)
	}
}

// TestRepeatedRateRejected: a rate given twice used to simulate every cell
// of it twice, print its row twice and add two report entries under one
// (variant, rate); it is refused where a repeated seed is, on the flag path
// and on a loaded spec alike.
func TestRepeatedRateRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig4", "-app", "sort", "-scale", "16", "-rates", "0.5,0.5"},
		{"-scenario", "hadoop-expiry-sweep", "-scale", "16", "-rates", "0.3,0.5,0.3"},
		{"-experiment", "fig4", "-rates", "0.5,0.5", "-dump-scenario", "-"},
	} {
		var out, errb bytes.Buffer
		err := run(args, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), "duplicate unavailability rate") {
			t.Errorf("moonbench %s: err = %v, want a duplicate-rate rejection", strings.Join(args, " "), err)
		}
		if out.Len() != 0 {
			t.Errorf("moonbench %s printed before rejecting:\n%s", strings.Join(args, " "), out.String())
		}
	}
}

// TestDueSetCounts is the netmodel's due-set gate, read off a -metrics report
// of the sort benchmark's run (fig7 sort at -scale 2, rate 0.5, seed 1001).
// Completions wait in the network's own ordered set and only the next one is
// queued, so the run cancels fewer events than it fires (one event per flow
// canceled 52 for each fired on this command). A pass over a flow only draws a
// number and the rate is computed where the set is re-keyed, at the barrier, so
// rate_refreshes exceeds due_rekeys only by the refreshes of flows under the
// floor (the gate allows 1 %; a rate per pass read three times the re-keys).
// The set orders owners, not flows, and finds an owner's head again by walking
// its lists: the entries those rescans read stay within 2.5 per key stored.
// Every count repeats exactly for a seed, so the five that no change to the
// netmodel's bookkeeping may move are pinned.
func TestDueSetCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	report := runMetrics(t, "-experiment fig7 -app sort -scale 2 -rates 0.5 -seeds 1001 -parallel 1")
	sum := map[string]float64{}
	for _, e := range report.Experiments {
		for _, c := range e.Counters {
			sum[string(c.Layer)+"."+c.Name] += c.Value
		}
	}
	for name, want := range map[string]float64{
		"net.rate_refreshes": 1042245, "net.due_rekeys": 1041975, "net.completions_scheduled": 49157,
		"sim.events_fired": 58058, "sim.events_canceled": 2456,
	} {
		if sum[name] != want {
			t.Errorf("%s = %v, want %v", name, sum[name], want)
		}
	}
	rekeys := sum["net.due_rekeys"]
	if sum["sim.events_canceled"] > sum["sim.events_fired"] {
		t.Errorf("%v events canceled for %v fired", sum["sim.events_canceled"], sum["sim.events_fired"])
	}
	if got := sum["net.rate_refreshes"]; got > rekeys*1.01 {
		t.Errorf("%v rates computed for %v keys stored: passes plan on the spot again", got, rekeys)
	}
	if got := sum["net.due_rescan_visits"]; got == 0 || got > 2.5*rekeys {
		t.Errorf("%v list entries read by %v rescans for %v keys stored, want at most 2.5 a key",
			got, sum["net.due_rescans"], rekeys)
	}
}

// TestChurnCursorCounts is the cluster's churn-cursor gate, read off a
// -metrics report of the word-count benchmark's run (fig7 word count at rates
// 0.3 and 0.5, seed 1001, paper scale). A volatile node keeps only its next
// transition queued, so no cell's event queue holds more than 300 events
// (209-239; with every transition queued at t = 0 it peaked at 2 661-4 726).
// The cursor fires each transition where up-front scheduling fired it, so the
// fired and canceled event counts are pinned.
func TestChurnCursorCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	report := runMetrics(t, "-experiment fig7 -app wordcount -rates 0.3,0.5 -seeds 1001 -parallel 1")
	sum := map[string]float64{}
	for _, e := range report.Experiments {
		for _, c := range e.Counters {
			sum[string(c.Layer)+"."+c.Name] += c.Value
		}
		depth := -1.0
		for _, s := range e.Series {
			if s.Layer == "sim" && s.Name == "queue_depth" {
				for _, p := range s.Points {
					depth = max(depth, p.Max)
				}
			}
		}
		if depth < 0 || depth > 300 {
			t.Errorf("%s rate %v: queue depth peaked at %v, want a sample and at most 300", e.Variant, e.Rate, depth)
		}
	}
	for name, want := range map[string]float64{"sim.events_fired": 62294, "sim.events_canceled": 2668} {
		if sum[name] != want {
			t.Errorf("%s = %v, want %v", name, sum[name], want)
		}
	}
}

// runMetrics runs moonbench with args and -metrics and returns the report.
func runMetrics(t *testing.T, args string) metrics.Export {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	runCLI(t, strings.Fields(args+" -metrics "+path)...)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report metrics.Export
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	return report
}
