package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// runCLI invokes the full CLI and returns stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("moonbench %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out.String()
}

// TestScenarioFileMatchesFlagRun pins the tentpole acceptance criterion:
// a `-scenario <file>` run must be byte-identical to the equivalent flag
// invocation — stdout and the exported metrics report alike — because the
// flag path internally constructs the very spec the file holds.
func TestScenarioFileMatchesFlagRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	dir := t.TempDir()

	cases := []struct {
		name  string
		flags []string
	}{
		{"fig4", []string{"-experiment", "fig4", "-app", "sort", "-scale", "32", "-seeds", "1,2", "-rates", "0.5"}},
		{"multi", []string{"-experiment", "multi", "-app", "sort", "-policy", "fair",
			"-jobs", "2", "-stagger", "30", "-scale", "32", "-seeds", "1", "-rates", "0.5"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flagReport := filepath.Join(dir, tc.name+"-flags.json")
			flagOut := runCLI(t, append(tc.flags, "-metrics", flagReport)...)

			// Export the exact spec the flag run assembled internally,
			// then run it as a file.
			specPath := filepath.Join(dir, tc.name+".scenario.json")
			runCLI(t, append(tc.flags, "-dump-scenario", specPath)...)
			raw, err := os.ReadFile(specPath)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := scenario.Parse(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			fileReport := filepath.Join(dir, tc.name+"-file.json")
			fileOut := runCLI(t, "-scenario", specPath, "-metrics", fileReport)

			if flagOut != fileOut {
				t.Errorf("stdout differs between flag and -scenario runs:\n--- flags ---\n%s\n--- file ---\n%s", flagOut, fileOut)
			}
			a, err := os.ReadFile(flagReport)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(fileReport)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("metrics reports differ between flag and -scenario runs")
			}
			// The report is self-describing: scenario name + spec hash.
			if !bytes.Contains(a, []byte(`"scenario": "`+spec.Name+`"`)) ||
				!bytes.Contains(a, []byte(`"spec_hash": "`+spec.Hash()+`"`)) {
				t.Error("metrics report is missing the scenario provenance stamp")
			}
		})
	}
}

// TestRunProfileFlags drives a real (scaled-down) sweep with both pprof
// flags and checks the profiles land on disk, mirroring moonsim's
// profiling surface.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	out := runCLI(t,
		"-experiment", "fig4", "-app", "sort", "-scale", "32",
		"-seeds", "1", "-rates", "0.5",
		"-cpuprofile", cpu, "-memprofile", mem,
	)
	if !strings.Contains(out, "Fig 4/5") {
		t.Errorf("missing sweep output, got:\n%s", out)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestLiveScenarioEndToEnd drives the live goroutine engine from a
// moon-scenario/v1 file with "execution": "live": ≥3 concurrently
// submitted jobs per cell complete under trace-compressed churn across
// all three policy lines, and the exported report carries engine-layer
// per-job gauges and task-duration histograms. CI runs this under -race.
func TestLiveScenarioEndToEnd(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "live.json")
	spec := `{
  "schema": "moon-scenario/v1",
  "name": "live-e2e",
  "execution": "live",
  "live": {
    "volatile_workers": 3,
    "dedicated_workers": 1,
    "horizon_seconds": 60,
    "compression_ms": 1,
    "splits_per_job": 5,
    "words_per_split": 150,
    "reduces_per_job": 2
  },
  "sweep": {"seeds": [1], "rates": [0.3]},
  "metrics": {"bucket_seconds": 1},
  "experiments": [
    {
      "app": "wordcount",
      "multi": {
        "jobs": 3,
        "policies": ["fifo", "fair", "priority"],
        "priorities": {"live-j1": 7}
      }
    }
  ]
}
`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "live.json.report.json")
	out := runCLI(t, "-scenario", specPath, "-metrics", report)
	if !strings.Contains(out, "Live engine: 3 concurrent word-count jobs") {
		t.Fatalf("missing live header:\n%s", out)
	}
	for _, v := range []string{"live-fifo", "live-fair", "live-priority"} {
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, v) {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("variant %s missing from output:\n%s", v, out)
		}
		// "done" column is jobs completed: all 3.
		if !strings.Contains(line, "3.0") {
			t.Errorf("variant %s did not complete all jobs: %s", v, line)
		}
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"scenario": "live-e2e"`, `"task_duration_seconds"`, `"queue_wait_seconds"`, `"makespan_seconds"`, `"layer": "engine"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("report missing %s", want)
		}
	}
}

// TestLiveArrivalFlags: explicit arrival flags become a live arrival
// process (compressed wall-clock submission offsets); without them live
// jobs keep the submit-together default; the simulator-only ablation
// selector still fails loudly.
func TestLiveArrivalFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-experiment", "live", "-arrivals", "poisson", "-lambda", "30",
		"-arrival-seed", "7", "-dump-scenario", "-"}, &out, &errb); err != nil {
		t.Fatalf("live poisson arrivals rejected: %v", err)
	}
	for _, want := range []string{`"arrivals": "poisson"`, `"interval_seconds": 120`, `"arrival_seed": 7`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dumped live spec missing %s:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-experiment", "live", "-dump-scenario", "-"}, &out, &errb); err != nil {
		t.Fatalf("plain live rejected: %v", err)
	}
	if strings.Contains(out.String(), `"arrivals"`) {
		t.Errorf("default live spec gained an arrival process:\n%s", out.String())
	}

	if err := run([]string{"-experiment", "live", "-ablation", "speccap"}, &out, &errb); err == nil {
		t.Error("moonbench -experiment live -ablation speccap: accepted")
	}
}

// TestListFlags pins that -list names every enumerated flag vocabulary
// (PR 3 made unknown values hard errors; -list is how you discover the
// valid ones).
func TestListFlags(t *testing.T) {
	out := runCLI(t, "-list")
	for _, want := range []string{
		"fig1", "fig4", "table2", "multi", "ablation", "correlated", "all",
		"sort", "wordcount",
		"homestretch", "speccap", "hibernate", "adaptive",
		"fifo", "fair", "weighted",
		"staggered", "poisson",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output is missing %q:\n%s", want, out)
		}
	}
}

// TestListScenarios pins that every builtin appears in -list-scenarios.
func TestListScenarios(t *testing.T) {
	out := runCLI(t, "-list-scenarios")
	for _, s := range scenario.Builtins() {
		if !strings.Contains(out, s.Name) {
			t.Errorf("-list-scenarios is missing %q:\n%s", s.Name, out)
		}
	}
}

// TestScenarioRejectsShapingFlags: -scenario owns the experiment shape;
// combining it with -experiment and friends must fail loudly.
func TestScenarioRejectsShapingFlags(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-scenario", "poisson-mix", "-experiment", "fig4"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "-experiment") {
		t.Fatalf("want a -experiment/-scenario conflict error, got %v", err)
	}
}
