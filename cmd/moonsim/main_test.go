package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunProfileFlags drives a real (scaled-down) run with both pprof
// flags and checks the profiles land on disk.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var out, errb bytes.Buffer
	err := run([]string{
		"-app", "sleep-wordcount", "-scale", "8",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "makespan") {
		t.Errorf("missing profile output, got:\n%s", out.String())
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

// TestRunFlagErrors pins the rejection surface: bad values, shaping flags
// combined with -scenario, and live specs (which moonsim cannot run, with
// or without profiling).
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown policy", []string{"-policy", "nope"}, `preset "nope" (want hadoop, moon or moon-hybrid)`},
		{"unknown app", []string{"-app", "nope"}, `workload app "nope" (want sort or wordcount)`},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"scenario+app", []string{"-scenario", "scale-sweep", "-app", "sort"},
			"-app shapes the run and cannot be combined with -scenario"},
		{"scenario+policy", []string{"-scenario", "scale-sweep", "-policy", "moon"},
			"-policy shapes the run and cannot be combined with -scenario"},
		{"unknown scenario", []string{"-scenario", "no-such-spec"},
			`unknown scenario "no-such-spec"`},
		{"unknown variant", []string{"-scenario", "scale-sweep", "-variant", "nope"},
			`has no variant "nope"`},
		{"live scenario", []string{"-scenario", "live-mix"},
			"runs the live engine; run it with moonbench -scenario"},
		{"live scenario with profiling", []string{"-scenario", "live-mix", "-cpuprofile", "x.out"},
			"runs the live engine; run it with moonbench -scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			err := run(tc.args, &out, &errb)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err.Error(), tc.want)
			}
		})
	}
}

// TestRunScenarioCell runs one cell of the shipped scale-sweep scenario end
// to end — the profiling subject documented in README "Performance".
func TestRunScenarioCell(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{
		"-scenario", "scale-sweep", "-variant", "66-nodes", "-scale", "16",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "policy 66-nodes") {
		t.Errorf("expected variant label in output, got:\n%s", got)
	}
	if !strings.Contains(got, "60V+6D") {
		t.Errorf("expected 60V+6D fleet in output, got:\n%s", got)
	}
}

// TestListScenarios checks -list-scenarios includes the scale-sweep entry.
func TestListScenarios(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list-scenarios"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "scale-sweep") {
		t.Errorf("-list-scenarios output missing scale-sweep:\n%s", out.String())
	}
}

// TestBadFlagValuesRejected: the flag path used to assemble and run its
// simulation by hand and skipped every check the scenario path makes, so a
// zero seed, a zero or negative scale, a fleet of 60V+-1D and a negative
// tracker expiry each ran to a full profile. The flags lower to a spec now
// and the spec's validator refuses them, naming the value.
func TestBadFlagValuesRejected(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-seed 0", "seed 0"},
		{"-scale 0", "scale 0"},
		{"-scale -3", "scale -3"},
		{"-dedicated -1", "60 volatile, -1 dedicated"},
		{"-expiry -5 -policy hadoop", "tracker_expiry_seconds -5"},
		{"-volatile 0 -dedicated 0", "0 volatile, 0 dedicated"},
		{"-scenario scale-sweep -scale 0", "scale 0"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var out, errb bytes.Buffer
			err := run(strings.Fields(tc.args), &out, &errb)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("moonsim %s: err = %v, want a rejection naming %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("moonsim %s printed before rejecting:\n%s", tc.args, out.String())
			}
		})
	}
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("moonsim %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out.String()
}

// TestFlagRunMatchesScenarioCell: a flag run is the cell of the spec its
// flags lower to. The lowered spec, written out and loaded back through
// -scenario at the same -rate/-seed/-scale, prints the same bytes.
func TestFlagRunMatchesScenarioCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	cases := []struct{ shape, cell string }{
		{"-app wordcount -policy hadoop -expiry 60 -all-volatile", "-rate 0.5 -scale 8"},
		{"-app sleep-sort -policy moon -dedicated 3 -inter-d 0 -inter-v 2", "-seed 7 -scale 4"},
		{"-app sleep-wordcount -policy hadoop -volatile 30 -dedicated 0", "-rate 0.1 -scale 2"},
	}
	for _, tc := range cases {
		t.Run(tc.shape, func(t *testing.T) {
			shape, cell := strings.Fields(tc.shape), strings.Fields(tc.cell)
			c, err := parseFlags(shape, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := c.spec()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "lowered.json")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.WriteJSON(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			flagOut := runCLI(t, append(shape, cell...)...)
			fileOut := runCLI(t, append([]string{"-scenario", path}, cell...)...)
			if flagOut != fileOut {
				t.Errorf("flag run and its scenario file differ:\n--- flags\n%s--- file\n%s", flagOut, fileOut)
			}
		})
	}
}

// TestPinnedOutputs holds moonsim's stdout to the bytes it printed when the
// flag path still built and ran its simulation by hand (sha256 prefixes
// taken from the parent of that change): four flag runs, two scenario
// cells. The list is also in .claude/skills/verify/SKILL.md.
func TestPinnedOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	cases := []struct{ args, sha string }{
		{"-scale 8", "4e23a5289329"},
		{"-app wordcount -policy hadoop -expiry 60 -rate 0.5 -all-volatile -scale 8", "2edd0191bd60"},
		{"-app sleep-sort -policy moon -dedicated 3 -inter-d 0 -inter-v 2 -seed 7 -scale 4", "b912afb4a6e6"},
		{"-app sleep-wordcount -policy hadoop -volatile 30 -dedicated 0 -rate 0.1 -scale 2", "61217ff6d8bf"},
		{"-scenario scale-sweep -variant 528-nodes -scale 16", "83d31e4d4f83"},
		{"-scenario correlated-sort -variant MOON-Hybrid -rate 0.5 -scale 8", "af29557ebbcf"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			out := runCLI(t, strings.Fields(tc.args)...)
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:])[:len(tc.sha)]; got != tc.sha {
				t.Errorf("stdout sha256 %s, want %s\n%s", got, tc.sha, out)
			}
		})
	}
}
