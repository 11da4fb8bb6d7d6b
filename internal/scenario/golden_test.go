package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

const scenariosDir = "../../scenarios"

// TestShippedScenarioFiles is the schema's golden gate: every shipped
// scenarios/*.json must parse strictly, validate, compile, and survive a
// parse → export → parse round trip byte-identically.
func TestShippedScenarioFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(scenariosDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario files under %s", scenariosDir)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Parse(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			plan, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Runs) == 0 {
				t.Fatal("compiled to an empty plan")
			}

			var exported bytes.Buffer
			if err := spec.WriteJSON(&exported); err != nil {
				t.Fatal(err)
			}
			reparsed, err := Parse(bytes.NewReader(exported.Bytes()))
			if err != nil {
				t.Fatalf("re-parse of export: %v", err)
			}
			var again bytes.Buffer
			if err := reparsed.WriteJSON(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(exported.Bytes(), again.Bytes()) {
				t.Error("parse → export → parse is not byte-identical")
			}
			// The shipped file itself is canonical: its bytes equal its
			// own export, so hashes computed from either agree.
			if !bytes.Equal(raw, exported.Bytes()) {
				t.Error("file is not in canonical form; `moonbench -scenario <file> -dump-scenario -` prints it")
			}
		})
	}
}

// TestScenarioDirMatchesBuiltins: the registry is the shipped directory.
// Builtins lists exactly the files the scenarios package embeds, each under
// its file's name, and the embedded bytes are the files on disk.
func TestScenarioDirMatchesBuiltins(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(scenariosDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, p := range paths {
		onDisk[filepath.Base(p)] = true
	}
	for _, s := range Builtins() {
		file := s.Name + ".json"
		if !onDisk[file] {
			t.Errorf("builtin %q is not a file of %s", s.Name, scenariosDir)
			continue
		}
		delete(onDisk, file)
		raw, err := os.ReadFile(filepath.Join(scenariosDir, file))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := s.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, got.Bytes()) {
			t.Errorf("builtin %q does not export %s byte for byte", s.Name, file)
		}
	}
	for extra := range onDisk {
		t.Errorf("%s is shipped but not listed: add it to builtinNames (scenarios/ holds named scenarios only)", extra)
	}
}

// TestPaperFiguresIsTheDefaultInvocation pins what the paper-figures file
// used to be by construction: the spec `moonbench -experiment all`
// assembles, renamed and described.
func TestPaperFiguresIsTheDefaultInvocation(t *testing.T) {
	s, err := FromFlags(Flags{
		Experiment: "all", App: "both", Policy: "both",
		Jobs: 3, Stagger: 60, Arrivals: "staggered", ArrivalSeed: 1,
		MetricsBucket: metrics.DefaultBucket,
	})
	if err != nil {
		t.Fatal(err)
	}
	shipped, ok := Lookup("paper-figures")
	if !ok {
		t.Fatal("paper-figures builtin missing")
	}
	s.Name, s.Description = shipped.Name, shipped.Description
	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(scenariosDir, "paper-figures.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, got.Bytes()) {
		t.Errorf("-experiment all no longer exports paper-figures.json:\n%s", got.String())
	}
}
