package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestLoadTree pins the loader basics on the allow fixture: packages
// are parsed, type-checked and carry their directives.
func TestLoadTree(t *testing.T) {
	pkgs, err := analysis.LoadTree("testdata/allow/src", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "p" {
		t.Errorf("package path %q, want %q", p.Path, "p")
	}
	if p.Types == nil || p.Info == nil {
		t.Fatal("package not type-checked")
	}
	if p.Types.Name() != "p" {
		t.Errorf("type-checked name %q, want %q", p.Types.Name(), "p")
	}
	if len(p.Directives) != 5 {
		t.Errorf("found %d directives, want 5", len(p.Directives))
	}
	malformed := 0
	for _, d := range p.Directives {
		if d.Err != "" {
			malformed++
		}
	}
	if malformed != 1 {
		t.Errorf("found %d malformed directives, want 1 (the reasonless one)", malformed)
	}
}

// TestLoadModule loads this repo's own module and spot-checks that the
// prefix is applied, test files are excluded and testdata is skipped.
func TestLoadModule(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*analysis.Package)
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, want := range []string{"repro/internal/sim", "repro/internal/analysis", "repro/cmd/moonvet", "repro/examples/quickstart", "repro/scenarios"} {
		if byPath[want] == nil {
			t.Errorf("module load missed package %s", want)
		}
	}
	for path := range byPath {
		if filepath.Base(path) == "testdata" {
			t.Errorf("loaded a testdata package: %s", path)
		}
	}
	sim := byPath["repro/internal/sim"]
	if sim == nil {
		t.Fatal("no sim package")
	}
	for _, f := range sim.Files {
		name := sim.Fset.Position(f.Pos()).Filename
		if filepath.Base(name) == "sim_test.go" {
			t.Errorf("loader picked up test file %s", name)
		}
	}

	// Filter: exact, recursive, and failing patterns.
	got, err := analysis.Filter(pkgs, root, []string{"./internal/sim"})
	if err != nil || len(got) != 1 || got[0] != sim {
		t.Errorf("Filter exact = %v pkgs, err %v", len(got), err)
	}
	got, err = analysis.Filter(pkgs, root, []string{"./internal/..."})
	if err != nil || len(got) < 10 {
		t.Errorf("Filter recursive = %v pkgs, err %v", len(got), err)
	}
	if _, err := analysis.Filter(pkgs, root, []string{"./nonexistent/..."}); err == nil {
		t.Error("Filter accepted a pattern matching nothing")
	}
}
