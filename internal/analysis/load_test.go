package analysis_test

import (
	"go/ast"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestLoadTree pins the loader basics on the wallclock fixture tree:
// packages get their path relative to the root (no prefix) and are
// type-checked.
func TestLoadTree(t *testing.T) {
	pkgs, err := analysis.LoadTree("wallclock/testdata/src", "")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s not type-checked", p.Path)
		} else if p.Types.Name() != filepath.Base(p.Path) {
			t.Errorf("%s type-checked as package %q", p.Path, p.Types.Name())
		}
	}
	if want := []string{"internal/engine", "internal/sim"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("loaded %v, want %v", paths, want)
	}
}

// TestLoadModule loads the fixture module and pins that the module path
// prefixes every package, that module-local imports resolve, and that
// neither _test.go files nor testdata trees are loaded.
func TestLoadModule(t *testing.T) {
	pkgs, err := analysis.LoadModule("testdata/badmod")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		for _, f := range p.Files {
			if name := p.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
				t.Errorf("loader picked up test file %s", name)
			}
		}
	}
	want := []string{"badmod/cmd/tool", "badmod/internal/sim", "badmod/internal/util"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("loaded %v, want %v (no testdata package)", paths, want)
	}
}

// TestRun pins the runner: every analyzer sees every package, and the
// findings come back tagged with their analyzer and sorted by position,
// then analyzer name.
func TestRun(t *testing.T) {
	funcs := func(name string) *analysis.Analyzer {
		return &analysis.Analyzer{Name: name, Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						pass.Reportf(fd.Pos(), "func %s", fd.Name.Name)
					}
				}
			}
			return nil
		}}
	}
	pkgs, err := analysis.LoadTree("wallclock/testdata/src", "")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{funcs("zeta"), funcs("alpha")})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, filepath.Base(f.Position.Filename)+" "+f.Analyzer+" "+f.Message)
	}
	want := []string{
		"live.go alpha func heartbeat", "live.go zeta func heartbeat",
		"clock.go alpha func bad", "clock.go zeta func bad",
		"clock.go alpha func good", "clock.go zeta func good",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%v\nwant:\n%v", got, want)
	}
}
