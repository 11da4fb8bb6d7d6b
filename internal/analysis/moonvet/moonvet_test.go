package moonvet_test

import (
	"strings"
	"testing"

	"repro/internal/analysis/moonvet"
)

// badmod is the fixture module shared with the loader's tests.
const badmod = "../testdata/badmod"

// TestBadModule drives the multichecker end to end over the fixture
// module: wallclock, globalrand and detrange findings fail the run, cmd/
// trees are swept like internal ones, and neither the _test.go file nor
// the testdata package, each reading the wall clock in a package named
// like a deterministic one, is reported.
func TestBadModule(t *testing.T) {
	var out strings.Builder
	code := moonvet.Main(badmod, nil, &out)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nout:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := [][]string{
		{"cmd/tool/main.go", "globalrand", "import of math/rand"},
		{"cmd/tool/main.go", "globalrand", "global rand.Intn"},
		{"internal/sim/sim.go", "wallclock", "time.Now in deterministic package"},
		{"internal/sim/sim.go", "detrange", "append to keys in map-iteration order"},
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, parts := range want {
		for _, p := range parts {
			if !strings.Contains(lines[i], p) {
				t.Errorf("finding %d %q does not contain %q", i, lines[i], p)
			}
		}
	}
}

// TestPatternRestriction pins that moonvet checks the module it runs in
// and nothing narrower: restricting the sweep with a package pattern is a
// usage error.
func TestPatternRestriction(t *testing.T) {
	for _, args := range [][]string{{"./..."}, {"./internal/util"}} {
		var out strings.Builder
		if code := moonvet.Main(badmod, args, &out); code != 2 {
			t.Errorf("moonvet %v: exit code %d, want 2", args, code)
		}
		if !strings.Contains(out.String(), "usage: moonvet") {
			t.Errorf("moonvet %v printed no usage line:\n%s", args, out.String())
		}
	}
}

// TestSuiteComplete pins the suite composition CI relies on, and that
// -list describes every analyzer in it.
func TestSuiteComplete(t *testing.T) {
	want := map[string]bool{"wallclock": false, "globalrand": false, "detrange": false}
	suite := moonvet.Suite()
	for _, a := range suite {
		if _, ok := want[a.Name]; !ok {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		want[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("suite is missing analyzer %q", name)
		}
	}
	if len(suite) != len(want) {
		t.Errorf("suite has %d analyzers, want %d", len(suite), len(want))
	}

	var out strings.Builder
	if code := moonvet.Main(badmod, []string{"-list"}, &out); code != 0 {
		t.Fatalf("moonvet -list: exit code %d, want 0", code)
	}
	for name := range want {
		if !strings.Contains(out.String(), name) {
			t.Errorf("moonvet -list does not describe %q:\n%s", name, out.String())
		}
	}
}

// TestRepoIsClean is the acceptance criterion as a test: the repo's own
// module must pass the full suite. It is the one test here that loads
// the real module.
func TestRepoIsClean(t *testing.T) {
	root, err := moonvet.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := moonvet.Main(root, nil, &out); code != 0 {
		t.Fatalf("moonvet fails on this repo (exit %d):\n%s", code, out.String())
	}
}
