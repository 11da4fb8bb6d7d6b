package moonvet_test

import (
	"strings"
	"testing"

	"repro/internal/analysis/moonvet"
)

// TestBadModule drives the multichecker end to end over the fixture
// module: wallclock and globalrand findings fail the run, the
// documented detrange suppression is applied and summarized, and cmd/
// trees are swept like internal ones.
func TestBadModule(t *testing.T) {
	var out, summary strings.Builder
	code := moonvet.Main("testdata/badmod", []string{"./..."}, &out, &summary)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nout:\n%s", code, out.String())
	}
	for _, want := range []string{
		"internal/sim/sim.go", "wallclock", "time.Now in deterministic package",
		"cmd/tool/main.go", "globalrand", "import of math/rand",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "detrange") {
		t.Errorf("suppressed detrange finding leaked into output:\n%s", out.String())
	}
	for _, want := range []string{"1 suppression(s)", "detrange: 1", "fixture exercises a documented suppression"} {
		if !strings.Contains(summary.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, summary.String())
		}
	}
}

// TestPatternRestriction proves patterns narrow the sweep: the clean
// util package alone passes even though the module as a whole fails.
func TestPatternRestriction(t *testing.T) {
	var out, summary strings.Builder
	if code := moonvet.Main("testdata/badmod", []string{"./internal/util"}, &out, &summary); code != 0 {
		t.Fatalf("exit code %d for clean package, want 0\nout:\n%s", code, out.String())
	}
	if !strings.Contains(summary.String(), "0 suppressions") {
		t.Errorf("summary for clean run should count 0 suppressions, got:\n%s", summary.String())
	}
}

// TestSuiteComplete pins the suite composition CI relies on.
func TestSuiteComplete(t *testing.T) {
	want := map[string]bool{
		"wallclock": false, "globalrand": false, "detrange": false,
		"nilmetrics": false, "lockatomic": false,
	}
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
}

// TestRepoIsClean is the acceptance criterion as a test: the repo's own
// module must pass the full suite (suppressions allowed, each carrying
// its reason).
func TestRepoIsClean(t *testing.T) {
	root, err := moonvet.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var out, summary strings.Builder
	if code := moonvet.Main(root, []string{"./..."}, &out, &summary); code != 0 {
		t.Fatalf("moonvet fails on this repo (exit %d):\n%s", code, out.String())
	}
}
