// Package moonvet assembles the project's analyzer suite and implements
// the multichecker driver behind cmd/moonvet: load the module, run every
// analyzer, apply //moonvet:allow suppressions, print findings and the
// suppression summary.
//
// It sits between the framework (internal/analysis) and the concrete
// analyzers so the dependency arrow stays one-way:
// framework <- analyzers <- moonvet <- cmd/moonvet.
package moonvet

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/detrange"
	"repro/internal/analysis/globalrand"
	"repro/internal/analysis/lockatomic"
	"repro/internal/analysis/nilmetrics"
	"repro/internal/analysis/wallclock"
)

// Suite returns the full moonvet analyzer suite.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		wallclock.Analyzer,
		globalrand.Analyzer,
		detrange.Analyzer,
		nilmetrics.Analyzer,
		lockatomic.Analyzer,
	}
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("moonvet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Main runs the suite over the module containing dir, restricted to the
// go-tool-style package patterns (all packages when none are given), and
// writes findings to out and the suppression summary to summary (either
// may be nil). It returns the process exit code: 0 clean, 1 findings,
// 2 usage or load failure.
func Main(dir string, patterns []string, out, summary io.Writer) int {
	if out == nil {
		out = io.Discard
	}
	if summary == nil {
		summary = io.Discard
	}
	root, err := FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	pkgs, err = analysis.Filter(pkgs, root, patterns)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	res, err := analysis.Check(pkgs, Suite())
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	for _, f := range res.Findings {
		fmt.Fprintln(out, f)
	}
	if s := res.Summary(); s != "" {
		fmt.Fprint(summary, s)
	} else {
		fmt.Fprintln(summary, "0 suppressions")
	}
	if !res.Ok() {
		return 1
	}
	return 0
}
