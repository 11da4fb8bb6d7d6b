// Package moonvet assembles the project's analyzer suite and implements
// the multichecker driver behind cmd/moonvet: load the module, run every
// analyzer, print the findings.
//
// It sits between the framework (internal/analysis) and the concrete
// analyzers so the dependency arrow stays one-way:
// framework <- analyzers <- moonvet <- cmd/moonvet.
package moonvet

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/detrange"
	"repro/internal/analysis/globalrand"
	"repro/internal/analysis/wallclock"
)

// Suite returns the full moonvet analyzer suite.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		wallclock.Analyzer,
		globalrand.Analyzer,
		detrange.Analyzer,
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

// Main is the moonvet command line run in dir with the given arguments:
// with none it checks the whole module containing dir and writes each
// finding to out; -list describes the analyzers instead. It takes no
// package patterns. It returns the process exit code: 0 clean,
// 1 findings, 2 usage or load failure.
func Main(dir string, args []string, out io.Writer) int {
	fs := flag.NewFlagSet("moonvet", flag.ContinueOnError)
	fs.SetOutput(out)
	list := fs.Bool("list", false, "describe the analyzers in the suite and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(out, "usage: moonvet [-list] (checks the whole module it runs in; package patterns are not accepted)")
		return 2
	}
	if *list {
		for _, a := range Suite() {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
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
	findings, err := analysis.Run(pkgs, Suite())
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
