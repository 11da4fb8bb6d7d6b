// Package analysis is a self-contained static-analysis framework modeled
// on golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast, go/parser and go/types so the repo stays dependency-free.
//
// It exists to machine-check the determinism invariants everything in
// this reproduction rests on — byte-identical goldens, seed-pinned fault
// schedules, metrics-off bit-identity — which golden tests alone catch
// only after a violation ships. The project-specific analyzers live in
// subpackages (wallclock, globalrand, detrange); cmd/moonvet is the
// multichecker that runs the whole suite over the module. What another check already guarantees
// stays with that check: lock copies with go vet's copylocks, data races
// with go test -race, the metrics nil-handle contract with
// internal/metrics' TestNilHandlesAreNoOps.
//
// The API mirrors go/analysis deliberately: an Analyzer owns a Run
// function over a Pass (one analyzer × one type-checked package), and
// reports Diagnostics at token positions. Should the x/tools dependency
// ever become available, the analyzers port over nearly verbatim.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in findings. It must be a single
	// lowercase word.
	Name string
	// Doc is a one-paragraph description of the invariant enforced,
	// shown by `moonvet -list`.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Report/Reportf. A non-nil error aborts the whole run (it
	// means the analyzer itself failed, not that the code is bad).
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. Filled in by the runner.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a diagnostic resolved against the file set and tagged with
// the analyzer that reported it, ready for printing.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// Run applies each analyzer to each package and returns all findings
// sorted by file position, then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				out = append(out, Finding{
					Position: pkg.Fset.Position(d.Pos),
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
