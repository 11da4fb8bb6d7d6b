// Package detrange flags map iteration whose body is order-sensitive.
//
// Go randomizes map iteration order per run, so a `range` over a map
// that appends to a slice, builds output, schedules events, accumulates
// floats or strings, or returns a value derived from the iteration
// variables produces run-to-run-varying results — exactly the class of
// bug that breaks this repo's byte-identical goldens one seed at a time.
// The fix is the sorted-keys idiom (collect keys, sort, range the
// slice — which this analyzer does not flag) or an ordered slice of
// pairs instead of a map.
//
// Order-insensitive bodies stay allowed: counting into ints, writing
// into another map, membership tests returning constants, deletes.
// Integer accumulation commutes exactly; float accumulation does not
// (rounding makes += order-dependent), which is why only floats,
// complexes and strings are flagged.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the detrange analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc: "flag range-over-map bodies that are iteration-order-sensitive (appends, output, " +
		"event scheduling, float/string accumulation, returns of loop-derived values); " +
		"sort the keys or use an ordered slice",
	Run: run,
}

// orderSensitiveCalls are callee names whose invocation order is
// observable: everything that draws a simulation order number
// (internal/sim's Schedule, After, Ticker, Reserve, DrawOrder,
// ScheduleReserved), job submission, a FIFO position (sched's Acquire),
// queue mutation and output writing.
var orderSensitiveCalls = map[string]bool{
	"Schedule":         true,
	"After":            true,
	"Ticker":           true,
	"Reserve":          true,
	"DrawOrder":        true,
	"ScheduleReserved": true,
	"Submit":           true,
	"Acquire":          true,
	"Push":             true,
	"Print":            true,
	"Printf":           true,
	"Println":          true,
	"Fprint":           true,
	"Fprintf":          true,
	"Fprintln":         true,
	"Write":            true,
	"WriteString":      true,
	"WriteByte":        true,
	"WriteRune":        true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		sorted := sortedSlices(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(pass, rng) {
				return true
			}
			checkBody(pass, rng, sorted)
			return true
		})
	}
	return nil
}

// sortedSlices collects the objects passed to sort.* or slices.Sort*
// calls anywhere in the file: appending map keys into a slice that is
// subsequently sorted is the canonical deterministic idiom and must not
// be flagged.
func sortedSlices(pass *analysis.Pass, f *ast.File) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if id := rootIdent(call.Args[0]); id != nil {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// loopVars returns the objects bound to the range's key/value variables.
func loopVars(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			vars[obj] = true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			vars[obj] = true
		}
	}
	return vars
}

func checkBody(pass *analysis.Pass, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	vars := loopVars(pass, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is analyzed on its own; descending
			// would double-report its body against the outer loop.
			if s != rng && isMapRange(pass, s) {
				return false
			}
		case *ast.AssignStmt:
			checkAssign(pass, rng, s, vars, sorted)
		case *ast.ReturnStmt:
			checkReturn(pass, rng, s, vars)
		case *ast.CallExpr:
			if name := calleeName(s); orderSensitiveCalls[name] {
				pass.Reportf(s.Pos(),
					"%s called in map-iteration order inside range over map (order is randomized per run; sort the keys first)",
					name)
			}
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, rng *ast.RangeStmt, s *ast.AssignStmt, vars, sorted map[types.Object]bool) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range s.Lhs {
			if !declaredOutside(pass, rng, lhs) || keyedByLoopVar(pass, lhs, vars) {
				continue
			}
			if t := pass.TypesInfo.TypeOf(lhs); t != nil && orderSensitiveAccum(t) {
				pass.Reportf(s.Pos(),
					"%s accumulation into %s in map-iteration order is not associative-stable (sort the keys first)",
					t.String(), exprName(lhs))
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range s.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || calleeName(call) != "append" || i >= len(s.Lhs) {
				continue
			}
			lhs := s.Lhs[i]
			if !isBuiltinAppend(pass, call) || !declaredOutside(pass, rng, lhs) {
				continue
			}
			// Two deterministic idioms are allowed: appending into a
			// map entry indexed by the loop key (group-by-key — each
			// key's slice sees one ordered append), and collecting
			// keys into a slice that is sorted afterwards.
			if keyedByLoopVar(pass, lhs, vars) || appendsSortedLater(pass, lhs, sorted) {
				continue
			}
			pass.Reportf(s.Pos(),
				"append to %s in map-iteration order (order is randomized per run; sort the keys first)",
				exprName(lhs))
		}
	}
}

// keyedByLoopVar reports whether expr indexes a container by a loop
// variable (m[k], m[k].f, ...): per-key state is touched once per key,
// so iteration order cannot be observed.
func keyedByLoopVar(pass *analysis.Pass, expr ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		ast.Inspect(ix.Index, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && vars[pass.TypesInfo.Uses[id]] {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// appendsSortedLater reports whether the appended-to slice is passed to
// a sort.* or slices.* call somewhere in the file.
func appendsSortedLater(pass *analysis.Pass, lhs ast.Expr, sorted map[types.Object]bool) bool {
	id := rootIdent(lhs)
	if id == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	return obj != nil && sorted[obj]
}

func checkReturn(pass *analysis.Pass, rng *ast.RangeStmt, s *ast.ReturnStmt, vars map[types.Object]bool) {
	// Returning from inside a map range is only order-sensitive when
	// the returned value depends on *which* key triggered it; constant
	// returns (membership tests) commute.
	for _, res := range s.Results {
		found := false
		ast.Inspect(res, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && vars[pass.TypesInfo.Uses[id]] {
				found = true
				return false
			}
			return true
		})
		if found {
			pass.Reportf(s.Pos(),
				"return of a map-iteration variable: which key wins depends on randomized map order (sort the keys first)")
			return
		}
	}
}

// declaredOutside reports whether the root variable of expr was declared
// outside the range statement (so cross-iteration state escapes the
// loop in iteration order).
func declaredOutside(pass *analysis.Pass, rng *ast.RangeStmt, expr ast.Expr) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	// Package-level and closed-over variables have positions outside
	// this range statement's span.
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

// rootIdent unwraps selectors, indexes and parens to the base identifier
// (x for x.f[i].g), or nil when the base is not an identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// orderSensitiveAccum reports whether += into this type depends on
// operand order: floats and complexes (rounding), strings
// (concatenation).
func orderSensitiveAccum(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

func exprName(e ast.Expr) string {
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return "variable"
}
