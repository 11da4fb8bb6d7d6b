package repro

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runDocs are the documents whose run lines a reader copies into a shell.
var runDocs = []string{"README.md", ".claude/skills/verify/SKILL.md"}

var (
	goRunTarget  = regexp.MustCompile(`go run (?:-race )?\./([A-Za-z0-9_./-]+)`)
	scenarioFile = regexp.MustCompile(`scenarios/[A-Za-z0-9_.-]+\.json`)
	fence        = regexp.MustCompile("(?m)^```.*$")
	goTestCmd    = regexp.MustCompile("(?m)^go test .*$|`[^`]*`") // a fenced command line, or a code span
	testFunc     = regexp.MustCompile(`(?m)^func ((Test|Example|Fuzz|Benchmark)\w*)\(`)
	selects      = map[string]string{"run": "Test Example Fuzz", "bench": "Benchmark", "fuzz": "Fuzz"} // by name prefix
	codeSpan     = regexp.MustCompile("`[^`\n]+`")
	// pkgSymbol is pkg.Name or pkg.Type.Member, not inside a path or a
	// file name, with an exported Name (metric names such as
	// sim.queue_depth are lower case).
	pkgSymbol = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// TestDocRunLinesExist holds every run line of the docs to the tree: each
// `go run ./<dir>` names a main package, each scenarios/<name>.json named
// exists, and each `go test` names packages that exist and -run, -bench
// and -fuzz patterns that select a function of them. A program, scenario
// or test deleted while a doc still points at it fails here.
func TestDocRunLinesExist(t *testing.T) {
	for _, doc := range runDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		runs := goRunTarget.FindAllSubmatch(text, -1)
		if len(runs) == 0 {
			t.Errorf("%s: no go run line found", doc)
		}
		for _, m := range runs {
			if pkg, err := build.ImportDir(string(m[1]), 0); err != nil || pkg.Name != "main" {
				t.Errorf("%s: go run ./%s: package %q, not main (%v)", doc, m[1], pkg.Name, err)
			}
		}
		for _, f := range scenarioFile.FindAll(text, -1) {
			if _, err := os.Stat(string(f)); err != nil {
				t.Errorf("%s: %v", doc, err)
			}
		}
		text = fence.ReplaceAll(bytes.ReplaceAll(text, []byte("\\\n"), []byte(" ")), nil)
		for _, c := range goTestCmd.FindAllString(string(text), -1) {
			if _, args, ok := strings.Cut(c, "go test"); ok {
				checkGoTest(t, doc, strings.Fields(strings.Trim(args, "`")))
			}
		}
	}
}

// checkGoTest checks the arguments of one go test command, up to a
// comment, pipe or redirection. A pattern is matched up to its first '/'.
func checkGoTest(t *testing.T, doc string, args []string) {
	pkgs, patterns := []string(nil), map[string]string{} // patterns: flag → pattern
	for i := 0; i < len(args) && !strings.ContainsAny(args[i][:1], "#|;&>"); i++ {
		flag, val, inline := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if selects[flag] != "" && !inline && i+1 < len(args) {
			i++
			val = args[i]
		}
		if val = strings.Trim(val, `'"`); selects[flag] != "" && val != "^$" {
			patterns[flag] = strings.SplitN(val, "/", 2)[0]
		} else if strings.HasPrefix(args[i], ".") {
			pkgs = append(pkgs, strings.TrimSuffix(args[i], ")"))
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	funcs := map[string]string{} // name → kind, from every _test.go file whatever its build tags
	for _, pkg := range pkgs {
		root, all := strings.CutSuffix(pkg, "/...")
		if _, err := build.ImportDir(root, 0); err != nil && !all {
			t.Errorf("%s: go test %s: %v", doc, pkg, err)
		}
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() && path != root && (!all || d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")) {
				return filepath.SkipDir
			} else if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				funcs[m[1]] = m[2]
			}
			return err
		})
	}
	for flag, p := range patterns {
		re, err := regexp.Compile(p)
		hit := false
		for name, kind := range funcs {
			hit = hit || err == nil && strings.Contains(selects[flag], kind) && re.MatchString(name)
		}
		if !hit {
			t.Errorf("%s: go test %s: -%s %q selects nothing (%v)", doc, strings.Join(args, " "), flag, p, err)
		}
	}
}

// TestDocSymbolsExist holds every Go symbol the docs name in a code span to
// the tree: in `pkg.Name` (or `pkg.Type.Member`, which checks Type), where
// pkg is a package under internal/, Name must be a top-level declaration of
// that package's non-test files. A doc still naming a deleted or renamed
// identifier fails here.
func TestDocSymbolsExist(t *testing.T) {
	decls := map[string]map[string]bool{} // package directory name → top-level names
	filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := decls[filepath.Base(filepath.Dir(path))]
		if names == nil {
			names = map[string]bool{}
			decls[filepath.Base(filepath.Dir(path))] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl: // a method too: docs write pkg.Method for Type.Method
				names[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	for _, doc := range runDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text = fence.ReplaceAll(text, nil)
		for _, span := range codeSpan.FindAll(text, -1) {
			for _, m := range pkgSymbol.FindAllSubmatch(span, -1) {
				if names, ok := decls[string(m[1])]; ok && !names[string(m[2])] {
					t.Errorf("%s: %s names %s.%s, which internal/%s does not declare", doc, span, m[1], m[2], m[1])
				}
			}
		}
	}
}
