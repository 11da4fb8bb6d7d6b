package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/sim", or for fixture
	// trees the path relative to the tree root, e.g. "internal/sim").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root (the directory containing go.mod). Directories
// named testdata or vendor, and hidden or underscore-prefixed
// directories, are skipped — the same pruning the go tool applies.
//
// Standard-library imports are resolved by compiling their source from
// GOROOT (importer "source"), so loading works offline; the module's own
// packages are type-checked in dependency order and resolved against
// each other. The module must have no external dependencies — this repo
// is deliberately dependency-free, and the loader enforces it by failing
// on any import that is neither std nor module-local.
func LoadModule(root string) ([]*Package, error) {
	modfile := filepath.Join(root, "go.mod")
	data, err := os.ReadFile(modfile)
	if err != nil {
		return nil, fmt.Errorf("analysis: no module at %s: %w", root, err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: %s has no module directive", modfile)
	}
	return LoadTree(root, module)
}

// LoadTree parses and type-checks every package in the directory tree at
// root. A package's import path is prefix + "/" + its path relative to
// root (or prefix alone at the root). This is the engine behind both
// LoadModule (prefix = module path) and analysistest fixture trees
// (root = testdata/src, prefix = "").
func LoadTree(root, prefix string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		byPath: make(map[string]*Package),
	}

	// Pass 1: find and parse every package directory.
	var paths []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := l.parseDir(root, prefix, path)
		if err != nil {
			return err
		}
		if pkg != nil {
			l.byPath[pkg.Path] = pkg
			paths = append(paths, pkg.Path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)

	// Pass 2: type-check in dependency order.
	var out []*Package
	for _, p := range paths {
		pkg, err := l.check(p, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

type loader struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	byPath map[string]*Package
}

// parseDir parses the non-test .go files of dir into a Package, or
// returns (nil, nil) if the directory holds no Go source.
func (l *loader) parseDir(root, prefix, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s: mixed packages %q and %q", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := prefix
	if rel != "." {
		if path != "" {
			path += "/"
		}
		path += filepath.ToSlash(rel)
	}
	return &Package{Path: path, Fset: l.fset, Files: files}, nil
}

// check type-checks path (and, recursively, its module-local imports
// first). stack detects import cycles.
func (l *loader) check(path string, stack []string) (*Package, error) {
	pkg := l.byPath[path]
	if pkg == nil {
		return nil, fmt.Errorf("analysis: import %q is neither standard library nor module-local (external dependencies are not supported)", path)
	}
	if pkg.Types != nil {
		return pkg, nil
	}
	for _, s := range stack {
		if s == path {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
	}
	stack = append(stack, path)

	// Type-check dependencies first so our importer can hand them out.
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if _, ok := l.byPath[p]; ok {
				if _, err := l.check(p, stack); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var terr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if terr == nil {
				terr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, pkg.Files, info)
	if terr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, terr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// Import implements types.Importer for the type-checker: module-local
// packages come from the loader's cache, everything else from the
// standard library's source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.byPath[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %q imported before it was checked", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// ImportFrom implements types.ImporterFrom.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return l.Import(path)
}
