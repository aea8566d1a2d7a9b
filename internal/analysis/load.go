package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// The loader enumerates packages with `go list -export -deps -test
// -json`, which makes the compiler emit export data for every package
// in the dependency cone (stdlib included), then parses the listed
// sources and type-checks them with go/types against that export data.
// That keeps trustlint stdlib-only: no golang.org/x/tools, no vendored
// loader — the go command does the build-graph work it already knows
// how to do.

// listPkg is the subset of `go list -json` output the loader uses.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	ForTest    string
	Export     string
	DepOnly    bool
	Module     *struct{ Path string }

	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// A Loader turns go list patterns (or fixture directories) into
// type-checked Units.
type Loader struct {
	// Dir is the directory go list runs in (the module root or any
	// directory inside it).
	Dir  string
	Fset *token.FileSet

	// exports maps an import path to its compiler export data file.
	exports map[string]string
	// testExports maps a package's import path to the export data of
	// its in-package test variant ("p [p.test]"), which additionally
	// carries test-only symbols; external _test packages import it.
	testExports map[string]string
	// units maps an import path to its type-checked unit, so loading
	// the module after a subset checks no package twice.
	units map[string]*Unit
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:         dir,
		Fset:        token.NewFileSet(),
		exports:     make(map[string]string),
		testExports: make(map[string]string),
		units:       make(map[string]*Unit),
	}
}

// goList runs `go list -export -deps -test -json args...` and decodes
// the package stream, memoizing the result per module fingerprint
// (listcache.go) so repeated runs over an unchanged tree skip the
// re-export entirely.
func (l *Loader) goList(dir string, patterns []string) ([]*listPkg, error) {
	if pkgs, ok := cachedList(dir, patterns); ok {
		return pkgs, nil
	}
	args := append([]string{"list", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	storeList(dir, patterns, pkgs)
	return pkgs, nil
}

// record indexes one listed package's export data.
func (l *Loader) record(p *listPkg) {
	if p.Export == "" {
		return
	}
	if p.ForTest != "" {
		// "p [p.test]" — the recompiled-for-test variant.
		if base, _, ok := strings.Cut(p.ImportPath, " "); ok && base == p.ForTest {
			l.testExports[base] = p.Export
		}
		return
	}
	if _, ok := l.exports[p.ImportPath]; !ok {
		l.exports[p.ImportPath] = p.Export
	}
}

// LoadPatterns loads, parses, and type-checks every module package
// matched by the go list patterns, returning one unit per package
// (non-test plus in-package test files) and one more per external
// _test package.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Unit, error) {
	return l.loadIn(l.Dir, patterns)
}

// loadIn is LoadPatterns run in dir.
func (l *Loader) loadIn(dir string, patterns []string) ([]*Unit, error) {
	pkgs, err := l.goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var roots []*listPkg
	for _, p := range pkgs {
		l.record(p)
		if p.Module != nil && !p.DepOnly && p.ForTest == "" &&
			!strings.HasSuffix(p.ImportPath, ".test") && p.Name != "" {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	var units []*Unit
	for _, p := range roots {
		files := append(append([]string{}, p.GoFiles...), p.CgoFiles...)
		files = append(files, p.TestGoFiles...)
		u, err := l.check(p.ImportPath, p.Dir, files, "")
		if err != nil {
			return nil, err
		}
		units = append(units, u)
		if len(p.XTestGoFiles) > 0 {
			u, err := l.check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles, p.ImportPath)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	return units, nil
}

// LoadModule loads the module that contains the loader's directory:
// every package `go list ./...` finds at its root, plus the identifiers
// of the modules nested in it.
func (l *Loader) LoadModule() (*Module, error) {
	root, ok := moduleRoot(l.Dir)
	if !ok {
		return nil, fmt.Errorf("no go.mod above %s", l.Dir)
	}
	units, err := l.loadIn(root, []string{"./..."})
	if err != nil {
		return nil, err
	}
	names, err := nestedModuleNames(root)
	if err != nil {
		return nil, err
	}
	return &Module{Units: units, ExternNames: names}, nil
}

// nestedModuleNames returns the identifiers in the Go files of the
// modules nested below root (perfbench/), skipping the directories the
// go command ignores.
func nestedModuleNames(root string) (map[string]bool, error) {
	names := make(map[string]bool)
	nested := "\x00" // the nested module being walked
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		name := d.Name()
		if d.IsDir() && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		inNested := strings.HasPrefix(path, nested+string(filepath.Separator))
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && d.IsDir() && !inNested {
			nested = path
		}
		if !inNested || d.IsDir() || !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
		return nil
	})
	return names, err
}

// check parses and type-checks one compile unit. xtestOf, when
// non-empty, marks the unit as the external test package of that import
// path, making the import of the base package resolve to its
// test-variant export data.
func (l *Loader) check(importPath, dir string, filenames []string, xtestOf string) (*Unit, error) {
	if u := l.units[importPath]; u != nil {
		return u, nil
	}
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		return l.open(path, xtestOf)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	l.units[importPath] = &Unit{ImportPath: importPath, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}
	return l.units[importPath], nil
}

// open resolves an import path to its export data, listing it on demand
// if the initial go list run did not cover it (fixture-only imports
// such as math/rand).
func (l *Loader) open(path, xtestOf string) (io.ReadCloser, error) {
	if xtestOf != "" && path == xtestOf {
		if e, ok := l.testExports[path]; ok {
			return os.Open(e)
		}
	}
	if e, ok := l.exports[path]; ok {
		return os.Open(e)
	}
	pkgs, err := l.goList(l.Dir, []string{path})
	if err != nil {
		return nil, fmt.Errorf("resolving import %q: %w", path, err)
	}
	for _, p := range pkgs {
		l.record(p)
	}
	if e, ok := l.exports[path]; ok {
		return os.Open(e)
	}
	return nil, fmt.Errorf("no export data for %q", path)
}

// Lint loads the patterns relative to dir and runs the full analyzer
// suite: the one-call entry point used by cmd/trustlint, the self-lint
// test, and the benchmark harness.
func Lint(dir string, patterns ...string) ([]Finding, error) {
	return LintRules(dir, nil, patterns...)
}

// LintRules is Lint restricted to a subset of rules (nil means all);
// the cmd/trustlint -rules flag routes here.
func LintRules(dir string, rules []string, patterns ...string) ([]Finding, error) {
	l := NewLoader(dir)
	units, err := l.LoadPatterns(patterns...)
	if err != nil {
		return nil, err
	}
	var mod *Module
	if len(rules) == 0 || slices.Contains(rules, DeadExport.Name) {
		if mod, err = l.LoadModule(); err != nil {
			return nil, err
		}
	}
	return RunRules(units, mod, rules), nil
}
