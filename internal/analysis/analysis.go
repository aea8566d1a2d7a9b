// Package analysis implements trustlint, the repository's custom
// static-analysis suite. The compiler cannot see the two contracts this
// codebase depends on — bit-identical artifacts from a single seed at
// any worker count (docs/sweep-engine.md) and constant-time handling of
// MAC/key material in the protocol layer (paper Fig 8-10) — so trustlint
// machine-checks them on every build. See docs/static-analysis.md.
//
// The suite is stdlib-only: packages are enumerated with `go list
// -export -json`, parsed with go/parser, and type-checked with go/types
// against the compiler's export data, so no third-party loader is
// needed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named rule. Run inspects a single type-checked
// compile unit and reports findings through the pass.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// //trustlint:allow directives.
	Name string
	// Doc is a one-line description shown by `trustlint -list`.
	Doc string
	// Run applies the rule to one compile unit.
	Run func(*Pass)
}

// Analyzers is the registry of rules, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoWallClock,
		RNGStream,
		CTCompare,
		MapOrder,
		LockOrder,
		PoolEscape,
		SecretFlow,
		WireWidth,
	}
}

// RuleNames returns the valid rule identifiers (the ones accepted by
// //trustlint:allow).
func RuleNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// A Finding is one diagnostic: a rule violated at a position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// A Unit is one type-checked compile unit: a package's non-test and
// in-package test files together, or an external _test package.
type Unit struct {
	// ImportPath identifies the unit ("trust/internal/sim", or
	// "trust/internal/sim_test" for an external test package).
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	// graph is the unit's call graph, built lazily by Pass.Graph and
	// shared by every analyzer that runs on the unit.
	graph *CallGraph
}

// A Pass carries one unit through one analyzer.
type Pass struct {
	Unit     *Unit
	rule     string
	findings *[]Finding
}

// Fset returns the unit's file set.
func (p *Pass) Fset() *token.FileSet { return p.Unit.Fset }

// Files returns the unit's parsed files.
func (p *Pass) Files() []*ast.File { return p.Unit.Files }

// Pkg returns the unit's type-checked package.
func (p *Pass) Pkg() *types.Package { return p.Unit.Pkg }

// Info returns the unit's type information.
func (p *Pass) Info() *types.Info { return p.Unit.Info }

// Reportf records a finding for the pass's rule at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:  p.Unit.Fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos falls in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return isTestFile(p.Unit.Fset.Position(pos).Filename)
}

// Run applies every registered analyzer to every unit, resolves
// //trustlint:allow directives (dropping suppressed findings, adding
// diagnostics for malformed and stale ones), and returns the surviving
// findings sorted by position.
func Run(units []*Unit) []Finding {
	return RunRules(units, nil)
}

// RunRules is Run restricted to a subset of rules (nil or empty means
// all). Stale-directive detection only applies when the full suite
// runs: a filtered run cannot tell a stale allow from one whose rule
// was simply not executed.
func RunRules(units []*Unit, rules []string) []Finding {
	selected := make(map[string]bool)
	for _, r := range rules {
		selected[r] = true
	}
	full := len(selected) == 0
	var findings []Finding
	for _, u := range units {
		for _, a := range Analyzers() {
			if !full && !selected[a.Name] {
				continue
			}
			pass := &Pass{Unit: u, rule: a.Name, findings: &findings}
			a.Run(pass)
		}
	}
	findings = applyDirectives(units, findings, full)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings
}
