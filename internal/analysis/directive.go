package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// trustlint suppressions are written as comment directives:
//
//	//trustlint:allow <rule>[,<rule>...] [-- justification]
//
// A directive placed before (or on) the package clause allowlists the
// named rules for the whole file — the escape hatch for e.g. _test.go
// timing helpers that legitimately touch the wall clock. Anywhere else
// it suppresses findings on its own line and on the line directly
// below, so the idiomatic form is a justification comment ending in the
// directive, right above the flagged statement.
//
// A bare `//trustlint:allow` (no rule name) or one naming an unknown
// rule is itself a diagnostic: silent, unscoped suppressions are how
// contracts rot. So is a stale allow — a directive naming a rule that
// no longer fires where the directive could suppress it — because a
// suppression that outlives its violation hides the next real one.
// Stale detection only runs for the rules a full-suite run executed (a
// -rules filtered run cannot tell stale from not-executed) and skips
// generated files (conventional `// Code generated ... DO NOT EDIT.`
// header), whose directives are owned by the generator.

const directivePrefix = "//trustlint:allow"

// directiveRule is the pseudo-rule under which malformed directives are
// reported. It is not a registered analyzer, so it cannot be
// suppressed.
const directiveRule = "directive"

// directive is one parsed //trustlint:allow comment.
type directive struct {
	rules    []string
	line     int
	fileWide bool
	pos      token.Position
	// used[i] records whether rules[i] suppressed at least one finding,
	// feeding stale-allow detection.
	used []bool
}

// parseDirectives extracts the directives of one file and reports
// malformed ones as findings.
func parseDirectives(fset *token.FileSet, file *ast.File, findings *[]Finding) []directive {
	known := make(map[string]bool)
	for _, name := range RuleNames() {
		known[name] = true
	}
	pkgLine := fset.Position(file.Package).Line
	var out []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //trustlint:allowed — not our directive
			}
			pos := fset.Position(c.Pos())
			if i := strings.Index(rest, "--"); i >= 0 {
				rest = rest[:i]
			}
			var rules []string
			for _, f := range strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' }) {
				rules = append(rules, f)
			}
			if len(rules) == 0 {
				*findings = append(*findings, Finding{
					Pos:  pos,
					Rule: directiveRule,
					Msg:  "bare //trustlint:allow: name the rule(s) being suppressed",
				})
				continue
			}
			bad := false
			for _, r := range rules {
				if !known[r] {
					*findings = append(*findings, Finding{
						Pos:  pos,
						Rule: directiveRule,
						Msg:  fmt.Sprintf("unknown rule %q in //trustlint:allow (valid: %s)", r, strings.Join(RuleNames(), ", ")),
					})
					bad = true
				}
			}
			if bad {
				continue
			}
			out = append(out, directive{
				rules:    rules,
				line:     pos.Line,
				fileWide: pos.Line <= pkgLine,
				pos:      pos,
				used:     make([]bool, len(rules)),
			})
		}
	}
	return out
}

// applyDirectives parses every unit's suppression directives, drops
// findings they cover, and appends diagnostics for malformed ones.
// Directives naming a rule in ran that suppressed nothing are reported
// as stale — except in generated files.
func applyDirectives(units []*Unit, findings []Finding, ran map[string]bool) []Finding {
	type fileKey = string
	byFile := make(map[fileKey][]directive)
	generated := make(map[fileKey]bool)
	var fileOrder []fileKey
	var out []Finding
	for _, u := range units {
		for _, f := range u.Files {
			name := u.Fset.Position(f.Package).Filename
			if _, done := byFile[name]; done {
				continue // base and xtest units never share files, but be safe
			}
			byFile[name] = parseDirectives(u.Fset, f, &out)
			generated[name] = isGeneratedFile(u.Fset, f)
			fileOrder = append(fileOrder, name)
		}
	}
	for _, f := range findings {
		if !suppressed(f, byFile[f.Pos.Filename]) {
			out = append(out, f)
		}
	}
	for _, name := range fileOrder {
		if generated[name] {
			continue
		}
		for _, d := range byFile[name] {
			for i, r := range d.rules {
				if ran[r] && !d.used[i] {
					out = append(out, Finding{
						Pos:  d.pos,
						Rule: directiveRule,
						Msg:  fmt.Sprintf("stale //trustlint:allow %s: the rule no longer fires here; remove the directive so it cannot hide a future violation", r),
					})
				}
			}
		}
	}
	return out
}

// suppressed reports whether a directive in f's file covers it,
// marking the matching rule as used.
func suppressed(f Finding, dirs []directive) bool {
	hit := false
	for di := range dirs {
		d := &dirs[di]
		covers := d.fileWide || d.line == f.Pos.Line || d.line == f.Pos.Line-1
		if !covers {
			continue
		}
		for i, r := range d.rules {
			if r == f.Rule {
				d.used[i] = true
				hit = true
			}
		}
	}
	return hit
}

// generatedRE is the conventional generated-file marker
// (https://go.dev/s/generatedcode): it must appear on a line of its
// own before the package clause.
var generatedRE = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// isGeneratedFile reports whether the file carries the conventional
// generated-code header.
func isGeneratedFile(fset *token.FileSet, f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRE.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// isTestFile reports whether filename is a Go test file.
func isTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}
