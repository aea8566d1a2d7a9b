package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The analyzer tests are golden-file tests over the fixture packages in
// testdata/src/<rule>: every line carrying a violation is annotated
// with a `// want "regexp"` comment, and the harness asserts a 1:1
// correspondence between expectations and findings. A shared loader
// type-checks the real repository once so fixtures can import
// trust/internal/sim and the self-lint test can sweep the whole module.

var (
	repoOnce   sync.Once
	repoLoader *Loader
	repoUnits  []*Unit
	repoErr    error
)

// loadRepo loads and type-checks every package of the module exactly
// once per test binary.
func loadRepo(t *testing.T) (*Loader, []*Unit) {
	t.Helper()
	repoOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			repoErr = err
			return
		}
		repoLoader = NewLoader(root)
		repoUnits, repoErr = repoLoader.LoadPatterns("./...")
	})
	if repoErr != nil {
		t.Fatalf("loading repository: %v", repoErr)
	}
	return repoLoader, repoUnits
}

func TestFixtureNoWallClock(t *testing.T) { runFixture(t, "nowallclock") }
func TestFixtureRNGStream(t *testing.T)   { runFixture(t, "rngstream") }
func TestFixtureCTCompare(t *testing.T)   { runFixture(t, "ctcompare") }
func TestFixtureMapOrder(t *testing.T)    { runFixture(t, "maporder") }
func TestFixtureLockOrder(t *testing.T)   { runFixture(t, "lockorder") }
func TestFixturePoolEscape(t *testing.T)  { runFixture(t, "poolescape") }
func TestFixtureSecretFlow(t *testing.T)  { runFixture(t, "secretflow") }
func TestFixtureWireWidth(t *testing.T)   { runFixture(t, "wirewidth") }
func TestFixtureSuppress(t *testing.T)    { runFixture(t, "suppress") }

// want is one expectation: a regexp that must match a finding on its
// line.
type want struct {
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture lints one fixture package and checks findings against its
// want comments.
func runFixture(t *testing.T, name string) {
	t.Helper()
	l, _ := loadRepo(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	unit, err := l.LoadDir(dir, "trust/internal/analysis/testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := Run([]*Unit{unit})
	wants := collectWants(t, unit)

	for _, f := range findings {
		matched := false
		for _, w := range wants[f.Pos.Filename] {
			if w.line == f.Pos.Line && !w.hit && w.re.MatchString(f.Rule+": "+f.Msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: expected finding matching %q, got none", file, w.line, w.re)
			}
		}
	}
}

// wantRE extracts the Go-quoted regexps of a want comment.
var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants parses the `want "..."` expectations of a fixture unit.
func collectWants(t *testing.T, unit *Unit) map[string][]*want {
	t.Helper()
	out := make(map[string][]*want)
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, after, ok := strings.Cut(c.Text, "want ")
				if !ok {
					continue
				}
				pos := unit.Fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(after, -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out[pos.Filename] = append(out[pos.Filename], &want{line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// TestSelfLint runs the full suite over the repository itself: the
// tree must stay trustlint-clean, so any new violation fails the tier-1
// test run, not just the lint step. (The verify line invokes this test
// by name; keep it grep-matchable as TestSelfLint.)
func TestSelfLint(t *testing.T) {
	_, units := loadRepo(t)
	findings := Run(units)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("%d finding(s); the tree must be trustlint-clean (suppress deliberate exceptions with //trustlint:allow <rule>)", len(findings))
	}
}

// TestRuleNamesAreRegistered pins the eight contract rules by name; the
// //trustlint:allow directive and the docs reference them.
func TestRuleNamesAreRegistered(t *testing.T) {
	got := strings.Join(RuleNames(), ",")
	wantNames := "nowallclock,rngstream,ctcompare,maporder,lockorder,poolescape,secretflow,wirewidth"
	if got != wantNames {
		t.Fatalf("registered rules = %s, want %s", got, wantNames)
	}
}

// ruleHeadingRE matches the docs' per-rule headings: ### `rulename`
var ruleHeadingRE = regexp.MustCompile("(?m)^### `([a-z]+)`$")

// TestRuleIndexMatchesDocs asserts the rule list trustlint -list
// prints (the registry, in order) matches the documented rule index in
// docs/static-analysis.md, so neither can drift from the other.
func TestRuleIndexMatchesDocs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "static-analysis.md"))
	if err != nil {
		t.Fatalf("reading rule docs: %v", err)
	}
	var documented []string
	for _, m := range ruleHeadingRE.FindAllStringSubmatch(string(data), -1) {
		documented = append(documented, m[1])
	}
	if got, wantNames := strings.Join(documented, ","), strings.Join(RuleNames(), ","); got != wantNames {
		t.Fatalf("docs/static-analysis.md documents rules [%s], registry has [%s]", got, wantNames)
	}
}

// TestRunRulesFilters checks the -rules subset path: a filtered run
// executes only the named rules and never reports stale directives
// (it cannot tell stale from not-executed).
func TestRunRulesFilters(t *testing.T) {
	l, _ := loadRepo(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	unit, err := l.LoadDir(dir, "trust/internal/analysis/testdata/src/suppress")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := RunRules([]*Unit{unit}, []string{"rngstream"})
	for _, f := range findings {
		if strings.Contains(f.Msg, "stale") {
			t.Errorf("filtered run reported a stale directive: %s", f)
		}
		if f.Rule != "rngstream" && f.Rule != "directive" {
			t.Errorf("filtered run produced finding for unselected rule: %s", f)
		}
	}
}

// TestFindingString pins the file:line:col: rule: message rendering the
// CLI prints and CI greps.
func TestFindingString(t *testing.T) {
	f := Finding{Rule: "maporder", Msg: "m"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "a/b.go", 3, 7
	if got, wantStr := f.String(), "a/b.go:3:7: maporder: m"; got != wantStr {
		t.Fatalf("String() = %q, want %q", got, wantStr)
	}
}
