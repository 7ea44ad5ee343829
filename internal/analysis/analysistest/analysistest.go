// Package analysistest runs an analyzer over a fixture package and
// checks its diagnostics against `// want` annotations, mirroring the
// x/tools package of the same name (which this module cannot vendor).
//
// A fixture is an ordinary Go package under the analyzer's
// testdata/src/<name>/ directory — excluded from ./... builds by the
// testdata convention, but loadable by explicit path, so fixtures may
// import real module packages (floateq's fixtures import
// aggview/internal/value) and must type-check.
//
// Expectations are trailing comments on the line the diagnostic is
// reported at:
//
//	out = append(out, k) // want `map order`
//
// The backquoted text is a regular expression matched against the
// diagnostic message; several `// want` patterns on one line expect
// several diagnostics. Lines with no annotation expect none, so every
// fixture simultaneously exercises the flagged and the allowlisted
// paths.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"aggview/internal/analysis"
)

// expectation is one `// want` annotation.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// wantRE extracts backquoted patterns from a want comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// Run loads the fixture package rooted at dir (a directory path
// relative to the calling test, e.g. "testdata/src/engine"), applies
// the analyzer, and reports every mismatch between diagnostics and
// `// want` annotations as a test error.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkgs, err := analysis.Load(dir, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: expected one package, got %d", dir, len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.Errors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, pkg.Errors)
	}

	want, err := expectations(pkg)
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := analysis.RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, d := range diags {
		if !claim(want, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range want {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// claim marks the first unmatched expectation covering the diagnostic.
func claim(want []*expectation, d analysis.Diagnostic) bool {
	for _, w := range want {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// expectations parses the fixture's `// want` comments.
func expectations(pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pats := wantRE.FindAllStringSubmatch(text, -1)
				if len(pats) == 0 {
					return nil, fmt.Errorf("%s: `// want` without a backquoted pattern", fmtPos(pos))
				}
				for _, m := range pats {
					re, err := regexp.Compile(m[1])
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %w", fmtPos(pos), m[1], err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out, nil
}

func fmtPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
