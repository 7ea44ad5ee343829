package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggview/internal/analysis/irlint"
	"aggview/internal/report"
)

// TestLintDemoScriptClean gates the bundled catalog: demo.sql must lint
// with zero failing diagnostics, and the JSON report must carry the
// usability records for its two queries.
func TestLintDemoScriptClean(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "lint.json")
	var out strings.Builder
	code, err := lint([]string{"testdata/demo.sql"}, jsonPath, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("demo.sql should lint clean, got exit %d:\n%s", code, out.String())
	}

	rep, err := report.Read[irlint.Diagnostic](jsonPath, lintTool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "pass" || rep.Counts["failing"] != 0 || rep.Counts["views"] != 1 || rep.Counts["queries"] != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	usable := 0
	for _, d := range rep.Rows {
		if d.Check == "usability" && strings.Contains(d.Message, "answers") {
			usable++
		}
	}
	// Monthly answers both demo queries (the COUNT query via C4'
	// multiplicity recovery from the view's COUNT column).
	if usable != 2 {
		t.Fatalf("Monthly should answer both demo queries, got %d: %+v", usable, rep.Rows)
	}
}

// TestLintFailingScript: warn-severity hazards drive a nonzero exit and
// a failing verdict, and appear in the text output.
func TestLintFailingScript(t *testing.T) {
	file := filepath.Join(t.TempDir(), "bad.sql")
	script := `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW NoCnt AS SELECT A, SUM(C) FROM R1 GROUP BY A;
`
	if err := os.WriteFile(file, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "lint.json")
	var out strings.Builder
	code, err := lint([]string{file}, jsonPath, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("hazardous catalog should exit 1, got %d:\n%s", code, out.String())
	}
	rep, err := report.Read[irlint.Diagnostic](jsonPath, lintTool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "fail" || rep.Counts["failing"] != 1 {
		t.Fatalf("a failing lint should report verdict fail: %+v", rep)
	}
	if !strings.Contains(out.String(), "no-count-column") {
		t.Fatalf("missing no-count-column in output:\n%s", out.String())
	}
}

// TestLintMissingFile: unreadable inputs are reported as errors, not
// diagnostics.
func TestLintMissingFile(t *testing.T) {
	var out strings.Builder
	if _, err := lint([]string{"/nonexistent/catalog.sql"}, "", false, &out); err == nil {
		t.Fatal("missing file should error")
	}
}
