package irlint_test

import (
	"context"
	"strings"
	"testing"

	"aggview/internal/analysis/irlint"
)

// find returns the diagnostics with the given check name.
func find(res *irlint.Result, check string) []irlint.Diagnostic {
	var out []irlint.Diagnostic
	for _, d := range res.Diags {
		if d.Check == check {
			out = append(out, d)
		}
	}
	return out
}

func TestLintCleanCatalog(t *testing.T) {
	res := irlint.LintScript(context.Background(), "clean.sql", `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW V1 AS SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B;
SELECT A, SUM(C) FROM R1 GROUP BY A;
`)
	if res.Failing() != 0 {
		t.Fatalf("clean catalog should not fail, got %+v", res.Diags)
	}
	if res.Views != 1 || res.Queries != 1 {
		t.Fatalf("got %d views / %d queries, want 1/1", res.Views, res.Queries)
	}
	us := find(res, "usability")
	if len(us) != 1 || us[0].Severity != irlint.Info {
		t.Fatalf("want one usability info record, got %+v", us)
	}
	if !strings.Contains(us[0].Message, "answers") {
		t.Fatalf("V1 should answer the query: %s", us[0].Message)
	}
}

func TestLintNoCountColumn(t *testing.T) {
	res := irlint.LintScript(context.Background(), "nocnt.sql", `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW NoCnt AS SELECT A, B, SUM(C) FROM R1 GROUP BY A, B;
SELECT A, COUNT(C) FROM R1 GROUP BY A;
`)
	warns := find(res, "no-count-column")
	if len(warns) != 1 || warns[0].View != "NoCnt" || warns[0].Severity != irlint.Warn {
		t.Fatalf("want one no-count-column warn for NoCnt, got %+v", warns)
	}
	us := find(res, "usability")
	if len(us) != 1 || !strings.Contains(us[0].Message, "condition C4") {
		t.Fatalf("usability record should cite condition C4, got %+v", us)
	}
	if res.Failing() == 0 {
		t.Fatal("warn must count as failing")
	}
}

func TestLintAvgWithoutCount(t *testing.T) {
	res := irlint.LintScript(context.Background(), "avg.sql", `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW Avgs AS SELECT A, AVG(C) FROM R1 GROUP BY A;
`)
	warns := find(res, "avg-without-count")
	if len(warns) != 1 || warns[0].View != "Avgs" {
		t.Fatalf("want one avg-without-count warn, got %+v", warns)
	}
	if len(find(res, "no-count-column")) != 0 {
		t.Fatal("avg-without-count subsumes no-count-column")
	}
}

// An AVG re-aggregates as the view's SUM over its COUNT, so a view that
// exports AVG and COUNT but no SUM of the column answers no coarser AVG.
func TestLintAvgWithoutSum(t *testing.T) {
	res := irlint.LintScript(context.Background(), "avgsum.sql", `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW AvgCnt AS SELECT A, B, AVG(C), COUNT(C) FROM R1 GROUP BY A, B;
CREATE VIEW AvgSumCnt AS SELECT A, B, AVG(C), SUM(C), COUNT(C) FROM R1 GROUP BY A, B;
`)
	warns := find(res, "avg-without-count")
	if len(warns) != 1 || warns[0].View != "AvgCnt" || !strings.Contains(warns[0].Message, "without the SUM") {
		t.Fatalf("want one avg-without-count warn for AvgCnt, got %+v", warns)
	}
}

func TestLintGroupColProjectedOut(t *testing.T) {
	res := irlint.LintScript(context.Background(), "proj.sql", `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW Hidden AS SELECT A, SUM(C), COUNT(C) FROM R1 GROUP BY A, B;
`)
	warns := find(res, "group-col-projected-out")
	if len(warns) != 1 || !strings.Contains(warns[0].Message, "B") {
		t.Fatalf("want one group-col-projected-out warn naming B, got %+v", warns)
	}
}

func TestLintDuplicateGroupBy(t *testing.T) {
	res := irlint.LintScript(context.Background(), "dup.sql", `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW Dup AS SELECT A, SUM(C), COUNT(C) FROM R1 GROUP BY A, A;
`)
	errs := find(res, "duplicate-group-by")
	if len(errs) != 1 || errs[0].Severity != irlint.Error {
		t.Fatalf("want one duplicate-group-by error, got %+v", res.Diags)
	}
	if res.Views != 0 {
		t.Fatalf("rejected view must not count, got %d", res.Views)
	}
}

// TestLintKeepsGoing: one bad statement must not mask findings on the
// rest of the catalog.
func TestLintKeepsGoing(t *testing.T) {
	res := irlint.LintScript(context.Background(), "mixed.sql", `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW Bad AS SELECT A, SUM(C) FROM R1 GROUP BY A, A;
CREATE VIEW NoCnt AS SELECT A, SUM(C) FROM R1 GROUP BY A;
`)
	if len(find(res, "duplicate-group-by")) != 1 {
		t.Fatalf("missing duplicate-group-by: %+v", res.Diags)
	}
	if len(find(res, "no-count-column")) != 1 {
		t.Fatalf("missing no-count-column on the later view: %+v", res.Diags)
	}
}

func TestLintParseError(t *testing.T) {
	res := irlint.LintScript(context.Background(), "bad.sql", "CREATE NONSENSE")
	errs := find(res, "parse-error")
	if len(errs) != 1 || res.Failing() != 1 {
		t.Fatalf("want one parse-error, got %+v", res.Diags)
	}
}

// TestLintInsertsIgnored: oracle replay scripts carry INSERT rows, and
// DELETE and UPDATE steps; they must lint without noise.
func TestLintInsertsIgnored(t *testing.T) {
	res := irlint.LintScript(context.Background(), "data.sql", `
CREATE TABLE R1(A, B, C, D);
INSERT INTO R1 VALUES (1, 2, 3, 4);
CREATE VIEW V1 AS SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B;
DELETE FROM R1 WHERE A = 1;
UPDATE R1 SET C = C + 1 WHERE B > 0;
SELECT A, SUM(C) FROM R1 GROUP BY A;
`)
	if res.Failing() != 0 {
		t.Fatalf("INSERT, DELETE and UPDATE must be ignored, got %+v", res.Diags)
	}
}

// TestLintUsabilityHonorsContext: a canceled context ends the usability
// verdicts with one error diagnostic instead of running the analysis.
func TestLintUsabilityHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := irlint.LintScript(ctx, "canceled.sql", `
CREATE TABLE R1(A, B, C, D);
CREATE VIEW V1 AS SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B;
SELECT A, SUM(C) FROM R1 GROUP BY A;
SELECT B, SUM(C) FROM R1 GROUP BY B;
`)
	us := find(res, "usability")
	if len(us) != 1 || us[0].Severity != irlint.Error || !strings.Contains(us[0].Message, "canceled") {
		t.Fatalf("want one usability error naming the cancellation, got %+v", us)
	}
}

// TestLintRefusesWhatTheSystemRefuses: the script's declarations run
// through the facade, so a view that takes a table's name in another
// letter case is an error, as `aggview -exec` of the script refuses it.
func TestLintRefusesWhatTheSystemRefuses(t *testing.T) {
	res := irlint.LintScript(context.Background(), "taken.sql", `
CREATE TABLE T(a, b);
CREATE VIEW t AS SELECT a, SUM(b) FROM T GROUP BY a;
`)
	errs := find(res, "name-taken")
	if len(errs) != 1 || errs[0].Severity != irlint.Error || errs[0].View != "t" {
		t.Fatalf("want one name-taken error for t, got %+v", res.Diags)
	}
	if res.Views != 0 {
		t.Fatalf("a refused view must not count, got %d", res.Views)
	}
}
