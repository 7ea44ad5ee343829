package core

import (
	"context"
	"strings"
	"testing"

	"aggview/internal/budget"
	"aggview/internal/ir"
	"aggview/internal/obs"
)

// mustExplain is ExplainUsability without a deadline, failing the test
// on error.
func mustExplain(t *testing.T, rw *Rewriter, q *ir.Query) []ViewUsability {
	t.Helper()
	us, err := rw.ExplainUsability(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return us
}

// TestExplainUsabilityUsable: the paper's Example 1.1 pairing must come
// back usable with no failures recorded for the winning view.
func TestExplainUsabilityUsable(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"V1": "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(C) FROM R1 GROUP BY A")

	us := mustExplain(t, rw, q)
	if len(us) != 1 {
		t.Fatalf("got %d records, want 1", len(us))
	}
	u := us[0]
	if u.View != "V1" || !u.Usable {
		t.Fatalf("V1 should be usable: %+v", u)
	}
	if u.Mappings == 0 {
		t.Fatalf("expected at least one mapping: %+v", u)
	}
}

// TestExplainUsabilityCountRecovery: without a COUNT column the view
// cannot recover multiplicities for a COUNT query; the failure must
// name the condition.
func TestExplainUsabilityCountRecovery(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"NoCnt": "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, COUNT(C) FROM R1 GROUP BY A")

	u := mustExplain(t, rw, q)[0]
	if u.Usable {
		t.Fatalf("NoCnt must not answer a COUNT query: %+v", u)
	}
	if len(u.Failures) == 0 {
		t.Fatalf("expected failure reasons, got none")
	}
	joined := strings.Join(u.Failures, "\n")
	if !strings.Contains(joined, "condition C4") {
		t.Fatalf("failures should mention condition C4, got:\n%s", joined)
	}
}

// TestExplainUsabilityMultisetRestriction: an aggregation view against
// a plain conjunctive query trips the Section 4.5 restriction.
func TestExplainUsabilityMultisetRestriction(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"Agg": "SELECT A, SUM(C) FROM R1 GROUP BY A",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, B FROM R1")

	u := mustExplain(t, rw, q)[0]
	if u.Usable {
		t.Fatalf("aggregation view must not answer a conjunctive query: %+v", u)
	}
	joined := strings.Join(u.Failures, "\n")
	if !strings.Contains(joined, "Section 4.5") {
		t.Fatalf("failures should cite the Section 4.5 restriction, got:\n%s", joined)
	}
}

// TestExplainUsabilityNoMapping: disjoint FROM clauses leave no column
// mapping at all.
func TestExplainUsabilityNoMapping(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"Other": "SELECT E, F FROM R2",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(C) FROM R1 GROUP BY A")

	u := mustExplain(t, rw, q)[0]
	if u.Usable || u.Mappings != 0 {
		t.Fatalf("expected no mappings: %+v", u)
	}
	joined := strings.Join(u.Failures, "\n")
	if !strings.Contains(joined, "no column mapping") {
		t.Fatalf("failures should report the missing mapping, got:\n%s", joined)
	}
}

// TestExplainUsabilityIsTheSearchsVerdict: a view's usability is the
// search's own single-step verdicts folded — its C1 rejection reason is
// the failure, its accept makes the view usable — the analysis records
// nothing on the context's span, and a canceled context stops it.
func TestExplainUsabilityIsTheSearchsVerdict(t *testing.T) {
	rw := newRewriter(t, traceViews(), Options{})
	q := buildQ(t, rw, telcoQ)
	ctx, sp := recordingCtx()
	us, err := rw.ExplainUsability(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rec := sp.Snapshot(); len(rec.Candidates) != 0 || rec.Verdicts != (obs.SpanVerdicts{}) {
		t.Fatalf("ExplainUsability recorded on the span: %+v", rec)
	}
	for _, u := range us {
		ctx, sp := recordingCtx()
		if _, err := rw.RewriteOnceContext(ctx, q, mustView(t, rw, u.View)); err != nil {
			t.Fatal(err)
		}
		usable, reasons := false, []string(nil)
		for _, c := range sp.Snapshot().Candidates {
			switch c.Verdict {
			case obs.VerdictAccept:
				usable = true
			case obs.VerdictReject:
				reasons = append(reasons, c.Reason)
			}
		}
		if u.Usable != usable || strings.Join(u.Failures, "\n") != strings.Join(reasons, "\n") {
			t.Errorf("view %s: usability %v %q, search %v %q", u.View, u.Usable, u.Failures, usable, reasons)
		}
	}
	if us[1].View != "VD" || us[1].Usable || len(us[1].Failures) != 1 {
		t.Fatalf("the DISTINCT view must fail on C1 alone: %+v", us[1])
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rw.ExplainUsability(canceled, q); !budget.IsCanceled(err) {
		t.Fatalf("canceled analysis: want *budget.Canceled, got %v", err)
	}
}
