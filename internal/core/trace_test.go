package core

import (
	"context"
	"encoding/json"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/obs"
)

// recordingCtx returns a context carrying a fresh span that keeps every
// candidate.
func recordingCtx() (context.Context, *obs.Span) {
	sp := obs.NewSpan("", "")
	sp.RecordCandidates()
	return obs.WithSpan(context.Background(), sp), sp
}

// tracedRewritings runs the search under a recording span and returns
// its rewritings and the span's record.
func tracedRewritings(t testing.TB, rw *Rewriter, q *ir.Query) ([]*Rewriting, obs.SpanRecord) {
	t.Helper()
	ctx, sp := recordingCtx()
	rws, err := rw.RewritingsContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	return rws, sp.Snapshot()
}

// traceViews pairs the usable telco view with a DISTINCT view the
// search must reject outright, so traces exercise accept, reject and
// dedup verdicts together.
func traceViews() map[string]string {
	return map[string]string{
		"V1": telcoV1,
		"VD": `SELECT DISTINCT Plan_Id, Plan_Name FROM Calling_Plans`,
	}
}

func TestRewritingsTraceMatchesResults(t *testing.T) {
	rw := newRewriter(t, traceViews(), Options{})
	q := buildQ(t, rw, telcoQ)
	rws, tr := tracedRewritings(t, rw, q)
	if len(rws) == 0 {
		t.Fatal("telco query must rewrite")
	}
	if tr.Waves == 0 || tr.Jobs == 0 || tr.MaxFrontier == 0 {
		t.Fatalf("wave bookkeeping missing: %+v", tr)
	}
	accepts := 0
	for _, c := range tr.Candidates {
		if c.View == "" {
			t.Fatalf("candidate without a view: %+v", c)
		}
		if c.Wave == 0 {
			t.Fatalf("BFS candidate without a wave number: %+v", c)
		}
		switch c.Verdict {
		case obs.VerdictAccept:
			if c.Rewriting == "" {
				t.Fatalf("accepted candidate without its rewriting: %+v", c)
			}
			if c.Reason == "" {
				accepts++
			}
		case obs.VerdictReject:
			if c.Reason == "" {
				t.Fatalf("rejected candidate without a reason: %+v", c)
			}
		case obs.VerdictDedup:
		default:
			t.Fatalf("unknown verdict %q", c.Verdict)
		}
	}
	// Every committed rewriting is an accept event with no cut reason.
	if accepts != len(rws) {
		t.Fatalf("committed accepts = %d, rewritings = %d", accepts, len(rws))
	}
	// The DISTINCT view must produce a categorical C1 rejection.
	sawC1 := false
	for _, c := range tr.Candidates {
		if c.View == "VD" && c.Verdict == obs.VerdictReject && c.Condition == "C1" {
			sawC1 = true
		}
	}
	if !sawC1 {
		t.Error("DISTINCT view was not rejected with condition C1")
	}
}

// TestTraceDeterministicAcrossWorkers pins that the recorded event
// stream, not just the result list, is byte-identical from one search to
// the next.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	render := func() string {
		rw := newRewriter(t, traceViews(), Options{})
		q := buildQ(t, rw, telcoQ)
		_, rec := tracedRewritings(t, rw, q)
		b, err := json.Marshal(struct {
			Waves, Jobs, MaxFrontier int
			Candidates               []obs.Candidate
		}{rec.Waves, rec.Jobs, rec.MaxFrontier, rec.Candidates})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if first, again := render(), render(); again != first {
		t.Fatalf("trace differs between two searches:\n%s\nvs:\n%s", again, first)
	}
}

func TestRewriteOnceTracesOutsideBFS(t *testing.T) {
	rw := newRewriter(t, map[string]string{"V1": telcoV1}, Options{})
	q := buildQ(t, rw, telcoQ)
	ctx, sp := recordingCtx()
	rws, err := rw.RewriteOnceContext(ctx, q, mustView(t, rw, "V1"))
	if err != nil {
		t.Fatal(err)
	}
	tr := sp.Snapshot()
	if len(tr.Candidates) == 0 {
		t.Fatal("RewriteOnce recorded no candidates")
	}
	for _, c := range tr.Candidates {
		if c.Wave != 0 {
			t.Fatalf("single-step candidates must stay at wave 0: %+v", c)
		}
	}
	accepts := 0
	for _, c := range tr.Candidates {
		if c.Verdict == obs.VerdictAccept {
			accepts++
		}
	}
	if accepts != len(rws) {
		t.Fatalf("accepts = %d, rewritings = %d", accepts, len(rws))
	}
}

func TestConditionOf(t *testing.T) {
	cases := []struct{ msg, want string }{
		{"condition C3: Conds' = x", "C3"},
		{"condition C2': grouping column not exposed", "C2'"},
		{"condition C3' (HAVING): leftover condition", "C3'"},
		{"condition C1 violated", "C1"},
		{"set-semantics candidate failed the containment verification", ""},
		{"internal: no such column", ""},
	}
	for _, c := range cases {
		if got := conditionOf(c.msg); got != c.want {
			t.Errorf("conditionOf(%q) = %q, want %q", c.msg, got, c.want)
		}
	}
}
