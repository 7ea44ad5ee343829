package core

import (
	"strings"
	"testing"
)

// TestExplainUsabilityUsable: the paper's Example 1.1 pairing must come
// back usable with no failures recorded for the winning view.
func TestExplainUsabilityUsable(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"V1": "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(C) FROM R1 GROUP BY A")

	us := rw.ExplainUsability(q)
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

	u := rw.ExplainUsability(q)[0]
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

	u := rw.ExplainUsability(q)[0]
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

	u := rw.ExplainUsability(q)[0]
	if u.Usable || u.Mappings != 0 {
		t.Fatalf("expected no mappings: %+v", u)
	}
	joined := strings.Join(u.Failures, "\n")
	if !strings.Contains(joined, "no column mapping") {
		t.Fatalf("failures should report the missing mapping, got:\n%s", joined)
	}
}

// TestExplainUsabilityAgreesWithRewriteOnce: on a grid of view/query
// pairs, Usable must match whether RewriteOnceContext finds a rewriting.
func TestExplainUsabilityAgreesWithRewriteOnce(t *testing.T) {
	views := map[string]string{
		"Full":  "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
		"NoCnt": "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B",
		"Plain": "SELECT A, B, C FROM R1",
	}
	queries := []string{
		"SELECT A, SUM(C) FROM R1 GROUP BY A",
		"SELECT A, COUNT(C) FROM R1 GROUP BY A",
		"SELECT A, B FROM R1",
		"SELECT A, AVG(C) FROM R1 GROUP BY A",
	}
	rw := newRewriter(t, views, Options{})
	for _, sql := range queries {
		q := buildQ(t, rw, sql)
		for _, u := range rw.ExplainUsability(q) {
			v, ok := rw.Views.Get(u.View)
			if !ok {
				t.Fatalf("unknown view %q", u.View)
			}
			got := len(mustRewriteOnce(t, rw, q, v)) > 0
			if got != u.Usable {
				t.Errorf("%s vs %s: RewriteOnce usable=%v, ExplainUsability=%v (%v)",
					sql, u.View, got, u.Usable, u.Failures)
			}
			if !u.Usable && len(u.Failures) == 0 {
				t.Errorf("%s vs %s: unusable but no failure reasons", sql, u.View)
			}
		}
	}
}
