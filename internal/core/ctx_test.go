package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"aggview/internal/budget"
	"aggview/internal/faultinject"
	"aggview/internal/ir"
)

// searchFixture builds a rewriter whose search analyzes several
// candidates across multiple views, so budgets and injection have
// something to interrupt.
func searchFixture(t *testing.T, opts Options) (*Rewriter, *ir.Query) {
	t.Helper()
	rw := newRewriter(t, map[string]string{
		"V1": "SELECT A, SUM(C), COUNT(C) FROM R1 GROUP BY A",
		"V2": "SELECT A, B, C FROM R1 WHERE D = 5",
		"V3": "SELECT E, F FROM R2",
	}, opts)
	q := ir.MustBuild("SELECT A, SUM(C) FROM R1 WHERE D = 5 GROUP BY A", ir.MultiSource{tables(), rw.Views})
	return rw, q
}

func renderRws(rws []*Rewriting) string {
	parts := make([]string, len(rws))
	for i, r := range rws {
		parts[i] = strings.Join(r.Used, "+") + ": " + r.SQL()
	}
	return strings.Join(parts, "\n")
}

func TestRewritingsContextPreCanceled(t *testing.T) {
	rw, q := searchFixture(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rws, err := rw.RewritingsContext(ctx, q)
	if rws != nil {
		t.Fatal("canceled search returned partial results")
	}
	if !budget.IsCanceled(err) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want typed Canceled, got %v", err)
	}
	if _, err := rw.RewriteOnceContext(ctx, q, mustView(t, rw, "V1")); !budget.IsCanceled(err) {
		t.Fatalf("RewriteOnceContext: want Canceled, got %v", err)
	}
}

func TestRewritingsContextCandidateBudget(t *testing.T) {
	rw, q := searchFixture(t, Options{})
	baseline := mustRewritings(t, rw, q)
	if len(baseline) == 0 {
		t.Fatal("fixture produces no rewritings")
	}

	// A one-candidate budget trips with a typed Exceeded and no partial
	// result list.
	m := budget.NewMeter(budget.Limits{MaxCandidates: 1})
	rws, err := rw.RewritingsContext(budget.WithMeter(context.Background(), m), q)
	if rws != nil {
		t.Fatal("budget-tripped search returned partial results")
	}
	var e *budget.Exceeded
	if !errors.As(err, &e) || e.Resource != "candidates" || e.Limit != 1 {
		t.Fatalf("want candidates Exceeded with limit 1, got %v", err)
	}

	// A generous budget reproduces the unbudgeted enumeration exactly.
	m = budget.NewMeter(budget.Limits{MaxCandidates: 1 << 20})
	rws, err = rw.RewritingsContext(budget.WithMeter(context.Background(), m), q)
	if err != nil {
		t.Fatalf("generous budget tripped: %v", err)
	}
	if renderRws(rws) != renderRws(baseline) {
		t.Fatal("budgeted enumeration differs from unbudgeted")
	}
	if m.Candidates() == 0 {
		t.Fatal("meter charged no candidates")
	}
}

// TestRewritingsContextBudgetWorkerIndependent pins the outcome of a
// candidate budget at each limit: a trip is a typed Exceeded naming the
// limit with no partial results, a success is the unbudgeted
// enumeration.
func TestRewritingsContextBudgetWorkerIndependent(t *testing.T) {
	rwRef, qRef := searchFixture(t, Options{})
	baseline := renderRws(mustRewritings(t, rwRef, qRef))
	for _, limit := range []int64{1, 3, 1 << 20} {
		rw, q := searchFixture(t, Options{})
		m := budget.NewMeter(budget.Limits{MaxCandidates: limit})
		rws, err := rw.RewritingsContext(budget.WithMeter(context.Background(), m), q)
		if err != nil {
			var e *budget.Exceeded
			if !errors.As(err, &e) || e.Resource != "candidates" || e.Limit != limit || rws != nil {
				t.Fatalf("limit %d: want candidates Exceeded and no results, got %v (%d results)", limit, err, len(rws))
			}
			continue
		}
		if renderRws(rws) != baseline {
			t.Fatalf("limit %d: enumeration differs from unbudgeted", limit)
		}
	}
}

// TestRewritingsContextFaultInjection cancels the search at the k-th
// analyzed candidate and asserts the contract: either the full correct
// enumeration or a typed Canceled error — never a partial result list.
func TestRewritingsContextFaultInjection(t *testing.T) {
	rwRef, qRef := searchFixture(t, Options{})
	baseline := renderRws(mustRewritings(t, rwRef, qRef))
	for _, k := range []int64{1, 2, 3, 5, 8, 100} {
		rw, q := searchFixture(t, Options{})
		in := faultinject.New(faultinject.SiteCandidate, k)
		ctx, cancel := in.Arm(context.Background())
		rws, err := rw.RewritingsContext(ctx, q)
		if err != nil {
			if !budget.IsCanceled(err) {
				t.Fatalf("k=%d: non-typed error %v", k, err)
			}
			if rws != nil {
				t.Fatalf("k=%d: error with partial results", k)
			}
		} else if renderRws(rws) != baseline {
			t.Fatalf("k=%d: enumeration differs under injection", k)
		}
		cancel()
	}
}
