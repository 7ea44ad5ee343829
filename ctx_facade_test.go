package aggview

import (
	"context"
	"errors"
	"testing"
	"time"

	"aggview/internal/budget"
	"aggview/internal/engine"
	"aggview/internal/obs"
)

func TestQueryContextCanceled(t *testing.T) {
	s := telcoSystem(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.QueryContext(ctx, facadeQ)
	if res != nil {
		t.Fatal("canceled query returned a partial result")
	}
	if !budget.IsCanceled(err) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want typed Canceled, got %v", err)
	}
	if _, err := s.TrackViewContext(ctx, "V1"); !budget.IsCanceled(err) {
		t.Fatalf("TrackViewContext: want Canceled, got %v", err)
	}
	if _, stored := s.DB.NumRows("V1"); stored || len(s.ViewModes()) != 0 {
		t.Fatal("a canceled TrackViewContext stored or tracked V1")
	}
	if _, err := s.RewritingsContext(ctx, facadeQ); !budget.IsCanceled(err) {
		t.Fatalf("RewritingsContext: want Canceled, got %v", err)
	}
	if _, _, err := s.QueryBestContext(ctx, facadeQ); !budget.IsCanceled(err) {
		t.Fatalf("QueryBestContext: want Canceled, got %v", err)
	}
}

// TestOptsDeadlineApplies pins that Opts.Deadline bounds a call made
// with a deadline-free ctx: every entry point that routes through opCtx
// (reads, plans, prepared execution and advice).
func TestOptsDeadlineApplies(t *testing.T) {
	ctx := context.Background()
	s := telcoSystem(t, 2000)
	p, err := s.PrepareContext(ctx, facadeQ)
	if err != nil {
		t.Fatal(err)
	}
	rws, err := s.RewritingsContext(ctx, facadeQ)
	if err != nil || len(rws) == 0 {
		t.Fatalf("want a rewriting over V1, got %d (%v)", len(rws), err)
	}
	ops := []struct {
		name string
		run  func() error
	}{
		{"QueryContext", func() error { _, err := s.QueryContext(ctx, facadeQ); return err }},
		{"RewritingsContext", func() error { _, err := s.RewritingsContext(ctx, facadeQ); return err }},
		{"PrepareContext", func() error { _, err := s.PrepareContext(ctx, facadeQ); return err }},
		{"ExecPreparedOnContext", func() error { _, err := s.ExecPreparedOnContext(ctx, p, s.Store); return err }},
		{"ExecPreparedColumns", func() error { _, err := s.ExecPreparedColumns(ctx, p, s.Store); return err }},
		{"QueryOnContext", func() error { _, err := s.QueryOnContext(ctx, s.Store, facadeQ); return err }},
		{"QueryBestContext", func() error { _, _, err := s.QueryBestContext(ctx, facadeQ); return err }},
		{"ExecRewritingContext", func() error { _, err := s.ExecRewritingContext(ctx, rws[0]); return err }},
		{"Explain", func() error { _, err := s.Explain(ctx, facadeQ); return err }},
		{"AdviseContext", func() error { _, err := s.AdviseContext(ctx, []string{facadeQ}, nil, 0); return err }},
		{"Usability", func() error { _, err := s.Usability(ctx, facadeQ); return err }},
	}
	for _, op := range ops {
		s.Opts.Deadline = time.Nanosecond
		if err := op.run(); !budget.IsCanceled(err) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: want Canceled unwrapping to DeadlineExceeded, got %v", op.name, err)
		}
		s.Opts.Deadline = time.Minute
		if err := op.run(); err != nil {
			t.Fatalf("%s: generous deadline tripped: %v", op.name, err)
		}
	}
}

// TestOptsRowBudget pins that Opts.MaxRows bounds execution under a
// budget-free ctx, with a typed Exceeded on trip and the exact unbudgeted
// bag when the budget is generous.
func TestOptsRowBudget(t *testing.T) {
	ctx := context.Background()
	s := telcoSystem(t, 2000)
	want, err := s.QueryContext(ctx, facadeQ)
	if err != nil {
		t.Fatal(err)
	}

	s.Opts.MaxRows = 10
	res, err := s.QueryContext(ctx, facadeQ)
	if res != nil {
		t.Fatal("budget-tripped query returned a partial result")
	}
	var e *budget.Exceeded
	if !errors.As(err, &e) || e.Resource != "rows" {
		t.Fatalf("want rows Exceeded, got %v", err)
	}

	s.Opts.MaxRows = 1 << 30
	got, err := s.QueryContext(ctx, facadeQ)
	if err != nil {
		t.Fatalf("generous budget tripped: %v", err)
	}
	if !engine.ResultsEqualBag(got, want) {
		t.Fatal("budgeted result differs from unbudgeted result")
	}
}

// TestPlanBudgetFallback pins the facade's graceful degradation: a
// rewrite search cut by its candidate budget does not fail PrepareContext — the
// original query wins, and the degradation is tagged in the request span
// and the metrics so the provenance of the direct answer is visible.
func TestPlanBudgetFallback(t *testing.T) {
	ctx := context.Background()
	s := telcoSystem(t, 2000)
	// A second view gives the search more candidates than the one-candidate
	// budget below, so the cut is guaranteed to fire.
	s.MustDefineView("V2", `SELECT Plan_Id, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year`)
	for _, v := range []string{"V1", "V2"} {
		if _, err := s.TrackViewContext(ctx, v); err != nil {
			t.Fatal(err)
		}
	}

	// Unbudgeted, the view-based rewriting wins.
	p, err := s.PrepareContext(ctx, facadeQ)
	if err != nil || p.Rewriting() == nil {
		t.Fatalf("fixture must plan a rewriting, got p=%v err=%v", p, err)
	}
	direct, err := s.QueryContext(ctx, facadeQ)
	if err != nil {
		t.Fatal(err)
	}

	s.Metrics = obs.NewMetrics()
	s.Opts.MaxCandidates = 1
	sp := obs.NewSpan("", facadeQ)
	p, err = s.PrepareContext(obs.WithSpan(ctx, sp), facadeQ)
	if err != nil {
		t.Fatalf("budget-cut Prepare must not fail: %v", err)
	}
	if r := p.Rewriting(); r != nil {
		t.Fatalf("budget-cut Prepare returned a rewriting: %v", r.SQL())
	}
	var fallbacks []obs.SpanStage
	for _, st := range sp.Snapshot().Stages {
		if st.Name == "facade.fallback" {
			fallbacks = append(fallbacks, st)
		}
	}
	if len(fallbacks) != 1 || fallbacks[0].Detail != "Prepare" {
		t.Fatalf("fallback provenance not recorded on the span: %+v", fallbacks)
	}
	if s.Metrics.Snapshot().Volatile["facade.fallback.budget"] == 0 {
		t.Fatal("fallback counter not incremented")
	}

	// QueryBestContext rides the same fallback: direct evaluation, nil rewriting,
	// correct bag.
	res, used, err := s.QueryBestContext(ctx, facadeQ)
	if err != nil {
		t.Fatalf("QueryBest under budget fallback failed: %v", err)
	}
	if used != nil {
		t.Fatalf("QueryBest reported a rewriting after a cut search: %v", used.SQL())
	}
	if !engine.ResultsEqualBag(res, direct) {
		t.Fatal("fallback result differs from direct evaluation")
	}
}

// TestQueryBestContextSharedPool pins that the search and the execution
// draw from one meter: a caller-supplied pool that survives the search
// is drained further by execution.
func TestQueryBestContextSharedPool(t *testing.T) {
	s := telcoSystem(t, 2000)
	if _, err := s.TrackViewContext(context.Background(), "V1"); err != nil {
		t.Fatal(err)
	}
	want, wantUsed, err := s.QueryBestContext(context.Background(), facadeQ)
	if err != nil {
		t.Fatal(err)
	}

	m := budget.NewMeter(budget.Limits{MaxRows: 1 << 30, MaxCandidates: 1 << 20})
	ctx := budget.WithMeter(context.Background(), m)
	got, used, err := s.QueryBestContext(ctx, facadeQ)
	if err != nil {
		t.Fatalf("generous shared pool tripped: %v", err)
	}
	if (used == nil) != (wantUsed == nil) {
		t.Fatalf("budgeted plan choice differs: %v vs %v", used, wantUsed)
	}
	if !engine.ResultsEqualBag(got, want) {
		t.Fatal("budgeted QueryBest differs from unbudgeted")
	}
	if m.Candidates() == 0 {
		t.Fatal("search charged no candidates against the shared pool")
	}
	if m.Rows() == 0 {
		t.Fatal("execution charged no rows against the shared pool")
	}

	// Execution-stage row exhaustion is terminal: no cheaper strategy
	// remains, so the typed error surfaces.
	m = budget.NewMeter(budget.Limits{MaxRows: 5, MaxCandidates: 1 << 20})
	_, _, err = s.QueryBestContext(budget.WithMeter(context.Background(), m), facadeQ)
	if !budget.IsExceeded(err) {
		t.Fatalf("want rows Exceeded from execution, got %v", err)
	}
}
