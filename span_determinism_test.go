package aggview_test

// Span determinism: the deterministic half of a request span — stage
// names and order, row counts, candidate verdict totals, budget
// consumption — must be identical at every worker count, because stages
// are recorded only on serial spines (the facade call sequence, the
// engine's serial batch-resolve loop, the rewriter's serial commit
// order). Only IDs and durations may vary; Deterministic() excludes
// them.

import (
	"context"
	"testing"

	"aggview"
	"aggview/internal/obs"
)

// spanFor runs one QueryBestContext under a fresh span and returns the span's
// deterministic rendering.
func spanFor(t *testing.T, s *aggview.System, sql string) string {
	t.Helper()
	span := obs.NewSpan("det", sql)
	ctx := obs.WithSpan(context.Background(), span)
	if _, _, err := s.QueryBestContext(ctx, sql); err != nil {
		t.Fatalf("QueryBest(%q): %v", sql, err)
	}
	span.End("ok", "")
	return span.Snapshot().Deterministic()
}

// TestSpanDeterminism compares the serial rendering against every
// worker count, for every workload the byte-determinism suite uses.
func TestSpanDeterminism(t *testing.T) {
	for _, wl := range detWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			ref := wl.build()
			ref.Opts.Workers = 1
			refs := make([]string, len(wl.queries))
			for i, sql := range wl.queries {
				refs[i] = spanFor(t, ref, sql)
				if refs[i] == "" {
					t.Fatalf("empty deterministic rendering for %q", sql)
				}
			}
			for _, w := range workerCounts {
				s := wl.build()
				s.Opts.Workers = w
				for i, sql := range wl.queries {
					if got := spanFor(t, s, sql); got != refs[i] {
						t.Errorf("workers=%d: span for %q differs from serial\nserial:\n%s\nparallel:\n%s",
							w, sql, refs[i], got)
					}
				}
			}
		})
	}
}

// TestSpanRepeatability pins that two identical serial runs produce the
// same deterministic rendering — the property the flight recorder's
// snapshot comparisons build on.
func TestSpanRepeatability(t *testing.T) {
	wl := detWorkloads()[0]
	sql := wl.queries[0]
	a := wl.build()
	a.Opts.Workers = 1
	b := wl.build()
	b.Opts.Workers = 1
	if x, y := spanFor(t, a, sql), spanFor(t, b, sql); x != y {
		t.Fatalf("identical runs rendered differently:\n%s\n---\n%s", x, y)
	}
}

// TestFacadeReadsExecuteOnce: every facade read reaches the engine through
// one facade.execute stage, which records the rows of the result; a read
// that plans (QueryBestContext, or PrepareContext and then
// ExecPreparedOnContext) also parses and searches once, and a direct read
// does neither.
func TestFacadeReadsExecuteOnce(t *testing.T) {
	const q = "SELECT cust, SUM(dur) FROM Calls GROUP BY cust"
	s := preparedFixture(t)
	rws, err := s.RewritingsContext(context.Background(), q)
	if err != nil || len(rws) == 0 {
		t.Fatalf("the fixture must have a rewriting: %v, %v", rws, err)
	}
	for _, c := range []struct {
		name  string
		read  func(ctx context.Context) (*aggview.Result, error)
		plans int
	}{
		{"QueryContext", func(ctx context.Context) (*aggview.Result, error) { return s.QueryContext(ctx, q) }, 0},
		{"QueryOnContext", func(ctx context.Context) (*aggview.Result, error) { return s.QueryOnContext(ctx, s.DB.Snapshot(), q) }, 0},
		{"ExecRewritingContext", func(ctx context.Context) (*aggview.Result, error) { return s.ExecRewritingContext(ctx, rws[0]) }, 0},
		{"QueryBestContext", func(ctx context.Context) (*aggview.Result, error) {
			res, _, err := s.QueryBestContext(ctx, q)
			return res, err
		}, 1},
		{"PrepareContext", func(ctx context.Context) (*aggview.Result, error) {
			p, err := s.PrepareContext(ctx, q)
			if err != nil {
				return nil, err
			}
			return s.ExecPreparedOnContext(ctx, p, s.Store)
		}, 1},
	} {
		sp := obs.NewSpan("", q)
		res, err := c.read(obs.WithSpan(context.Background(), sp))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stages := map[string]int{}
		var rows int64
		for _, st := range sp.Snapshot().Stages {
			stages[st.Name]++
			if st.Name == "facade.execute" {
				rows = st.Rows
			}
		}
		if stages["facade.execute"] != 1 || rows != int64(res.Len()) {
			t.Errorf("%s: %d facade.execute stages of %d rows, want 1 of %d", c.name, stages["facade.execute"], rows, res.Len())
		}
		if stages["facade.parse"] != c.plans || stages["facade.search"] != c.plans {
			t.Errorf("%s: %d facade.parse and %d facade.search stages, want %d of each", c.name, stages["facade.parse"], stages["facade.search"], c.plans)
		}
	}
}
