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
