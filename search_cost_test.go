package aggview_test

import (
	"context"
	"fmt"
	"testing"

	"aggview/internal/obs"
)

// paperQMonth is the paper's Q narrowed to one month, as the benchmark's
// plan_cold workload sends it: Year, Month and the HAVING threshold are
// the constants it cycles.
const paperQMonth = `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = %d AND Month = %d GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < %d`

// TestSearchCostIsCandidateSized is the regression guard for a search
// that analyses each query and each view once: a cold prepare of the
// paper's Q against the six tracked views allocates a bounded amount,
// and columns the query never mentions barely add to it. (When every
// candidate asked the closure about every column pair, and each
// unmentioned column cost a refutation closure, the same prepare
// allocated ~840 KB and grew quadratically with the width of Calls.)
func TestSearchCostIsCandidateSized(t *testing.T) {
	ctx := context.Background()
	coldPrepare := func(extra ...string) uint64 {
		sys := warehouse(t, 200, extra...)
		prepare := func(threshold int) {
			p, err := sys.PrepareContext(ctx, fmt.Sprintf(paperQMonth, 1996, 3, threshold))
			if err != nil {
				t.Fatal(err)
			}
			if !p.Rewritten() {
				t.Fatal("the paper's Q must be answered from a view")
			}
		}
		prepare(5000) // first use: lazily built registries, pools
		// A fresh threshold makes every closure and key of the search new.
		return allocated(func() { prepare(5001) })
	}
	narrow := coldPrepare()
	wide := coldPrepare("X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8")
	t.Logf("bytes allocated by one cold prepare: %d with 7 Calls columns, %d with 15", narrow, wide)
	if narrow >= 300<<10 {
		t.Fatalf("one cold prepare allocated %d B, want under 300 KB", narrow)
	}
	if float64(wide) >= 1.25*float64(narrow) {
		t.Fatalf("eight unmentioned columns grew a cold prepare from %d B to %d B (%.2fx, want < 1.25x)",
			narrow, wide, float64(wide)/float64(narrow))
	}
}

// TestPlainSpanSearchCostIsVerdictSized is the guard that a request span
// which does not record candidates (the server's default) only counts
// their verdicts: a cold PrepareContext under one allocates within 5 %
// of the same call with no span. Each candidate's SQL, mapping and
// notes are rendered only for a span that keeps them (RecordCandidates).
func TestPlainSpanSearchCostIsVerdictSized(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop what the search recycles")
	}
	sys := warehouse(t, 200)
	threshold := 5000
	prepare := func(ctx context.Context) {
		// A fresh threshold makes every closure and key of the search new.
		threshold++
		p, err := sys.PrepareContext(ctx, fmt.Sprintf(paperQMonth, 1996, 3, threshold))
		if err != nil || !p.Rewritten() {
			t.Fatalf("cold prepare: rewritten=%v err=%v", p != nil && p.Rewritten(), err)
		}
	}
	prepare(context.Background()) // first use: lazily built registries, pools
	bare := testing.AllocsPerRun(50, func() { prepare(context.Background()) })
	spanned := testing.AllocsPerRun(50, func() {
		prepare(obs.WithSpan(context.Background(), obs.NewSpan("", "q")))
	})
	t.Logf("objects allocated by one cold prepare: %.0f with no span, %.0f under a plain span", bare, spanned)
	if spanned > 1.05*bare {
		t.Fatalf("a plain span grew a cold prepare from %.0f to %.0f objects (%.3fx, want at most 1.05x)",
			bare, spanned, spanned/bare)
	}
}
