package aggview_test

import (
	"context"
	"fmt"
	"testing"
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
