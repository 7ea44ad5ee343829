package aggview_test

import (
	"math/rand"
	"testing"

	"aggview"
	"aggview/internal/engine"
)

// scanShape is one of the benchmark's base_scan templates: a query no
// view is asked to answer, run directly over all of Calls.
type scanShape struct{ name, sql string }

// scanShapes adds the benchmark's 500-row Customer table to a warehouse
// and returns the four base_scan shapes: group every row by Day; filter
// half of Calls by Day and join Customer; MAX under a Charge range; COUNT
// for one Day.
func scanShapes(t testing.TB, sys *aggview.System) []scanShape {
	t.Helper()
	sys.MustLoad(`CREATE TABLE Customer(Cust_Id, Area_Code) KEY(Cust_Id);`)
	rng := rand.New(rand.NewSource(3))
	cust := engine.NewRelation("Cust_Id", "Area_Code")
	for c := 0; c < 500; c++ {
		cust.Add(aggview.Int(int64(c)), aggview.Int(int64(200+rng.Intn(40))))
	}
	if err := sys.SetRelation("Customer", cust); err != nil {
		t.Fatal(err)
	}
	return []scanShape{
		{"by_day", `SELECT Day, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Day`},
		{"charge_range", `SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Charge >= 500 AND Charge < 1500 GROUP BY Plan_Id`},
		{"one_day", `SELECT Month, COUNT(Call_Id) FROM Calls WHERE Day = 7 GROUP BY Month`},
		{"area_join", `SELECT Area_Code, SUM(Charge) FROM Calls, Customer WHERE Calls.Cust_Id = Customer.Cust_Id AND Day <= 14 GROUP BY Area_Code`},
	}
}

// TestScanCostIsResultSized is the regression guard for the one-pass
// aggregation pipeline: a warm scan-filter-fold over Calls allocates its
// per-morsel partials and its result, not copies of the columns it
// reads — so it stays far under the table's size and barely grows with
// it — and a join allocates index vectors over the matched rows, not
// gathered columns of both sides.
func TestScanCostIsResultSized(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100000-row warehouse")
	}
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop what the pipeline recycles")
	}
	perQuery := func(calls int) map[string]uint64 {
		sys := warehouse(t, calls)
		out := map[string]uint64{}
		for _, sh := range scanShapes(t, sys) {
			run := func() {
				if res, err := sys.Query(sh.sql); err != nil || res.Len() == 0 {
					t.Fatalf("%s: empty result or error: %v", sh.name, err)
				}
			}
			run() // warm: pooled scratch, lazily built registries
			const reps = 8
			out[sh.name] = allocated(func() {
				for i := 0; i < reps; i++ {
					run()
				}
			}) / reps
		}
		return out
	}
	small, large := perQuery(10_000), perQuery(100_000)
	t.Logf("bytes allocated per warm query at 10000 rows: %v", small)
	t.Logf("bytes allocated per warm query at 100000 rows: %v", large)
	for _, name := range []string{"by_day", "charge_range", "one_day"} {
		if large[name] >= 256<<10 {
			t.Errorf("%s over 100000 rows allocated %d B, want under 256 KB", name, large[name])
		}
		if float64(large[name]) >= 1.5*float64(small[name]) {
			t.Errorf("%s grew from %d B at 10000 rows to %d B at 100000 (want < 1.5x): the scan copies what it reads",
				name, small[name], large[name])
		}
	}
	if large["area_join"] >= 1536<<10 {
		t.Errorf("area_join over 100000 rows allocated %d B, want under 1.5 MB", large["area_join"])
	}
}
