package aggview_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/engine"
)

// warehouse loads Example 1.1's Calls table at the given size with six
// tracked views of the shapes the benchmark maintains (join, SUM/COUNT,
// MAX, selective, coarse, MIN/MAX). Extra columns widen Calls beyond
// what any view or query mentions.
func warehouse(t testing.TB, calls int, extra ...string) *aggview.System {
	t.Helper()
	cols := append([]string{"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge"}, extra...)
	sys := aggview.New()
	sys.MustLoad(`
		CREATE TABLE Calling_Plans(Plan_Id, Plan_Name) KEY(Plan_Id);
		CREATE TABLE Calls(` + strings.Join(cols, ", ") + `) KEY(Call_Id);
		CREATE VIEW V1 AS SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Calls.Plan_Id, Plan_Name, Month, Year;
		CREATE VIEW VPlanMonth AS SELECT Plan_Id, Month, Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month, Year;
		CREATE VIEW VCust AS SELECT Cust_Id, SUM(Charge), COUNT(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id;
		CREATE VIEW VSel96 AS SELECT Plan_Id, Month, SUM(Charge) FROM Calls WHERE Year = 1996 GROUP BY Plan_Id, Month;
		CREATE VIEW VYear AS SELECT Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Year;
		CREATE VIEW VRange AS SELECT Plan_Id, Year, MIN(Charge), MAX(Charge) FROM Calls GROUP BY Plan_Id, Year;
	`)
	plans := engine.NewRelation("Plan_Id", "Plan_Name")
	for p := 0; p < 10; p++ {
		plans.Add(aggview.Int(int64(p)), aggview.Str(fmt.Sprintf("plan_%02d", p)))
	}
	if err := sys.SetRelation("Calling_Plans", plans); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rel := engine.NewRelation(cols...)
	for i := 0; i < calls; i++ {
		row := callRow(rng, i)
		for range extra {
			row = append(row, aggview.Int(int64(i)))
		}
		rel.Tuples = append(rel.Tuples, row)
	}
	if err := sys.SetRelation("Calls", rel); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"V1", "VPlanMonth", "VCust", "VSel96", "VYear", "VRange"} {
		if inc, err := sys.TrackView(v); err != nil || !inc {
			t.Fatalf("tracking %s: incremental=%v err=%v", v, inc, err)
		}
	}
	return sys
}

func callRow(rng *rand.Rand, id int) []aggview.Value {
	return []aggview.Value{
		aggview.Int(int64(id)), aggview.Int(int64(rng.Intn(500))), aggview.Int(int64(rng.Intn(10))),
		aggview.Int(int64(1 + rng.Intn(28))), aggview.Int(int64(1 + rng.Intn(12))), aggview.Int(int64(1994 + rng.Intn(3))),
		aggview.Int(int64(1 + rng.Intn(2000))),
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWriteCostIsDeltaSized is the regression guard for delta-sized
// writes: with six tracked views, what a 16-row insert allocates does
// not depend on how many rows the table already holds, and an 8-row
// delete allocates on the order of one typed copy of the table's
// columns — not boxed rows, key strings or a rebuilt column image.
func TestWriteCostIsDeltaSized(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100000-row warehouse")
	}
	ctx := context.Background()
	const inserts, batch = 64, 16
	perInsert := func(calls int) (uint64, *aggview.System) {
		sys := warehouse(t, calls)
		rng := rand.New(rand.NewSource(2))
		next := calls
		insert := func() {
			rows := make([][]aggview.Value, batch)
			for r := range rows {
				rows[r] = callRow(rng, next)
				next++
			}
			if err := sys.InsertContext(ctx, "Calls", rows...); err != nil {
				t.Fatal(err)
			}
		}
		// The vectors SetRelation built are exactly sized, so the first
		// insert pays the one geometric regrowth; the next 64 fit the
		// spare capacity it left at either size.
		insert()
		total := allocated(func() {
			for i := 0; i < inserts; i++ {
				insert()
			}
		})
		return total / inserts, sys
	}
	small, _ := perInsert(10_000)
	large, sys := perInsert(100_000)
	t.Logf("bytes allocated per 16-row insert: %d at 10000 rows, %d at 100000 rows", small, large)
	if large > 2*small {
		t.Fatalf("a 16-row insert allocates %d B at 100000 rows against %d B at 10000: the write is not delta-sized", large, small)
	}

	tab, _, _ := sys.DB.Scan("Calls")
	var n int
	del := allocated(func() {
		var err error
		if n, err = sys.DeleteContext(ctx, "Calls", "Call_Id >= 100000 AND Call_Id < 100008"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes allocated by an 8-row delete: %d (table columns: %d)", del, tab.Bytes())
	if n != 8 {
		t.Fatalf("deleted %d rows, want 8", n)
	}
	if del >= 2*uint64(tab.Bytes()) {
		t.Fatalf("an 8-row delete allocated %d B, table columns hold %d B", del, tab.Bytes())
	}
}
