package aggview_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/engine"
)

// warehouseViews names the six views warehouse tracks.
var warehouseViews = []string{"V1", "VPlanMonth", "VCust", "VSel96", "VYear", "VRange"}

// warehouse loads Example 1.1's Calls table at the given size with six
// tracked views of the shapes the benchmark maintains (join, SUM/COUNT,
// MAX, selective, coarse, MIN/MAX). Extra columns widen Calls beyond
// what any view or query mentions.
func warehouse(t testing.TB, calls int, extra ...string) *aggview.System {
	t.Helper()
	sys := untrackedWarehouse(t, calls, extra...)
	for _, v := range warehouseViews {
		if inc, err := sys.TrackViewContext(context.Background(), v); err != nil || !inc {
			t.Fatalf("tracking %s: incremental=%v err=%v", v, inc, err)
		}
	}
	return sys
}

// untrackedWarehouse is warehouse with its six views declared, none of
// them tracked.
func untrackedWarehouse(t testing.TB, calls int, extra ...string) *aggview.System {
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
	if err := sys.InsertContext(context.Background(), "Calling_Plans", plans.Tuples...); err != nil {
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
	if err := sys.InsertContext(context.Background(), "Calls", rel.Tuples...); err != nil {
		t.Fatal(err)
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
// writes. With six tracked views, what a 16-row insert, an 8-row delete
// and an 8-row update of recently inserted rows allocate does not depend
// on how many rows the table already holds: each is within 2x of the
// same statement at a tenth of the size, and the delete and the update
// stay under 256 KB at 100000 rows — the maintenance of the six views,
// one pointer per chunk and column, and the chunks the statement
// reaches: the last chunk of every column for the delete (a drop
// rewrites from its first position's chunk to the end), one chunk of the
// assigned column for the update. Before storage was chunked these two
// copied every column (6.67 MB) and one whole column (1.13 MB). The
// worst case keeps the old bound: deleting the table's first rows
// rewrites every chunk once, so it allocates about one typed copy of the
// columns and must stay under twice their bytes — not boxed rows, key
// strings or a rebuilt column image. The insert, averaged over 64 of
// them, and the update, averaged over 8, have bounds of their own at
// 100000 rows: under 55 800 B and 50 800 B, 1.25x what they measure
// since the engine's scratch is sized to the rows a morsel reads and a
// one-morsel match keeps a selection of its survivors (insert 44 600 B,
// update 39 500-40 600 B). Five updates measured alone lie within 1.25x
// of each other (38 400-43 600 B): whether the engine's pooled scratch
// survived the collector run before the measurement moves one by the
// rows its match read, not by a whole scratch (38 600 or 78 700 B when a
// pool miss made a morsel's worth of every array). The bounds were
// 56 400 B and 55 800 B once V1 looked up each row's plan on
// Calling_Plans' key instead of running a delta query and a batch kept
// its commit list (insert 45 100 B, update 40 600-44 600 B). While V1
// ran its query the bounds
// were 66 000 B each (insert 52 100-52 600 B, update 46 700-52 900 B,
// once each view kept its staging scratch across batches and an update
// shared the columns it leaves alone). Before that the insert measured
// about 100 200 B (bound 125 000) and the update 93 600-96 600 B (no
// bound of its own); the insert was 114 400-114 900 while each one-table
// view ran a delta query of its own, and 152 700 while maintenance ran a
// view's deleted and
// inserted rows and each MIN/MAX apart, boxed every result row and keyed
// groups by formatted strings.
func TestWriteCostIsDeltaSized(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100000-row warehouse")
	}
	ctx := context.Background()
	const inserts, batch = 64, 16
	type cost struct {
		insert, delete, update uint64
		single                 [5]uint64
	}
	perWrite := func(calls int) (cost, *aggview.System) {
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
		// One unmeasured insert first: the load left the last chunk room
		// to double (up to a full chunk), and the measured 64 fill it and
		// the chunks started behind it from the state a write leaves.
		insert()
		var c cost
		c.insert = allocated(func() {
			for i := 0; i < inserts; i++ {
				insert()
			}
		}) / inserts
		var n int
		var err error
		c.delete = allocated(func() {
			n, err = sys.DeleteContext(ctx, "Calls", fmt.Sprintf("Call_Id >= %d AND Call_Id < %d", next-8, next))
		})
		if err != nil || n != 8 {
			t.Fatalf("deleted %d rows, want 8 (err %v)", n, err)
		}
		// The update, like the insert, is averaged over several in a row,
		// and five more are measured alone: one update alone reads a few
		// KB more or less by whether the engine's pooled scratch survived
		// the collector run before the measurement, as the UPDATE's match
		// takes one.
		const updates = 8
		c.update = allocated(func() {
			for i := 0; i < updates; i++ {
				if n, err = sys.UpdateContext(ctx, "Calls", "Charge = Charge + 1", fmt.Sprintf("Call_Id >= %d AND Call_Id < %d", next-16, next-8)); err != nil || n != 8 {
					t.Fatalf("updated %d rows, want 8 (err %v)", n, err)
				}
			}
		}) / updates
		for i := range c.single {
			c.single[i] = allocated(func() {
				if n, err = sys.UpdateContext(ctx, "Calls", "Charge = Charge + 1", fmt.Sprintf("Call_Id >= %d AND Call_Id < %d", next-16, next-8)); err != nil || n != 8 {
					t.Fatalf("updated %d rows, want 8 (err %v)", n, err)
				}
			})
		}
		return c, sys
	}
	small, _ := perWrite(10_000)
	large, sys := perWrite(100_000)
	t.Logf("bytes allocated at 10000 rows: %+v", small)
	t.Logf("bytes allocated at 100000 rows: %+v", large)
	for _, w := range []struct {
		name         string
		small, large uint64
	}{{"16-row insert", small.insert, large.insert}, {"8-row delete", small.delete, large.delete}, {"8-row update", small.update, large.update}} {
		if w.large > 2*w.small {
			t.Errorf("a %s allocates %d B at 100000 rows against %d B at 10000: the write is not delta-sized", w.name, w.large, w.small)
		}
	}
	if large.insert >= 55_800 {
		t.Errorf("at 100000 rows a 16-row insert allocates %d B on average, want under 55800", large.insert)
	}
	if large.update >= 50_800 {
		t.Errorf("at 100000 rows an 8-row update allocates %d B on average, want under 50800", large.update)
	}
	if lo, hi := slices.Min(large.single[:]), slices.Max(large.single[:]); 4*hi > 5*lo {
		t.Errorf("at 100000 rows five single 8-row updates allocate %d to %d B, want within 1.25x of each other", lo, hi)
	}
	if large.delete >= 256<<10 || large.update >= 256<<10 {
		t.Errorf("at 100000 rows an 8-row delete allocates %d B and an 8-row update %d B, want under 256 KB each", large.delete, large.update)
	}

	tab, _, _ := sys.DB.Scan("Calls")
	var n int
	head := allocated(func() {
		var err error
		if n, err = sys.DeleteContext(ctx, "Calls", "Call_Id < 8"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes allocated by a delete of the first 8 rows: %d (table columns: %d)", head, tab.Bytes())
	if n != 8 {
		t.Fatalf("deleted %d rows, want 8", n)
	}
	if head >= 2*uint64(tab.Bytes()) {
		t.Fatalf("a delete of the first 8 rows allocated %d B, table columns hold %d B", head, tab.Bytes())
	}
}
