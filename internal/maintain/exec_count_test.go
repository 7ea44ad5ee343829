package maintain

import (
	"context"
	"math/rand"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/value"
)

// warehouseViews are the six views the benchmark tracks over Calls, one
// of them joined with Calling_Plans and two with MIN/MAX outputs.
var warehouseViews = []struct{ name, sql string }{
	{"V1", "SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Calls.Plan_Id, Plan_Name, Month, Year"},
	{"VPlanMonth", "SELECT Plan_Id, Month, Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month, Year"},
	{"VCust", "SELECT Cust_Id, SUM(Charge), COUNT(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id"},
	{"VSel96", "SELECT Plan_Id, Month, SUM(Charge) FROM Calls WHERE Year = 1996 GROUP BY Plan_Id, Month"},
	{"VYear", "SELECT Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Year"},
	{"VRange", "SELECT Plan_Id, Year, MIN(Charge), MAX(Charge) FROM Calls GROUP BY Plan_Id, Year"},
}

func callRow(rng *rand.Rand, id int) []value.Value {
	return []value.Value{
		value.Int(int64(id)), value.Int(int64(rng.Intn(500))), value.Int(int64(rng.Intn(10))),
		value.Int(int64(1 + rng.Intn(28))), value.Int(int64(1 + rng.Intn(12))), value.Int(int64(1994 + rng.Intn(3))),
		value.Int(int64(1 + rng.Intn(2000))),
	}
}

// TestWritesQueryOnlyForTheJoinedView is the write-side twin of the
// facade's TestServedReadsBoxNothing: over the benchmark's six views,
// tracking them runs one engine execution per view (its seed query),
// and a 16-row insert, an 8-row delete and an 8-row update of Calls each
// run exactly one: V1's signed delta query, the one view that joins. The
// five one-table views absorb the write's signed delta table
// themselves, which maintain.delta.direct counts, V1's query counting on
// maintain.delta.query. Every result is read as columns, so
// engine.result.cells_boxed does not move. Before the direct path each
// write ran one delta query per view, 6; before the signed delta table,
// 9 per insert or delete and 18 per update.
func TestWritesQueryOnlyForTheJoinedView(t *testing.T) {
	ctx := context.Background()
	m, db := warehouse(t, 3000)
	reg := m.views
	execs, boxed := m.Metrics.Counter("engine.exec"), m.Metrics.Counter("engine.result.cells_boxed")
	direct, query := m.Metrics.Volatile("maintain.delta.direct"), m.Metrics.Volatile("maintain.delta.query")
	costs := func(what string, wantExecs, wantDirect, wantQuery int64, f func() error) {
		t.Helper()
		e0, b0, d0, q0 := execs.Load(), boxed.Load(), direct.Load(), query.Load()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := execs.Load() - e0; n != wantExecs {
			t.Errorf("%s ran %d engine executions, want %d", what, n, wantExecs)
		}
		if n := boxed.Load() - b0; n != 0 {
			t.Errorf("%s boxed %d result cells, want 0", what, n)
		}
		if d, q := direct.Load()-d0, query.Load()-q0; d != wantDirect || q != wantQuery {
			t.Errorf("%s absorbed %d view deltas directly and %d by query, want %d and %d", what, d, q, wantDirect, wantQuery)
		}
	}

	costs("tracking the six views", int64(len(warehouseViews)), 0, 0, func() error { return trackWarehouse(ctx, m) })
	rng := rand.New(rand.NewSource(2))
	inserted := make([][]value.Value, 16)
	for i := range inserted {
		inserted[i] = callRow(rng, 3000+i)
	}
	costs("a 16-row insert", 1, 5, 1, func() error {
		return m.ApplyContext(ctx, Mutation{Table: "Calls", Inserts: inserted})
	})
	costs("an 8-row delete", 1, 5, 1, func() error {
		return m.ApplyContext(ctx, Mutation{Table: "Calls", Deletes: inserted[8:]})
	})
	updated := make([][]value.Value, 8)
	for i, row := range inserted[:8] {
		updated[i] = append([]value.Value{}, row...)
		updated[i][6] = value.Int(row[6].AsInt() + 1)
	}
	costs("an 8-row update", 1, 5, 1, func() error {
		return m.ApplyContext(ctx, Mutation{Table: "Calls", Deletes: inserted[:8], Inserts: updated})
	})

	for _, v := range warehouseViews {
		def, _ := reg.Get(v.name)
		want, err := engine.NewEvaluator(db, reg).ExecContext(ctx, def.Def)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := db.Get(v.name); !engine.ResultsEqualBag(got, want) {
			t.Errorf("%s diverged from its definition", v.name)
		}
	}
}
