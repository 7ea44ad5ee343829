package maintain

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/obs"
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

// TestCallsWritesRunNoEngineQuery is the write-side twin of the facade's
// TestServedReadsBoxNothing: over the benchmark's six views, tracking
// them runs one engine execution, and a 16-row insert, an 8-row delete
// and an 8-row update of Calls run none. A Track is a write of its
// smallest once-read table: the five one-table views absorb Calls' rows
// themselves, and V1 the ten Calling_Plans rows through its delta query,
// which walks Calls once (before, each view ran a seed query over Calls,
// 6 executions). Each view absorbs the write's signed delta table itself, which
// maintain.delta.direct counts: the five one-table views its rows, V1
// its rows beside their one partner each in Calling_Plans, looked up on
// the plans' declared key, which maintain.delta.keyed counts too. A
// write to Calling_Plans still runs V1's signed delta query, whose delta
// needs the Calls rows that name the plan. Every result is read as
// columns, so engine.result.cells_boxed does not move. Before the key
// lookup each Calls write ran one execution, V1's delta query; before
// the direct path, one delta query per view, 6; before the signed delta
// table, 9 per insert or delete and 18 per update.
func TestCallsWritesRunNoEngineQuery(t *testing.T) {
	ctx := context.Background()
	m, db := warehouse(t, 3000)
	reg := m.views
	execs, boxed := m.Metrics.Counter("engine.exec"), m.Metrics.Counter("engine.result.cells_boxed")
	direct, keyed, query := m.Metrics.Volatile("maintain.delta.direct"), m.Metrics.Volatile("maintain.delta.keyed"), m.Metrics.Volatile("maintain.delta.query")
	costs := func(what string, wantExecs, wantDirect, wantKeyed, wantQuery int64, f func() error) {
		t.Helper()
		e0, b0, d0, k0, q0 := execs.Load(), boxed.Load(), direct.Load(), keyed.Load(), query.Load()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := execs.Load() - e0; n != wantExecs {
			t.Errorf("%s ran %d engine executions, want %d", what, n, wantExecs)
		}
		if n := boxed.Load() - b0; n != 0 {
			t.Errorf("%s boxed %d result cells, want 0", what, n)
		}
		if d, k, q := direct.Load()-d0, keyed.Load()-k0, query.Load()-q0; d != wantDirect || k != wantKeyed || q != wantQuery {
			t.Errorf("%s absorbed %d view deltas directly (%d keyed) and %d by query, want %d (%d) and %d", what, d, k, q, wantDirect, wantKeyed, wantQuery)
		}
	}

	costs("tracking the six views", 1, 0, 0, 0, func() error { return trackWarehouse(ctx, m) })
	rng := rand.New(rand.NewSource(2))
	inserted := make([][]value.Value, 16)
	for i := range inserted {
		inserted[i] = callRow(rng, 3000+i)
	}
	costs("a 16-row insert", 0, 6, 1, 0, func() error {
		return m.ApplyContext(ctx, Mutation{Table: "Calls", Inserts: inserted})
	})
	costs("an 8-row delete", 0, 6, 1, 0, func() error {
		return m.ApplyContext(ctx, Mutation{Table: "Calls", Deletes: inserted[8:]})
	})
	updated := make([][]value.Value, 8)
	for i, row := range inserted[:8] {
		updated[i] = append([]value.Value{}, row...)
		updated[i][6] = value.Int(row[6].AsInt() + 1)
	}
	costs("an 8-row update", 0, 6, 1, 0, func() error {
		return m.ApplyContext(ctx, Mutation{Table: "Calls", Deletes: inserted[:8], Inserts: updated})
	})
	costs("a Calling_Plans insert", 1, 0, 0, 1, func() error {
		return m.ApplyContext(ctx, Mutation{Table: "Calling_Plans", Inserts: [][]value.Value{{value.Int(10), value.Str("plan_10")}}})
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

// TestTrackingAStoredImageBoxesNothing: a view a rebuild takes as its
// definition's stored image — DISTINCT, HAVING, conjunctive — is built
// by the engine's view materialization, one execution that boxes no
// result cell, and reads as its definition. Before, Track ran ExecContext,
// boxing every cell, and built the image from the boxed rows.
func TestTrackingAStoredImageBoxesNothing(t *testing.T) {
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT DISTINCT Acct_Id, Day FROM Txns",
		"SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id HAVING SUM(Amount) > 100",
		"SELECT Txn_Id, Branch FROM Txns, Accounts WHERE Txns.Acct_Id = Accounts.Acct_Id",
	} {
		m, db, reg := setup(t, sql)
		rng := rand.New(rand.NewSource(3))
		rows := make([][]value.Value, 3000)
		for i := range rows {
			rows[i] = txn(int64(i), int64(rng.Intn(6)), int64(1+rng.Intn(5)), int64(rng.Intn(90)))
		}
		if err := m.InsertContext(ctx, "Txns", rows...); err != nil {
			t.Fatal(err)
		}
		m.Metrics = obs.NewMetrics()
		if _, err := m.TrackContext(ctx, "V"); err != nil {
			t.Fatal(err)
		}
		if e, b := m.Metrics.Counter("engine.exec").Load(), m.Metrics.Counter("engine.result.cells_boxed").Load(); e != 1 || b != 0 {
			t.Errorf("tracking %q ran %d engine executions and boxed %d cells, want 1 and 0", sql, e, b)
		}
		check(t, m, db, reg)
	}
}

// TestKeyLookupCostsUnderAKilobyte bounds what V1's lookup path adds to a
// 16-row Calls insert: each row's partner looked up in Calling_Plans and
// the plan name laid beside the rows. Measured: 888 B in 7 objects (the
// probe's sorted keys, the joined delta's header and its one gathered
// column), where the delta query it replaces allocated about 6.1 KB.
func TestKeyLookupCostsUnderAKilobyte(t *testing.T) {
	ctx := context.Background()
	m, _ := warehouse(t, 3000)
	if err := trackWarehouse(ctx, m); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rows := make([][]value.Value, 16)
	for i := range rows {
		rows[i] = callRow(rng, 3000+i)
	}
	st := m.tracked["V1"]
	calls, _, _ := m.db.Scan("Calls")
	delta := m.signedDelta(calls.Attrs(), Mutation{Table: "Calls", Inserts: rows})
	read := overlayStorage{db: m.db, staged: map[string]*staged{}}
	p := st.begin()
	absorb := func() {
		p.reset(st.groups)
		if err := p.absorbDelta(ctx, delta, st.rows["Calls"], &read); err != nil {
			t.Fatal(err)
		}
	}
	absorb() // the scratch grows once
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		absorb()
	}
	runtime.ReadMemStats(&after)
	bytes, objects := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("V1 absorbs a 16-row insert's delta in %d B, %d objects", bytes, objects)
	if bytes >= 1024 {
		t.Fatalf("V1's lookup path allocated %d B per write, want under 1024", bytes)
	}
}
