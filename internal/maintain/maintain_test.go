package maintain

import (
	"context"
	"math/rand"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/value"
)

func src() ir.MapSource {
	return ir.MapSource{
		"Txns":     {"Txn_Id", "Acct_Id", "Day", "Amount"},
		"Accounts": {"Acct_Id", "Branch"},
	}
}

func setup(t *testing.T, viewSQL string) (*Maintainer, *engine.DB, *ir.Registry) {
	t.Helper()
	db := engine.NewDB()
	db.Put("Txns", engine.NewRelation("Txn_Id", "Acct_Id", "Day", "Amount"))
	accounts := engine.NewRelation("Acct_Id", "Branch")
	for a := int64(0); a < 6; a++ {
		accounts.Add(value.Int(a), value.Int(a%2))
	}
	db.Put("Accounts", accounts)
	reg := ir.NewRegistry()
	v, err := ir.NewViewDef("V", ir.MustBuild(viewSQL, src()))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v); err != nil {
		t.Fatal(err)
	}
	return New(db, reg), db, reg
}

// check verifies the maintained materialization equals a fresh
// evaluation of the definition.
func check(t *testing.T, m *Maintainer, db *engine.DB, reg *ir.Registry) {
	t.Helper()
	if !m.Tracks("V") {
		t.Fatal("view not tracked")
	}
	got, _ := db.Get("V")
	v, _ := reg.Get("V")
	want, err := engine.NewEvaluator(db, reg).ExecContext(context.Background(), v.Def)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.ResultsEqualBag(got, want) {
		t.Fatalf("maintained view diverged\nmaintained:\n%s\nrecomputed:\n%s", got.Sorted(), want.Sorted())
	}
}

func txn(id, acct, day, amount int64) []value.Value {
	return []value.Value{value.Int(id), value.Int(acct), value.Int(day), value.Int(amount)}
}

func TestIncrementalSumCountMinMax(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), COUNT(Amount), MIN(Amount), MAX(Amount) FROM Txns GROUP BY Acct_Id")
	inc, err := m.TrackContext(ctx, "V")
	if err != nil {
		t.Fatal(err)
	}
	if !inc {
		t.Fatal("SUM/COUNT/MIN/MAX view should be incremental")
	}
	rng := rand.New(rand.NewSource(3))
	id := int64(0)
	for batch := 0; batch < 10; batch++ {
		var rows [][]value.Value
		for i := 0; i < 1+rng.Intn(5); i++ {
			rows = append(rows, txn(id, int64(rng.Intn(4)), int64(1+rng.Intn(5)), int64(rng.Intn(100)-20)))
			id++
		}
		if err := m.InsertContext(ctx, "Txns", rows...); err != nil {
			t.Fatal(err)
		}
		check(t, m, db, reg)
	}
}

func TestIncrementalJoinView(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Branch, SUM(Amount), COUNT(Amount) FROM Txns, Accounts WHERE Txns.Acct_Id = Accounts.Acct_Id GROUP BY Branch")
	inc, err := m.TrackContext(ctx, "V")
	if err != nil {
		t.Fatal(err)
	}
	if !inc {
		t.Fatal("join view with mergeable aggregates should be incremental")
	}
	for i := int64(0); i < 20; i++ {
		if err := m.InsertContext(ctx, "Txns", txn(i, i%6, 1, i*3)); err != nil {
			t.Fatal(err)
		}
	}
	check(t, m, db, reg)
	// New groups appear when a new branch's account first transacts.
	got, _ := db.Get("V")
	if got.Len() != 2 {
		t.Fatalf("expected 2 branch groups, got %d", got.Len())
	}
}

func TestConjunctiveViewAppends(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Txn_Id, Amount FROM Txns WHERE Amount > 10")
	inc, err := m.TrackContext(ctx, "V")
	if err != nil {
		t.Fatal(err)
	}
	if !inc {
		t.Fatal("conjunctive view should maintain by appending deltas")
	}
	if err := m.InsertContext(ctx, "Txns", txn(1, 0, 1, 5), txn(2, 0, 1, 50)); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
	got, _ := db.Get("V")
	if got.Len() != 1 {
		t.Fatalf("only the >10 row should appear: %s", got)
	}
}

func TestAvgIsIncremental(t *testing.T) {
	// Counting maintenance carries SUM and multiplicity per group, so
	// AVG — non-mergeable under v1's value-merge scheme — now absorbs
	// deltas incrementally.
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Acct_Id, AVG(Amount) FROM Txns GROUP BY Acct_Id")
	inc, err := m.TrackContext(ctx, "V")
	if err != nil {
		t.Fatal(err)
	}
	if !inc {
		t.Fatal("AVG views should maintain incrementally under counting")
	}
	if err := m.InsertContext(ctx, "Txns", txn(1, 0, 1, 10), txn(2, 0, 1, 20)); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
	got, _ := db.Get("V")
	if got.Len() != 1 || got.Tuples[0][1].AsFloat() != 15 {
		t.Fatalf("AVG delta wrong: %s", got)
	}
	if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Deletes: [][]value.Value{txn(1, 0, 1, 10)}}); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
	got, _ = db.Get("V")
	if got.Len() != 1 || got.Tuples[0][1].AsFloat() != 20 {
		t.Fatalf("AVG delete delta wrong: %s", got)
	}
}

func TestHavingFallsBackToRecompute(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Acct_Id, COUNT(Amount) FROM Txns GROUP BY Acct_Id HAVING COUNT(Amount) > 1")
	inc, err := m.TrackContext(ctx, "V")
	if err != nil {
		t.Fatal(err)
	}
	if inc {
		t.Fatal("HAVING views are not insert-monotone")
	}
	if err := m.InsertContext(ctx, "Txns", txn(1, 0, 1, 10)); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
	if err := m.InsertContext(ctx, "Txns", txn(2, 0, 1, 10)); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
	got, _ := db.Get("V")
	if got.Len() != 1 {
		t.Fatalf("group should appear once COUNT exceeds 1: %s", got)
	}
}

func TestSelfJoinRecomputes(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT t.Acct_Id, COUNT(u.Amount) FROM Txns t, Txns u WHERE t.Acct_Id = u.Acct_Id GROUP BY t.Acct_Id")
	if _, err := m.TrackContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	// The table occurs twice: deltas have cross terms, so the maintainer
	// must recompute — and stay correct.
	for i := int64(0); i < 6; i++ {
		if err := m.InsertContext(ctx, "Txns", txn(i, i%2, 1, 10)); err != nil {
			t.Fatal(err)
		}
		check(t, m, db, reg)
	}
}

func TestUntrackedTableUnaffected(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.TrackContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	// Inserting into Accounts must not disturb the Txns-only view.
	if err := m.InsertContext(ctx, "Accounts", []value.Value{value.Int(99), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
}

func TestErrors(t *testing.T) {
	ctx := context.Background()
	m, _, _ := setup(t, "SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.TrackContext(ctx, "Nope"); err == nil {
		t.Error("unknown view should fail")
	}
	if err := m.InsertContext(ctx, "Nope", txn(1, 1, 1, 1)); err == nil {
		t.Error("unknown table should fail")
	}
	if err := m.InsertContext(ctx, "Txns", []value.Value{value.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if m.Tracks("V") {
		t.Error("untracked view should not report as tracked")
	}
	if mode, _ := m.Mode("V"); mode != "" {
		t.Error("untracked view should not report a mode")
	}
}

func TestIsIncremental(t *testing.T) {
	m, _, _ := setup(t, "SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.TrackContext(context.Background(), "V"); err != nil {
		t.Fatal(err)
	}
	if mode, reason := m.Mode("V"); mode != "incremental" || reason != "" {
		t.Errorf("tracked SUM view is %q (%q), want incremental", mode, reason)
	}
}

// TestModeNamesEveryFallback pins that no fallback is anonymous: each
// shape classify rejects, and each table-level fallback, reaches the
// operator as a named reason through Mode — and the recomputation it
// announces is what a change then does.
func TestModeNamesEveryFallback(t *testing.T) {
	ctx := context.Background()
	ungrouped := ir.MustBuild("SELECT Acct_Id, Day, SUM(Amount) FROM Txns GROUP BY Acct_Id, Day", src())
	ungrouped.GroupBy = ungrouped.GroupBy[:1] // Day stays selected, bare
	shapes := []struct {
		def  *ir.Query
		want Fallback
	}{
		{ir.MustBuild("SELECT DISTINCT Acct_Id, Day FROM Txns", src()), FallbackDistinct},
		{ir.MustBuild("SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id HAVING SUM(Amount) > 10", src()), FallbackHaving},
		{ir.MustBuild("SELECT Acct_Id, MAX(Amount * Day) FROM Txns GROUP BY Acct_Id", src()), FallbackMinMaxArg},
		{ungrouped, FallbackBareItem},
		{ir.MustBuild("SELECT Acct_Id, SUM(Amount) / COUNT(Amount) FROM Txns GROUP BY Acct_Id", src()), FallbackComputed},
		{ir.MustBuild("SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id, Day", src()), FallbackLossyKey},
		{ir.MustBuild("SELECT Acct_Id, Day, SUM(Amount), MIN(Amount) FROM Txns GROUP BY Acct_Id, Day", src()), ""},
		{ir.MustBuild("SELECT Acct_Id, Amount FROM Txns WHERE Day > 2", src()), ""},
	}
	for _, sh := range shapes {
		if got := classify(sh.def, &state{}); got != sh.want {
			t.Errorf("classify(%s) = %q, want %q", sh.def, got, sh.want)
		}
	}

	tracked := []struct {
		sql, mode, reason string
	}{
		{"SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id", "incremental", ""},
		{"SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id HAVING SUM(Amount) > 10", "recompute", "having"},
		{"SELECT T1.Acct_Id, SUM(T2.Amount) FROM Txns T1, Txns T2 WHERE T1.Txn_Id = T2.Txn_Id GROUP BY T1.Acct_Id", "recompute", "self-join"},
		{"SELECT Acct_Id, SUM(Total) FROM Inner_V GROUP BY Acct_Id", "recompute", "view-over-view"},
	}
	for _, tc := range tracked {
		db := engine.NewDB()
		db.Put("Txns", engine.NewRelation("Txn_Id", "Acct_Id", "Day", "Amount"))
		reg := ir.NewRegistry()
		source := src()
		for _, def := range []struct{ name, sql string }{
			{"Inner_V", "SELECT Acct_Id, Day, SUM(Amount) AS Total FROM Txns GROUP BY Acct_Id, Day"},
			{"V", tc.sql},
		} {
			v, err := ir.NewViewDef(def.name, ir.MustBuild(def.sql, source))
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Add(v); err != nil {
				t.Fatal(err)
			}
			source[def.name] = v.OutCols
		}
		m := New(db, reg)
		m.Metrics = obs.NewMetrics()
		if _, err := m.TrackContext(ctx, "V"); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if mode, reason := m.Mode("V"); mode != tc.mode || reason != tc.reason {
			t.Errorf("%s: Mode = %q, %q, want %q, %q", tc.sql, mode, reason, tc.mode, tc.reason)
		}
		if got := m.Tracked(); len(got) != 1 || got[0] != "V" {
			t.Errorf("Tracked() = %v", got)
		}
		if err := m.InsertContext(ctx, "Txns", txn(1, 2, 3, 40)); err != nil {
			t.Fatal(err)
		}
		check(t, m, db, reg)
		if fell := m.Metrics.Volatile("maintain.fallback.full").Load() > 0; fell != (tc.mode == "recompute") {
			t.Errorf("%s: mode %s but fallback.full ticked=%v", tc.sql, tc.mode, fell)
		}
	}
}

// Long randomized soak: interleave inserts into both tables across
// several tracked shapes and compare against recomputation at each step.
func TestRandomizedSoak(t *testing.T) {
	ctx := context.Background()
	shapes := []string{
		"SELECT Acct_Id, Day, SUM(Amount), COUNT(Amount) FROM Txns GROUP BY Acct_Id, Day",
		"SELECT Branch, MIN(Amount), MAX(Amount), COUNT(Amount) FROM Txns, Accounts WHERE Txns.Acct_Id = Accounts.Acct_Id GROUP BY Branch",
		"SELECT Day, COUNT(Txn_Id) FROM Txns WHERE Amount > 0 GROUP BY Day",
	}
	for _, sql := range shapes {
		m, db, reg := setup(t, sql)
		if _, err := m.TrackContext(ctx, "V"); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for step := int64(0); step < 40; step++ {
			if rng.Intn(5) == 0 {
				if err := m.InsertContext(ctx, "Accounts", []value.Value{value.Int(100 + step), value.Int(step % 3)}); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := m.InsertContext(ctx, "Txns", txn(step, int64(rng.Intn(6)), int64(1+rng.Intn(3)), int64(rng.Intn(60)-10))); err != nil {
					t.Fatal(err)
				}
			}
			check(t, m, db, reg)
		}
	}
}
