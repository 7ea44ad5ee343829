package aggview_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"aggview"
	"aggview/internal/engine"
)

func preparedFixture(t *testing.T) *aggview.System {
	ctx := context.Background()
	t.Helper()
	s := aggview.New()
	s.MustLoad(`
		CREATE TABLE Calls(cust, dur, toll);
		CREATE VIEW ByCust AS SELECT cust, SUM(dur), COUNT(dur) FROM Calls GROUP BY cust
	`)
	if err := s.InsertContext(ctx, "Calls",
		[]aggview.Value{aggview.Int(1), aggview.Int(10), aggview.Int(2)},
		[]aggview.Value{aggview.Int(1), aggview.Int(20), aggview.Int(3)},
		[]aggview.Value{aggview.Int(2), aggview.Int(5), aggview.Int(1)},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "ByCust"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPrepareExecMatchesQuery pins the extracted plan API the serving
// layer caches: a Prepared plan executes to exactly what the one-shot
// path answers, on both rewritten and direct shapes.
func TestPrepareExecMatchesQuery(t *testing.T) {
	s := preparedFixture(t)
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT cust, SUM(dur) FROM Calls GROUP BY cust", // rewritable over ByCust
		"SELECT cust, toll FROM Calls",                   // direct
	} {
		p, err := s.PrepareContext(ctx, sql)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", sql, err)
		}
		got, err := s.ExecPreparedOnContext(ctx, p, s.Store)
		if err != nil {
			t.Fatalf("ExecPrepared(%q): %v", sql, err)
		}
		want, err := s.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.ResultsEqualBag(want, got) {
			t.Fatalf("%s: prepared answer differs from direct\nwant %v\ngot %v", sql, want, got)
		}
	}
}

// TestPreparedReadsCurrentState pins execution-time reads: a plan
// prepared before an insert answers with the post-insert state, because
// Prepared captures the plan, not the data.
func TestPreparedReadsCurrentState(t *testing.T) {
	s := preparedFixture(t)
	ctx := context.Background()
	const sql = "SELECT cust, toll FROM Calls"
	p, err := s.PrepareContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.ExecPreparedOnContext(ctx, p, s.Store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertContext(context.Background(), "Calls", []aggview.Value{aggview.Int(3), aggview.Int(7), aggview.Int(9)}); err != nil {
		t.Fatal(err)
	}
	after, err := s.ExecPreparedOnContext(ctx, p, s.Store)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != before.Len()+1 {
		t.Fatalf("prepared plan answered stale data: before=%d after=%d", before.Len(), after.Len())
	}
}

// TestPlanKeyCanonical pins that PlanKey is invariant under the
// respellings the canonical renderer normalizes (FROM order), and
// distinguishes genuinely different queries.
func TestPlanKeyCanonical(t *testing.T) {
	s := aggview.New()
	s.MustLoad(`
		CREATE TABLE A(x, y);
		CREATE TABLE B(z, w)
	`)
	k1, err := s.PlanKey("SELECT x, z FROM A, B WHERE x = z")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.PlanKey("SELECT x, z FROM B, A WHERE x = z")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("FROM reordering changed the key:\n%s\n%s", k1, k2)
	}
	k3, err := s.PlanKey("SELECT x, z FROM A, B WHERE x = w")
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("different predicates share a key")
	}
}

// TestPreparedDeps pins the dependency set the plan cache indexes on: a
// plan over a tracked view depends on the view alone, since the view
// absorbs its table's writes in the same batch; a plan over a view that
// is declared but not stored reads the view's definition, so it depends
// on the view and, transitively, on the view's table.
func TestPreparedDeps(t *testing.T) {
	ctx := context.Background()
	s := preparedFixture(t)
	s.MustDefineView("ByToll", "SELECT toll, SUM(dur) FROM Calls GROUP BY toll")
	for _, c := range []struct {
		sql       string
		rewritten bool
		deps      []string
	}{
		{"SELECT cust, SUM(dur) FROM Calls GROUP BY cust", true, []string{"ByCust"}},
		{"SELECT toll FROM ByToll", false, []string{"ByToll", "Calls"}},
	} {
		p, err := s.PrepareContext(ctx, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if p.Rewritten() != c.rewritten || !slices.Equal(p.Deps, c.deps) {
			t.Errorf("%s: rewritten=%v deps=%v, want rewritten=%v deps=%v", c.sql, p.Rewritten(), p.Deps, c.rewritten, c.deps)
		}
	}
}

// TestStatementKeyIsThePlanKey pins the one key a statement has: the
// Key ParseStatement derives, PlanKey, and the Key of the plan prepared
// from either the text or the parsed statement agree, and each is
// byte-for-byte the rendering of the fmt.Sprintf("D=%v S=%v F=%v W=%v
// G=%v H=%v") key builder the pre-sized buffer replaced (the literals
// below are its output). The queries cover a join written out of
// canonical order, a string constant every key delimiter has to be
// escaped in, escaped operators, DISTINCT, HAVING, a FROM subquery, an
// unsatisfiable WHERE and a self-join.
func TestStatementKeyIsThePlanKey(t *testing.T) {
	ctx := context.Background()
	sys := warehouse(t, 50)
	for _, c := range []struct{ sql, key string }{
		{fmt.Sprintf(paperQMonth, 1996, 3, 5000),
			"D=false S=[Plan_Id_1 Plan_Name SUM(Charge)] F=[Calling_Plans Calls] W=[1996 %3D Year 3 %3D Month Month < Year Plan_Id_1 %3D Plan_Id_2] G=[Plan_Id_1 Plan_Name] H=[SUM(Charge) < 5000]"},
		{"SELECT Plan_Name, SUM(Charge) FROM Calling_Plans, Calls WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Plan_Name = 'a b,[c]=d;e%' GROUP BY Plan_Name",
			"D=false S=[Plan_Name SUM(Charge)] F=[Calling_Plans Calls] W=['a%20b%2C%5Bc%5D%3Dd%3Be%25' %3D Plan_Name Plan_Id_1 %3D Plan_Id_2] G=[Plan_Name] H=[]"},
		{"SELECT DISTINCT Cust_Id FROM Calls WHERE Charge >= 10 AND Charge <= 20 AND Day <> 7",
			"D=true S=[Cust_Id] F=[Calls] W=[10 <%3D Charge 20 >%3D Charge 7 <> Day] G=[] H=[]"},
		{"SELECT Year, AVG(Charge), MIN(Charge) FROM Calls GROUP BY Year HAVING COUNT(Charge) > 3",
			"D=false S=[Year AVG(Charge) MIN(Charge)] F=[Calls] W=[] G=[Year] H=[COUNT(Charge) > 3]"},
		{"SELECT x.Plan_Id, SUM(x.Charge) FROM (SELECT Plan_Id, Charge FROM Calls WHERE Year = 1995) x GROUP BY x.Plan_Id",
			"D=false S=[Plan_Id SUM(Charge)] F=[Calls] W=[1995 %3D Year] G=[Plan_Id] H=[]"},
		{"SELECT Cust_Id FROM Calls WHERE Charge < 1 AND Charge > 2",
			"D=false S=[Cust_Id] F=[Calls] W=[FALSE] G=[] H=[]"},
		{"SELECT a.Cust_Id, b.Charge FROM Calls a, Calls b WHERE a.Cust_Id = b.Cust_Id AND a.Day < b.Day",
			"D=false S=[Cust_Id_1 Charge_2] F=[Calls Calls] W=[Cust_Id_1 %3D Cust_Id_2 Day_1 < Day_2] G=[] H=[]"},
	} {
		st, err := sys.ParseStatement(ctx, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		key, err := sys.PlanKey(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		fromText, err := sys.PrepareContext(ctx, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		fromStatement, err := sys.PrepareStatement(ctx, st)
		if err != nil {
			t.Fatal(err)
		}
		if st.Key != c.key || key != c.key || fromText.Key != c.key || fromStatement.Key != c.key {
			t.Errorf("%s\n statement %q\n   PlanKey %q\n  prepared %q / %q\n      want %q", c.sql, st.Key, key, fromText.Key, fromStatement.Key, c.key)
		}
	}
}

// TestPrepareBesideWrites: a prepare prices its plans from the store's
// row counts, so it may run while a goroutine inserts into the table it
// reads (run under -race; scripts/check.sh does).
func TestPrepareBesideWrites(t *testing.T) {
	ctx := context.Background()
	s := preparedFixture(t)
	const q = "SELECT cust, SUM(dur) FROM Calls GROUP BY cust"
	done := make(chan error)
	go func() {
		var err error
		for i := int64(0); i < 200 && err == nil; i++ {
			err = s.InsertContext(ctx, "Calls", []aggview.Value{aggview.Int(i % 4), aggview.Int(i), aggview.Int(1)})
		}
		done <- err
	}()
	for range 200 {
		if _, err := s.PrepareContext(ctx, q); err != nil {
			t.Error(err)
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
