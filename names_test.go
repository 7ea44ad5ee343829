package aggview

import (
	"context"
	"errors"
	"testing"
)

// The tests of this file hold the facade to one rule: a relation name
// means one relation, whatever its letter case. A name is bound to its
// declared spelling once, at the SQL boundary, and a table and a view
// cannot share one.

// namesSystem declares T(a, b) holding (1, 10), (1, 20), (2, 30).
func namesSystem(t *testing.T) *System {
	t.Helper()
	s := New()
	s.MustLoad(`CREATE TABLE T(a, b);
		INSERT INTO T VALUES (1, 10), (1, 20), (2, 30);`)
	return s
}

// wantRows fails the test unless sql answers exactly the bag want,
// directly and through the cheapest plan.
func wantRows(t *testing.T, s *System, sql string, want ...[]Value) {
	t.Helper()
	w := &Result{Tuples: want}
	if got := mustQuery(t, s, sql); cellBits(got) != cellBits(w) {
		t.Errorf("%s answers %v directly, want %v", sql, got.Tuples, want)
	}
	got, _, err := s.QueryBestContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if cellBits(got) != cellBits(w) {
		t.Errorf("%s answers %v through its best plan, want %v", sql, got.Tuples, want)
	}
}

// TestViewCannotTakeATableName: a view named T or t over table T is
// refused with a *NameTakenError, so T still answers its own 3 rows.
func TestViewCannotTakeATableName(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"t", "T"} {
		s := namesSystem(t)
		err := s.Load("CREATE VIEW " + name + " AS SELECT a, SUM(b) FROM T GROUP BY a")
		var taken *NameTakenError
		if !errors.As(err, &taken) || taken.Taken != "T" {
			t.Fatalf("CREATE VIEW %s over table T: %v, want a *NameTakenError naming table T", name, err)
		}
		if _, err := s.TrackViewContext(ctx, name); err == nil {
			t.Errorf("tracked a view %s that was never declared", name)
		}
		wantRows(t, s, "SELECT a, b FROM T", []Value{Int(1), Int(10)}, []Value{Int(1), Int(20)}, []Value{Int(2), Int(30)})
		wantRows(t, s, "SELECT a FROM "+name, []Value{Int(1)}, []Value{Int(1)}, []Value{Int(2)})
	}
}

// TestTableCannotTakeAViewName: CREATE TABLE v after a tracked view V is
// refused, so the next write to V's source leaves V equal to its
// definition; a second CREATE TABLE t is refused the same way.
func TestTableCannotTakeAViewName(t *testing.T) {
	ctx := context.Background()
	s := namesSystem(t)
	s.MustDefineView("V", "SELECT a, SUM(b) FROM T GROUP BY a")
	if _, err := s.TrackViewContext(ctx, "v"); err != nil {
		t.Fatal(err)
	}
	for _, decl := range []string{"CREATE TABLE v(x)", "CREATE TABLE t(x)"} {
		var taken *NameTakenError
		if err := s.Load(decl); !errors.As(err, &taken) {
			t.Fatalf("%s: %v, want a *NameTakenError", decl, err)
		}
	}
	if err := s.InsertContext(ctx, "t", []Value{Int(3), Int(40)}); err != nil {
		t.Fatal(err)
	}
	want := []Value{Int(1), Int(30)}
	wantRows(t, s, "SELECT a, sum_b FROM V", want, []Value{Int(2), Int(30)}, []Value{Int(3), Int(40)})
	stored, ok := s.DB.Get("V")
	if !ok || cellBits(stored) != cellBits(&Result{Tuples: [][]Value{want, {Int(2), Int(30)}, {Int(3), Int(40)}}}) {
		t.Errorf("V stores %v, want its definition's 3 rows", stored)
	}
}

// TestDerivedTableBesideSubq1: a FROM subquery is numbered past the
// names the catalog and the registry hold, so a user table subq_1 does
// not answer in its place.
func TestDerivedTableBesideSubq1(t *testing.T) {
	s := New()
	s.MustLoad(`CREATE TABLE T(a);
		CREATE TABLE subq_1(a);
		INSERT INTO T VALUES (1), (2);
		INSERT INTO subq_1 VALUES (100), (200), (300);`)
	wantRows(t, s, "SELECT x.a FROM (SELECT a FROM T) x", []Value{Int(1)}, []Value{Int(2)})
}

// TestSpellingsShareOneKey: one query spelled with its table as
// declared, lower-cased and upper-cased is one statement: one plan key,
// bound to the declared name.
func TestSpellingsShareOneKey(t *testing.T) {
	ctx := context.Background()
	s := telcoSystem(t, 100)
	var keys []string
	for _, name := range []string{"Calls", "calls", "CALLS"} {
		st, err := s.ParseStatement(ctx, "SELECT plan_id, SUM(charge) FROM "+name+" c WHERE C.year = 1995 GROUP BY PLAN_ID")
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, st.Key)
	}
	if keys[0] != keys[1] || keys[0] != keys[2] {
		t.Fatalf("three spellings, three keys:\n%s\n%s\n%s", keys[0], keys[1], keys[2])
	}
	q, err := s.Parse("SELECT calls.plan_id FROM CALLS")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tables[0].Source != "Calls" || q.Col(0).Attr != "Call_Id" {
		t.Errorf("CALLS binds to %q column %q, want the declared Calls and Call_Id", q.Tables[0].Source, q.Col(0).Attr)
	}
}

// TestViewColumnListIsUnique: CREATE VIEW's column list follows CREATE
// TABLE's rule and may not name a column twice, in any letter case.
func TestViewColumnListIsUnique(t *testing.T) {
	s := namesSystem(t)
	if err := s.Load("CREATE VIEW V(x, X) AS SELECT a, b FROM T"); err == nil {
		t.Fatal("CREATE VIEW V(x, X) accepted")
	}
	if err := s.Load("CREATE TABLE U(x, X)"); err == nil {
		t.Fatal("CREATE TABLE U(x, X) accepted")
	}
	s.MustLoad("CREATE VIEW V(x, y) AS SELECT a, b FROM T")
	wantRows(t, s, "SELECT X FROM v WHERE Y = 10", []Value{Int(1)})
}

// TestNamesResolveAtTheBoundary: the name-taking entry points find a
// relation under any spelling, and write it under its declared one.
func TestNamesResolveAtTheBoundary(t *testing.T) {
	ctx := context.Background()
	s := namesSystem(t)
	s.MustDefineView("V", "SELECT a, SUM(b) FROM T GROUP BY a")
	if _, err := s.TrackViewContext(ctx, "v"); err != nil {
		t.Fatal(err)
	}
	if n, err := s.UpdateContext(ctx, "t", "b = b + 1", "a = 2"); err != nil || n != 1 {
		t.Fatalf("UpdateContext(t): %d, %v", n, err)
	}
	if n, err := s.DeleteContext(ctx, "T", "b = 10"); err != nil || n != 1 {
		t.Fatalf("DeleteContext(T): %d, %v", n, err)
	}
	if _, err := s.DeleteContext(ctx, "T; DELETE FROM T", ""); err == nil {
		t.Fatal("DeleteContext accepted a table name that names no table")
	}
	wantRows(t, s, "SELECT a, sum_b FROM v", []Value{Int(1), Int(20)}, []Value{Int(2), Int(31)})
	if _, ok := s.GroupCounts("V"); !ok {
		t.Error("V has no group counts")
	}
	if modes := s.ViewModes(); len(modes) != 1 || modes[0].Name != "V" || modes[0].Mode != "incremental" {
		t.Errorf("ViewModes = %+v, want V incremental", modes)
	}
}
