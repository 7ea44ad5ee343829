package aggview_test

import (
	"context"
	"testing"

	"aggview"
	"aggview/internal/engine"
)

// TestDeclaredEmptyTableAnswersEmpty pins that CREATE TABLE installs the
// table's relation: a table declared and never written answers an empty
// result, alone or joined, directly and through the planner, and a view
// over it can be tracked before any row arrives.
func TestDeclaredEmptyTableAnswersEmpty(t *testing.T) {
	ctx := context.Background()
	sys := aggview.New()
	sys.MustLoad(`
		CREATE TABLE T(A, B);
		CREATE TABLE U(C, D);
		CREATE TABLE W(E, F);
		CREATE VIEW VT AS SELECT A, SUM(B), COUNT(B) FROM T GROUP BY A;
	`)
	if err := sys.InsertContext(ctx, "W", []aggview.Value{aggview.Int(1), aggview.Int(2)}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT A, B FROM T",
		"SELECT A, SUM(B) FROM T GROUP BY A",
		"SELECT E, D FROM W, U WHERE E = C",
	} {
		res, err := sys.QueryContext(ctx, sql)
		if err != nil || res.Len() != 0 {
			t.Fatalf("QueryContext(%s): %v, err %v; want no rows", sql, res, err)
		}
		res, _, err = sys.QueryBestContext(ctx, sql)
		if err != nil || res.Len() != 0 {
			t.Fatalf("QueryBestContext(%s): %v, err %v; want no rows", sql, res, err)
		}
	}
	if _, err := sys.TrackViewContext(ctx, "VT"); err != nil {
		t.Fatal(err)
	}
	if n, ok := sys.DB.NumRows("VT"); !ok || n != 0 {
		t.Fatalf("VT over the empty T holds %d rows (stored %v)", n, ok)
	}
	if err := sys.InsertContext(ctx, "T", []aggview.Value{aggview.Int(1), aggview.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if n, _ := sys.DB.NumRows("VT"); n != 1 {
		t.Fatalf("VT holds %d rows after an insert into T, want 1", n)
	}
}

// TestInvalidationSnapshotIsConsistent pins that a write is one commit
// of the table and every tracked view over it: a snapshot taken from the
// database's invalidation hook — the moment a plan cache learns of the
// write — during an insert, a delete, an update and a script's INSERT
// holds the table and the view at the same state, so a prepared plan
// rewritten over the view answers on it what the direct query answers.
func TestInvalidationSnapshotIsConsistent(t *testing.T) {
	ctx := context.Background()
	sys := aggview.New()
	sys.MustLoad(`
		CREATE TABLE T(G, X);
		CREATE VIEW V AS SELECT G, SUM(X), COUNT(X) FROM T GROUP BY G;
	`)
	rows := make([][]aggview.Value, 2000)
	for i := range rows {
		rows[i] = []aggview.Value{aggview.Int(int64(i % 4)), aggview.Int(1)}
	}
	if err := sys.InsertContext(ctx, "T", rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrackViewContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT G, SUM(X) FROM T WHERE G = 0 GROUP BY G"
	p, err := sys.PrepareContext(ctx, q)
	if err != nil || !p.Rewritten() {
		t.Fatalf("want a plan rewritten over V, got rewritten=%v err=%v", p != nil && p.Rewritten(), err)
	}
	var snaps []*engine.Snapshot
	sys.DB.SetOnInvalidate(func(string) { snaps = append(snaps, sys.DB.Snapshot()) })
	prev := int64(500)
	for _, w := range []struct {
		name string
		run  func() error
	}{
		{"insert", func() error { return sys.InsertContext(ctx, "T", []aggview.Value{aggview.Int(0), aggview.Int(1000)}) }},
		{"delete", func() error { _, err := sys.DeleteContext(ctx, "T", "G = 0 AND X = 1000"); return err }},
		{"update", func() error { _, err := sys.UpdateContext(ctx, "T", "X = X + 1", "G = 0"); return err }},
		{"load", func() error { return sys.Load("INSERT INTO T VALUES (0, 7), (1, 7)") }},
	} {
		snaps = snaps[:0]
		if err := w.run(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(snaps) == 0 {
			t.Fatalf("%s fired no invalidation", w.name)
		}
		for _, snap := range snaps {
			got, err := sys.ExecPreparedOnContext(ctx, p, snap)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.QueryOnContext(ctx, snap, q)
			if err != nil {
				t.Fatal(err)
			}
			if !engine.ResultsEqualBag(want, got) {
				t.Fatalf("%s: on the hook's snapshot the plan over V answers %v, the direct query %v", w.name, got, want)
			}
			if n := want.Tuples[0][1].AsInt(); n == prev {
				t.Fatalf("%s: the hook's snapshot still answers %d, the state before the write", w.name, n)
			}
		}
		res, err := sys.QueryOnContext(ctx, snaps[len(snaps)-1], q)
		if err != nil {
			t.Fatal(err)
		}
		prev = res.Tuples[0][1].AsInt()
	}
}
