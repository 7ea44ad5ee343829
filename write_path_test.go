package aggview_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aggview"
	"aggview/internal/engine"
)

// TestUntrackedWritesTakeTheMaintainedPath pins the one entry to storage:
// a write reaches it through the maintainer whether or not a view is
// tracked, so a system with no tracked view and the same system tracking a
// view over an unrelated table end a seeded insert / delete / update
// sequence with bag-equal base tables, the same version of every table
// and the same invalidation-hook calls — and a bulk insert no tracked view
// reads builds no delta table: it allocates what DB.Append of the same
// rows does.
func TestUntrackedWritesTakeTheMaintainedPath(t *testing.T) {
	ctx := context.Background()
	build := func(track bool) (*aggview.System, *[]string) {
		sys := aggview.New()
		sys.MustLoad(`
			CREATE TABLE T(Id, A, B) KEY(Id);
			CREATE TABLE U(X, Y);
			CREATE VIEW VU AS SELECT X, SUM(Y) FROM U GROUP BY X;
		`)
		if err := sys.Insert("U", []aggview.Value{aggview.Int(1), aggview.Int(2)}, []aggview.Value{aggview.Int(1), aggview.Int(5)}); err != nil {
			t.Fatal(err)
		}
		if track {
			if _, err := sys.TrackView("VU"); err != nil {
				t.Fatal(err)
			}
		}
		hooks := &[]string{}
		sys.DB.SetOnInvalidate(func(name string) { *hooks = append(*hooks, name) })
		return sys, hooks
	}
	plain, plainHooks := build(false)
	tracking, trackingHooks := build(true)
	uVersion := tracking.DB.Version("U")

	rng := rand.New(rand.NewSource(11))
	next := 0
	for step := 0; step < 60; step++ {
		var run func(sys *aggview.System) (int, error)
		switch lo := rng.Intn(next + 1); rng.Intn(4) {
		case 0, 1:
			rows := make([][]aggview.Value, 1+rng.Intn(400))
			for i := range rows {
				rows[i] = []aggview.Value{aggview.Int(int64(next)), aggview.Int(int64(rng.Intn(50))), aggview.Float(float64(rng.Intn(64)) / 8)}
				next++
			}
			run = func(sys *aggview.System) (int, error) { return len(rows), sys.InsertContext(ctx, "T", rows...) }
		case 2:
			where := fmt.Sprintf("Id >= %d AND Id < %d AND A + 1 > %d", lo, lo+rng.Intn(300), rng.Intn(30))
			run = func(sys *aggview.System) (int, error) { return sys.DeleteContext(ctx, "T", where) }
		default:
			where := fmt.Sprintf("Id >= %d AND A * 2 < %d", lo, rng.Intn(100))
			run = func(sys *aggview.System) (int, error) {
				return sys.UpdateContext(ctx, "T", "A = A + 1, B = B / 2", where)
			}
		}
		n1, err1 := run(plain)
		n2, err2 := run(tracking)
		if err1 != nil || err2 != nil || n1 != n2 {
			t.Fatalf("step %d: %d rows (err %v) untracked, %d rows (err %v) tracking", step, n1, err1, n2, err2)
		}
	}
	a, _ := plain.DB.Get("T")
	b, _ := tracking.DB.Get("T")
	if a.Len() == 0 || !engine.MultisetEqual(a, b) {
		t.Fatalf("T holds %d rows untracked and %d tracking, or they differ", a.Len(), b.Len())
	}
	if v1, v2 := plain.DB.Version("T"), tracking.DB.Version("T"); v1 != v2 || v1 < 30 {
		t.Errorf("T is at version %d untracked and %d tracking", v1, v2)
	}
	if v := tracking.DB.Version("U"); v != uVersion {
		t.Errorf("writes to T moved U from version %d to %d", uVersion, v)
	}
	if !slices.Equal(*plainHooks, *trackingHooks) || len(*plainHooks) == 0 {
		t.Errorf("invalidation hook saw %d calls untracked and %d tracking, or they differ", len(*plainHooks), len(*trackingHooks))
	}

	rows := make([][]aggview.Value, 3000)
	for i := range rows {
		rows[i] = []aggview.Value{aggview.Int(int64(next + i)), aggview.Int(int64(i % 50)), aggview.Float(float64(i%64) / 8)}
	}
	db := engine.NewDB()
	db.Put("T", a)
	appended := allocated(func() { db.Append("T", rows...) })
	inserted := allocated(func() {
		if err := tracking.InsertContext(ctx, "T", rows...); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a 3000-row insert allocates %d B through the facade, %d B through DB.Append", inserted, appended)
	if inserted > appended*3/2 {
		t.Errorf("a 3000-row insert no view reads allocates %d B, DB.Append of the same rows %d B", inserted, appended)
	}
}
