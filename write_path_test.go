package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/value"
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
		if err := sys.InsertContext(context.Background(), "U", []aggview.Value{aggview.Int(1), aggview.Int(2)}, []aggview.Value{aggview.Int(1), aggview.Int(5)}); err != nil {
			t.Fatal(err)
		}
		if track {
			if _, err := sys.TrackViewContext(context.Background(), "VU"); err != nil {
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
	if a.Len() == 0 || !engine.ResultsEqualBag(a, b) {
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

// TestKindRuleHolds drives seeded inserts and updates through the facade
// into K(Id, I, F, S, B) — an int, a float, a string and a bool column —
// with values of foreign kinds mixed in, at Workers 1 and 4, two views
// tracked over K. Every statement either conforms, and then each column
// holds one kind and each view equals its definition as a bag, or fails
// with a typed *engine.KindError and installs nothing: K's version, the
// views' rows and their counting state are what they were, and the
// statement without its foreign values then succeeds. Along the way a
// float widens I, after which an int past 2^53 is refused there too.
func TestKindRuleHolds(t *testing.T) {
	ctx := context.Background()
	big := int64(1)<<53 + 1
	foreign := []aggview.Value{aggview.Int(3), aggview.Int(big), aggview.Float(2.5), aggview.Str("x"), aggview.Bool(true)}
	for _, workers := range []int{1, 4} {
		sys := aggview.New()
		sys.Opts.Workers = workers
		sys.MustLoad(`
			CREATE TABLE K(Id, I, F, S, B) KEY(Id);
			CREATE VIEW VSum AS SELECT S, SUM(I), SUM(F), COUNT(I), AVG(F) FROM K GROUP BY S;
			CREATE VIEW VExt AS SELECT B, MIN(F), MAX(I), MIN(S) FROM K GROUP BY B;
		`)
		views := []string{"VSum", "VExt"}
		for _, v := range views {
			if _, err := sys.TrackViewContext(context.Background(), v); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(workers)))
		// own draws a value of column c's kind as the table began.
		own := func(c int) aggview.Value {
			switch c {
			case 1:
				return aggview.Int(int64(rng.Intn(9) - 4))
			case 2:
				return aggview.Float(float64(rng.Intn(16)) / 4)
			case 3:
				return aggview.Str(string(rune('a' + rng.Intn(3))))
			}
			return aggview.Bool(rng.Intn(2) == 0)
		}
		type state struct {
			version uint64
			rows    map[string]*engine.Relation
			counts  map[string]map[string]int64
		}
		snap := func() state {
			st := state{version: sys.DB.Version("K"), rows: map[string]*engine.Relation{}, counts: map[string]map[string]int64{}}
			for _, v := range views {
				st.rows[v], _ = sys.DB.Get(v)
				st.counts[v], _ = sys.GroupCounts(v)
			}
			return st
		}
		// odd draws a foreign value for column c; an int past 2^53 goes
		// into I only once a float has widened it, so that it can.
		odd := func(c int) aggview.Value {
			v := foreign[rng.Intn(len(foreign))]
			if k, _ := sys.DB.Get("K"); c == 1 && v.Kind() == value.KindInt && (k.Len() == 0 || k.Tuples[0][1].Kind() == value.KindInt) {
				v = aggview.Float(2.5)
			}
			return v
		}
		refused, next := 0, 0
		for step := 0; step < 150; step++ {
			// do runs the statement, with the foreign values or without.
			var do func(foreignToo bool) error
			if n, _ := sys.DB.NumRows("K"); n == 0 || rng.Intn(2) == 0 {
				rows := make([][]aggview.Value, 1+rng.Intn(6))
				bad := map[int]bool{}
				for i := range rows {
					rows[i] = []aggview.Value{aggview.Int(int64(next)), own(1), own(2), own(3), own(4)}
					next++
					if c := 1 + rng.Intn(4); rng.Intn(4) == 0 {
						rows[i][c], bad[i] = odd(c), true
					}
				}
				do = func(foreignToo bool) error {
					var kept [][]aggview.Value
					for i, r := range rows {
						if foreignToo || !bad[i] {
							kept = append(kept, r)
						}
					}
					return sys.InsertContext(ctx, "K", kept...)
				}
			} else {
				c, lo := 1+rng.Intn(4), rng.Intn(next)
				set, fallback := own(c), own(c)
				if rng.Intn(3) == 0 {
					set = odd(c)
				}
				col := []string{"Id", "I", "F", "S", "B"}[c]
				where := fmt.Sprintf("Id >= %d AND Id < %d", lo, lo+1+rng.Intn(8))
				do = func(foreignToo bool) error {
					v := fallback
					if foreignToo {
						v = set
					}
					_, err := sys.UpdateContext(ctx, "K", col+" = "+v.String(), where)
					return err
				}
			}
			before := snap()
			if err := do(true); err != nil {
				var ke *engine.KindError
				if !errors.As(err, &ke) || ke.Table != "K" {
					t.Fatalf("workers %d step %d: %v, want a *engine.KindError naming K", workers, step, err)
				}
				refused++
				after := snap()
				for _, v := range views {
					if !engine.ResultsEqualBag(before.rows[v], after.rows[v]) || !maps.Equal(before.counts[v], after.counts[v]) {
						t.Fatalf("workers %d step %d: a refused write changed %s", workers, step, v)
					}
				}
				if after.version != before.version {
					t.Fatalf("workers %d step %d: a refused write moved K from version %d to %d", workers, step, before.version, after.version)
				}
				if err := do(false); err != nil {
					t.Fatalf("workers %d step %d: without its foreign values: %v", workers, step, err)
				}
			}
			k, _ := sys.DB.Get("K")
			for c := range k.Attrs {
				for _, r := range k.Tuples {
					if r[c].Kind() != k.Tuples[0][c].Kind() {
						t.Fatalf("workers %d step %d: column %s holds %s beside %s", workers, step, k.Attrs[c], r[c].Kind(), k.Tuples[0][c].Kind())
					}
				}
			}
			for _, v := range views {
				def, _ := sys.Views.Get(v)
				want, err := engine.NewEvaluator(sys.DB, sys.Views).ExecContext(context.Background(), def.Def)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := sys.DB.Get(v); !engine.ResultsEqualBag(got, want) {
					t.Fatalf("workers %d step %d: %s differs from its definition\nmaintained:\n%s\ndefinition:\n%s", workers, step, v, got.Sorted(), want.Sorted())
				}
			}
		}
		k, _ := sys.DB.Get("K")
		t.Logf("workers %d: %d of 150 writes refused, %d rows, I stored as %s", workers, refused, k.Len(), k.Tuples[0][1].Kind())
		if refused < 10 || k.Tuples[0][1].Kind() != value.KindFloat {
			t.Fatalf("workers %d: %d writes refused, I is %s: the run does not test what it says", workers, refused, k.Tuples[0][1].Kind())
		}
	}
}
