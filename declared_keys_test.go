package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aggview"
	"aggview/internal/engine"
)

// TestDeclaredKeyRefusesExample51Duplicate is the paper's Example 5.1
// with its key broken by a write. R1's key A is what makes the many-to-1
// rewriting SELECT A FROM V51 WHERE A = A_2 a set-equivalent answer to
// SELECT A FROM R1 WHERE B = C; a second row with A = 1 would make the
// view answer 4 rows where the table answers 2. The insert is refused
// with a typed *engine.KeyError, installs nothing, and the rewriting the
// cost model picks (the filler rows make it prefer the view) answers
// what the table does.
func TestDeclaredKeyRefusesExample51Duplicate(t *testing.T) {
	ctx := context.Background()
	sys := aggview.New()
	sys.MustLoad(`
		CREATE TABLE R1(A, B, C, D) KEY(A);
		CREATE VIEW V51 AS SELECT r.A, s.A FROM R1 r, R1 s WHERE r.B = s.C;
	`)
	filler := make([][]aggview.Value, 1990)
	for i := range filler {
		filler[i] = []aggview.Value{aggview.Int(int64(i + 2)), aggview.Int(int64(1000 + 2*i)), aggview.Int(int64(1001 + 2*i)), aggview.Int(0)}
	}
	one := []aggview.Value{aggview.Int(1), aggview.Int(7), aggview.Int(7), aggview.Int(0)}
	if err := sys.InsertContext(ctx, "R1", append(filler, one)...); err != nil {
		t.Fatal(err)
	}
	ver := sys.DB.Version("R1")
	var ke *engine.KeyError
	err := sys.InsertContext(ctx, "R1", []aggview.Value{aggview.Int(1), aggview.Int(7), aggview.Int(7), aggview.Int(1)})
	if !errors.As(err, &ke) || ke.Table != "R1" || len(ke.Key) != 1 || ke.Key[0] != "A" || ke.To != nil {
		t.Fatalf("second row with A = 1: got %v, want a *engine.KeyError on R1's key A", err)
	}
	if sys.DB.Version("R1") != ver {
		t.Fatal("a refused insert changed R1")
	}
	if _, err := sys.TrackViewContext(ctx, "V51"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT A FROM R1 WHERE B = C"
	direct, err := sys.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	best, used, err := sys.QueryBestContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if used == nil {
		t.Fatal("the cost model no longer picks the Example 5.1 rewriting; the probe needs other filler")
	}
	if direct.Len() != 1 || !engine.ResultsEqualBag(direct, best) {
		t.Fatalf("direct answers %d rows, %s answers %d", direct.Len(), used.Query.SQL(), best.Len())
	}
}

// TestDeclaredKeysHold drives seeded inserts, deletes and updates into a
// keyed table K(Id, A) KEY(Id) and a table F(P, Q, R) FD(P -> Q), with
// key-repeating batches, updates that move keys onto stored ones (or
// swap them) and FD-breaking rows mixed in, against a model of the rows.
// Each statement succeeds exactly when the model's rows afterwards keep
// the key and the FD — then the table equals the model as a bag — and
// otherwise fails with a typed *engine.KeyError and changes nothing.
func TestDeclaredKeysHold(t *testing.T) {
	ctx := context.Background()
	sys := aggview.New()
	sys.MustLoad(`
		CREATE TABLE K(Id, A) KEY(Id);
		CREATE TABLE F(P, Q, R) FD(P -> Q);
	`)
	model := map[string][][2]int64{} // K: (Id, A); F: (P, Q), R is 0
	holds := func(table string, rows [][2]int64) bool {
		seen := map[int64]int64{}
		for _, r := range rows {
			q, ok := seen[r[0]]
			if ok && (table == "K" || q != r[1]) {
				return false
			}
			seen[r[0]] = r[1]
		}
		return true
	}
	rowsOf := func(table string, rs [][2]int64) [][]aggview.Value {
		out := make([][]aggview.Value, len(rs))
		for i, r := range rs {
			out[i] = []aggview.Value{aggview.Int(r[0]), aggview.Int(r[1])}
			if table == "F" {
				out[i] = append(out[i], aggview.Int(0))
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	refused := map[string]int{}
	for step := 0; step < 600; step++ {
		table := [...]string{"K", "F"}[rng.Intn(2)]
		cols := [...]string{"Id", "A"}
		if table == "F" {
			cols = [...]string{"P", "Q"}
		}
		cur := model[table]
		next := append([][2]int64(nil), cur...)
		var run func() error
		switch op := rng.Intn(6); {
		case op < 3:
			add := make([][2]int64, 1+rng.Intn(4))
			for i := range add {
				add[i] = [2]int64{int64(rng.Intn(40)), int64(rng.Intn(3))}
			}
			next = append(next, add...)
			run = func() error { return sys.InsertContext(ctx, table, rowsOf(table, add)...) }
		case op == 3:
			v := int64(rng.Intn(3))
			next = next[:0]
			for _, r := range cur {
				if r[1] != v {
					next = append(next, r)
				}
			}
			run = func() error {
				_, err := sys.DeleteContext(ctx, table, fmt.Sprintf("%s = %d", cols[1], v))
				return err
			}
		default:
			// Move the first column of the rows with a given second one by
			// k (onto stored keys, past them, or swapping them), or set
			// the second column of the rows with a given first one.
			v, k := int64(rng.Intn(3)), int64(rng.Intn(5)-2)
			set, where := fmt.Sprintf("%s = %s + %d", cols[0], cols[0], k), fmt.Sprintf("%s = %d", cols[1], v)
			move := func(r [2]int64) [2]int64 {
				if r[1] == v {
					r[0] += k
				}
				return r
			}
			if op == 5 {
				v, k = int64(rng.Intn(40)), int64(rng.Intn(3))
				set, where = fmt.Sprintf("%s = %d", cols[1], k), fmt.Sprintf("%s = %d", cols[0], v)
				move = func(r [2]int64) [2]int64 {
					if r[0] == v {
						r[1] = k
					}
					return r
				}
			}
			for i := range next {
				next[i] = move(next[i])
			}
			run = func() error {
				_, err := sys.UpdateContext(ctx, table, set, where)
				return err
			}
		}
		ver := sys.DB.Version(table)
		err := run()
		var ke *engine.KeyError
		switch ok := holds(table, next); {
		case ok && err != nil:
			t.Fatalf("step %d on %s: refused a write that keeps the constraints: %v", step, table, err)
		case !ok && !errors.As(err, &ke):
			t.Fatalf("step %d on %s: a write breaking the constraints returned %v, want a *engine.KeyError", step, table, err)
		case !ok:
			refused[table]++
			if sys.DB.Version(table) != ver {
				t.Fatalf("step %d on %s: a refused write changed the table", step, table)
			}
		default:
			model[table] = next
		}
		sel := "SELECT Id, A FROM K"
		if table == "F" {
			sel = "SELECT P, Q, R FROM F"
		}
		got, err := sys.QueryContext(ctx, sel)
		if err != nil {
			t.Fatal(err)
		}
		want := engine.NewRelation(got.Attrs...)
		for _, r := range rowsOf(table, model[table]) {
			want.Tuples = append(want.Tuples, r)
		}
		if !engine.ResultsEqualBag(got, want) {
			t.Fatalf("step %d: %s holds %d rows, the model %d, or they differ", step, table, got.Len(), len(model[table]))
		}
	}
	t.Logf("refused: %v; rows: K %d, F %d", refused, len(model["K"]), len(model["F"]))
	if refused["K"] < 20 || refused["F"] < 20 || len(model["K"]) < 10 || len(model["F"]) < 10 {
		t.Fatalf("cases too one-sided: refused %v, rows K %d, F %d", refused, len(model["K"]), len(model["F"]))
	}
}
