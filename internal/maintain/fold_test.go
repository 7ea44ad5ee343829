package maintain

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/value"
)

// system builds a maintainer over a database holding table cols (no
// rows) and registering each view, untracked.
func system(t *testing.T, table string, cols []string, views map[string]string) (*Maintainer, *engine.DB) {
	t.Helper()
	db := engine.NewDB()
	db.Put(table, engine.NewRelation(cols...))
	reg := ir.NewRegistry()
	for name, sql := range views {
		v, err := ir.NewViewDef(name, ir.MustBuild(sql, ir.MapSource{table: cols}))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return New(db, reg), db
}

// sameCell reports whether two cells are the same kind and payload, a
// float's to the bit (so -0 is not +0).
func sameCell(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return value.KeyEqual(a, b)
}

// TestWritesBuildWhatARebuildBuilds holds the write path's fold to the
// rebuild's: after a seeded insert-only history of exact cells (ints,
// halves of small ints, and one group whose only row is -0.0) every
// cell of a SUM, COUNT, AVG, MIN and MAX view is, bit for bit, the cell
// a fresh TrackContext over the same rows builds, and the multiplicity
// counts agree. A group a write creates takes its first SUM delta as
// it is, so the lone -0.0 sums to -0 both ways.
func TestWritesBuildWhatARebuildBuilds(t *testing.T) {
	ctx := context.Background()
	cols := []string{"G", "I", "F"}
	views := map[string]string{
		"VSum": "SELECT G, SUM(I), SUM(F), COUNT(*) FROM T GROUP BY G",
		"VAvg": "SELECT G, AVG(I), AVG(F) FROM T GROUP BY G",
		"VExt": "SELECT G, MIN(I), MAX(I), MIN(F), MAX(F), COUNT(F) FROM T GROUP BY G",
	}
	written, wdb := system(t, "T", cols, views)
	for name := range views {
		if _, err := written.TrackContext(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(40))
	var all [][]value.Value
	for b := 0; b < 30; b++ {
		batch := make([][]value.Value, 1+rng.Intn(12))
		for i := range batch {
			batch[i] = []value.Value{value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(21) - 10)), value.Float(float64(rng.Intn(41)-20) / 2)}
		}
		if b == 17 {
			batch = append(batch, []value.Value{value.Int(99), value.Int(0), value.Float(math.Copysign(0, -1))})
		}
		if err := written.InsertContext(ctx, "T", batch...); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	rebuilt, rdb := system(t, "T", cols, views)
	if err := rebuilt.InsertContext(ctx, "T", all...); err != nil {
		t.Fatal(err)
	}
	for name := range views {
		if _, err := rebuilt.TrackContext(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	for name := range views {
		got, _ := wdb.Get(name)
		want, _ := rdb.Get(name)
		if got.Len() != want.Len() || got.Len() != 9 {
			t.Fatalf("%s: %d rows written, %d rebuilt, want 9", name, got.Len(), want.Len())
		}
		byGroup := map[int64][]value.Value{}
		for _, r := range want.Tuples {
			byGroup[r[0].AsInt()] = r
		}
		for _, r := range got.Tuples {
			w, ok := byGroup[r[0].AsInt()]
			if !ok {
				t.Fatalf("%s: group %v written, not rebuilt", name, r[0])
			}
			for c := range r {
				if !sameCell(r[c], w[c]) {
					t.Errorf("%s: group %v column %d is %v (%s, %#x), a rebuild builds %v (%s, %#x)", name, r[0], c,
						r[c], r[c].Kind(), bits(r[c]), w[c], w[c].Kind(), bits(w[c]))
				}
			}
		}
		gc, _ := written.GroupCounts(name)
		rc, _ := rebuilt.GroupCounts(name)
		if !maps.Equal(gc, rc) {
			t.Errorf("%s: multiplicity counts %v written, %v rebuilt", name, gc, rc)
		}
	}
}

// bits returns a float cell's bits (0 for any other kind), for messages.
func bits(v value.Value) uint64 {
	if v.Kind() != value.KindFloat {
		return 0
	}
	return math.Float64bits(v.AsFloat())
}

// TestBulkMinMaxWriteIsLinear holds a bulk write into a tracked MIN/MAX
// view to a time linear in its delta: 20 000 rows into the 3 live groups
// of a MIN/MAX view, nearly every Charge distinct, take at most 24 times
// what 2 500 such rows take, best of five alternating runs each after a
// GC. Linear is 8x (both sizes clear the engine's parallel threshold;
// cache effects add a little); a touched group that scans its staged
// values for each row it meets is quadratic, 64x. Timing-based, so
// -short skips it.
func TestBulkMinMaxWriteIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ctx := context.Background()
	cols := []string{"P", "Y", "Charge"}
	views := map[string]string{"V": "SELECT P, Y, MIN(Charge), MAX(Charge) FROM T GROUP BY P, Y"}
	var seed [][]value.Value
	for p := int64(0); p < 3; p++ {
		seed = append(seed, []value.Value{value.Int(p), value.Int(1994), value.Int(0)})
	}
	rng := rand.New(rand.NewSource(7))
	bulk := make([][]value.Value, 20000)
	for i := range bulk {
		bulk[i] = []value.Value{value.Int(int64(rng.Intn(3))), value.Int(1994), value.Int(1 + rng.Int63n(1<<40))}
	}
	write := func(rows [][]value.Value) time.Duration {
		m, _ := system(t, "T", cols, views)
		if err := m.InsertContext(ctx, "T", seed...); err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrackContext(ctx, "V"); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		start := time.Now()
		if err := m.InsertContext(ctx, "T", rows...); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// The sizes alternate, so a change in the host's load meets both.
	var small, large time.Duration
	for i := range 5 {
		s, l := write(bulk[:len(bulk)/8]), write(bulk)
		if i == 0 || s < small {
			small = s
		}
		if i == 0 || l < large {
			large = l
		}
	}
	ratio := float64(large) / float64(small)
	t.Logf("2 500 rows %v, 20 000 rows %v (%.2fx)", small, large, ratio)
	if ratio > 24 {
		t.Fatalf("20 000 rows took %v, %.2fx the %v of 2 500 (bound 24x, linear 8x)", large, ratio, small)
	}
}
