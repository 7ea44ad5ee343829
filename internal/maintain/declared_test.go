package maintain

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/value"
)

// TestHashCountsMatchesAMap holds the blocked index to a map of counts
// over seeded adds and drops that split blocks and empty them again,
// hashes at both ends of the 48-bit range included, and one hash counted
// past many, where it stays.
func TestHashCountsMatchesAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s hashCounts
	model := map[uint64]int{}
	bump := func(h uint64, n int) {
		if model[h] == many {
			return
		}
		if model[h] = min(model[h]+n, many); model[h] == 0 {
			delete(model, h)
		}
	}
	const top = 1<<48 - 1
	pool := []uint64{0, 1, top, top - 1}
	for len(pool) < 3000 {
		pool = append(pool, rng.Uint64()>>16)
	}
	for range many + 10 {
		s.add(pool[5], 1)
		bump(pool[5], 1)
	}
	for step := 0; step < 60000; step++ {
		h := pool[rng.Intn(len(pool))]
		n := 1
		if step > 30000 && rng.Intn(3) > 0 || rng.Intn(4) == 0 {
			n = -1
		}
		if n < 0 && model[h] == 0 {
			continue
		}
		s.add(h, n)
		bump(h, n)
		if step%997 == 0 {
			for _, h := range pool {
				if got := s.count(h); got != model[h] {
					t.Fatalf("step %d: count(%d) = %d, want %d", step, h, got, model[h])
				}
			}
			total := 0
			for i, blk := range s.blocks {
				if len(blk) == 0 || len(blk) >= blockCap || i > 0 && blk[0] <= s.blocks[i-1][len(s.blocks[i-1])-1] {
					t.Fatalf("step %d: block %d of %d holds %d entries, or is out of order", step, i, len(s.blocks), len(blk))
				}
				lo, hi := s.fences[i], uint64(top)+1
				if i+1 < len(s.fences) {
					hi = s.fences[i+1]
				}
				if i == 0 && lo != 0 || blk[0]>>16 < lo || blk[len(blk)-1]>>16 >= hi {
					t.Fatalf("step %d: block %d holds hashes %d-%d outside its fences [%d, %d)", step, i, blk[0]>>16, blk[len(blk)-1]>>16, lo, hi)
				}
				total += len(blk)
			}
			if len(s.fences) != len(s.blocks) {
				t.Fatalf("step %d: %d fences for %d blocks", step, len(s.fences), len(s.blocks))
			}
			if total != len(model) || s.n != total {
				t.Fatalf("step %d: %d entries for %d hashes", step, total, len(model))
			}
		}
	}
	if model[pool[5]] != many {
		t.Fatalf("the hot hash counts %d, want it saturated", model[pool[5]])
	}
}

// TestKeyCheckSurvivesHashCollisions counts a hash in the index that no
// stored row carries, as a colliding key value would: inserting a row
// with that hash is verified against the rows themselves and goes
// through, while a row repeating a stored key is still refused.
func TestKeyCheckSurvivesHashCollisions(t *testing.T) {
	db := engine.NewDB()
	db.Put("T", engine.NewRelation("Id", "X"))
	m := New(db, nil)
	if err := m.DeclareKey("T", []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	row := func(id int64) []value.Value { return []value.Value{value.Int(id), value.Int(0)} }
	if err := m.InsertContext(t.Context(), "T", row(1), row(2)); err != nil {
		t.Fatal(err)
	}
	d := m.declared["T"][0]
	_, h := d.hash(nil, row(3), d.key)
	d.index.add(h, 1) // a stored key value that collides with 3
	if err := m.InsertContext(t.Context(), "T", row(3)); err != nil {
		t.Fatalf("a colliding hash refused a new key: %v", err)
	}
	var ke *engine.KeyError
	if err := m.InsertContext(t.Context(), "T", row(3)); !errors.As(err, &ke) {
		t.Fatalf("repeating key 3: got %v, want a *engine.KeyError", err)
	}
	if got := d.index.count(h); got != 2 {
		t.Fatalf("the hash of 3 counts %d rows, want 2 (the collision and the row)", got)
	}
	if n, _ := db.NumRows("T"); n != 3 {
		t.Fatalf("T holds %d rows, want 3", n)
	}
}

// TestBulkKeyCheck drives 5000-row batches: a load that repeats one key
// is refused, the same load without the repeat goes through, and a
// second batch repeating a stored key is refused while one of new keys
// goes through.
func TestBulkKeyCheck(t *testing.T) {
	db := engine.NewDB()
	db.Put("T", engine.NewRelation("Id", "X"))
	m := New(db, nil)
	if err := m.DeclareKey("T", []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	batch := func(lo, n int) [][]value.Value {
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{value.Int(int64(lo + i)), value.Int(0)}
		}
		return rows
	}
	var ke *engine.KeyError
	repeat := append(batch(0, 5000), []value.Value{value.Float(4321), value.Int(1)})
	if err := m.InsertContext(t.Context(), "T", repeat...); !errors.As(err, &ke) || ke.Value[0].String() != "4321" {
		t.Fatalf("a bulk load repeating key 4321: got %v", err)
	}
	if err := m.InsertContext(t.Context(), "T", batch(0, 5000)...); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertContext(t.Context(), "T", batch(4999, 5000)...); !errors.As(err, &ke) {
		t.Fatalf("a bulk batch repeating stored key 4999: got %v", err)
	}
	if err := m.InsertContext(t.Context(), "T", batch(5000, 5000)...); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.NumRows("T"); n != 10000 || m.declared["T"][0].index.n != 10000 {
		t.Fatalf("T holds %d rows, its index %d keys; want 10000", n, m.declared["T"][0].index.n)
	}
}

// TestKeyCheckTakesTheEnginesEquality checks keys as the engine's =
// compares them: -0 repeats a stored 0, and an FD's dependent -0 agrees
// with 0. It also nets a batch before judging it: a row one mutation
// inserts and a later one deletes again breaks no FD.
func TestKeyCheckTakesTheEnginesEquality(t *testing.T) {
	ctx := t.Context()
	db := engine.NewDB()
	db.Put("K", engine.NewRelation("A", "B"))
	db.Put("F", engine.NewRelation("P", "Q"))
	m := New(db, nil)
	if err := m.DeclareKey("K", []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.DeclareKey("F", []int{0}, []int{1}); err != nil {
		t.Fatal(err)
	}
	row := func(a, b value.Value) []value.Value { return []value.Value{a, b} }
	negZero := value.Float(math.Copysign(0, -1))
	if err := m.InsertContext(ctx, "K", row(value.Float(0), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	var ke *engine.KeyError
	if err := m.InsertContext(ctx, "K", row(negZero, value.Int(2))); !errors.As(err, &ke) {
		t.Fatalf("A = -0 beside a stored A = 0: got %v, want a *engine.KeyError", err)
	}
	if err := m.InsertContext(ctx, "K", row(value.Float(5), value.Int(1)), row(value.Float(-5), value.Int(1))); err != nil {
		t.Fatalf("keys 5 and -5: %v", err)
	}
	a, b := row(value.Int(1), value.Float(1.5)), row(value.Int(1), value.Float(2.5))
	if err := m.InsertContext(ctx, "F", a, a, row(value.Int(2), value.Float(0))); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertContext(ctx, "F", row(value.Int(2), negZero)); err != nil {
		t.Fatalf("Q = -0 beside a stored Q = 0 for P = 2: %v", err)
	}
	if err := m.ApplyContext(ctx, Mutation{Table: "F", Inserts: [][]value.Value{b}}, Mutation{Table: "F", Deletes: [][]value.Value{b}}); err != nil {
		t.Fatalf("inserting (1, b) and deleting it again: %v", err)
	}
	if err := m.InsertContext(ctx, "F", b); !errors.As(err, &ke) {
		t.Fatalf("(1, b) beside (1, a): got %v, want a *engine.KeyError", err)
	}
	if n, _ := db.NumRows("F"); n != 4 {
		t.Fatalf("F holds %d rows, want 4", n)
	}
}
