package engine

import (
	"context"
	"sync"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// TestProjectionSharesStoredChunks is the aliasing contract of
// vecOperand.cells: an unfiltered projection of a stored table hands back
// the stored chunks' own vectors, capacity clipped to their length, and
// that result reads exactly as before while the table takes (a) an append
// into its last chunk's spare capacity and (b) a cell update, copy-on-write
// in patchCells — with readers running alongside, so -race sees the
// writes. Appending to a result vector moves it out and leaves the store
// alone.
func TestProjectionSharesStoredChunks(t *testing.T) {
	m := obs.NewMetrics()
	db := NewDB()
	db.SetMetrics(m)
	const n = 2*chunkRows + 100
	db.Put("T", relOf(intRows(0, n)))
	// The first append outgrows the exactly-sized last chunk; from then on
	// the last chunk has spare capacity to extend into.
	db.Append("T", intRows(n, n+1)...)
	stored, _, _ := db.Scan("T")
	src := ir.MapSource{"T": {"id", "g", "s"}}
	ctx := context.Background()

	res, err := NewEvaluator(db, nil).ExecColumns(ctx, NewPlan(ir.MustBuild("SELECT id, g, s FROM T", src)))
	if err != nil {
		t.Fatal(err)
	}
	if res.n != n+1 || len(res.cols[0].chunks) != 3 {
		t.Fatalf("projection: %d rows in %d chunks, want %d in 3", res.n, len(res.cols[0].chunks), n+1)
	}
	for c, col := range res.cols {
		for k, ch := range col.chunks {
			if !sameCells(&ch.Vec, &stored.cols[c].chunks[k].Vec) || !clipped(&ch.Vec) {
				t.Fatalf("column %d chunk %d: result does not share the stored cells with capacity clipped", c, k)
			}
		}
	}
	filtered, err := NewEvaluator(db, nil).ExecColumns(ctx, NewPlan(ir.MustBuild("SELECT id FROM T WHERE g = 3", src)))
	if err != nil {
		t.Fatal(err)
	}
	if sameCells(&filtered.cols[0].chunks[0].Vec, &stored.cols[0].chunks[0].Vec) {
		t.Fatal("a filtered projection shares a stored chunk it read through a selection")
	}

	want := res.Relation().String()
	var wg sync.WaitGroup
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if res.Relation().String() != want {
					t.Error("the result changed under a concurrent write")
					return
				}
			}
		}()
	}
	// (a) fits the last chunk's spare capacity: written in place, past the
	// length the result's vector sees.
	inplace := m.Volatile("engine.store.append.inplace").Load()
	db.Append("T", intRows(n+1, n+51)...)
	// (b) rewrites a cell of the first chunk, which the result shares.
	db.Apply([]Commit{{Name: "T", Delta: Delta{SetAt: []int32{5}, SetRows: [][]value.Value{{value.Int(-5), value.Int(-5), value.Str("x")}}}}})
	wg.Wait()

	live, _, _ := db.Scan("T")
	if got := m.Volatile("engine.store.append.inplace").Load(); got != inplace+1 {
		t.Fatalf("the append moved the last chunk (append.inplace %d -> %d): nothing was written next to the result", inplace, got)
	}
	last := &res.cols[0].chunks[2].Vec
	if !sameCells(last, &live.cols[0].chunks[2].Vec) {
		t.Fatal("the in-place append does not extend the array the result reads")
	}
	if sameCells(&res.cols[0].chunks[0].Vec, &live.cols[0].chunks[0].Vec) || live.Value(5, 0).AsInt() != -5 {
		t.Fatal("the update did not copy the chunk it rewrote")
	}
	if got := res.Relation().String(); got != want {
		t.Fatal("the result changed after the append and the update")
	}
	// Appending to the result's last vector must move it, not overwrite
	// the cell the store's in-place append put behind it.
	grown := append(last.ints, -1)
	if &grown[0] == &last.ints[0] || live.Value(n+1, 0).AsInt() != int64(n+1) {
		t.Fatal("appending to a result vector wrote into the store")
	}
}

// sameCells reports whether two vectors start at the same cell of the
// same array.
func sameCells(a, b *Vec) bool {
	switch a.kind {
	case value.KindFloat:
		return len(a.floats) > 0 && len(b.floats) > 0 && &a.floats[0] == &b.floats[0]
	case value.KindString:
		return len(a.strs) > 0 && len(b.strs) > 0 && &a.strs[0] == &b.strs[0]
	}
	return len(a.ints) > 0 && len(b.ints) > 0 && &a.ints[0] == &b.ints[0]
}

// clipped reports whether a vector has no capacity past its length.
func clipped(v *Vec) bool {
	return cap(v.ints) == len(v.ints) && cap(v.floats) == len(v.floats) && cap(v.strs) == len(v.strs)
}
