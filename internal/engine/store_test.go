package engine

import (
	"fmt"
	"sync"
	"testing"

	"aggview/internal/obs"
	"aggview/internal/value"
)

func intRows(lo, hi int) [][]value.Value {
	var rows [][]value.Value
	for i := lo; i < hi; i++ {
		rows = append(rows, []value.Value{value.Int(int64(i)), value.Int(int64(i % 7)), value.Str(fmt.Sprintf("s%d", i%3))})
	}
	return rows
}

func relOf(rows [][]value.Value) *Relation {
	return &Relation{Attrs: []string{"id", "g", "s"}, Tuples: rows}
}

// TestSnapshotIsolatedFromInPlaceAppends is sharing test (a): a snapshot
// pinned at n rows keeps reading exactly those rows while a writer
// extends the same backing arrays in place under it (run with -race).
func TestSnapshotIsolatedFromInPlaceAppends(t *testing.T) {
	m := obs.NewMetrics()
	db := NewDB()
	db.SetMetrics(m)
	db.Put("T", relOf(intRows(0, 1000)))
	// The first append outgrows the exactly-sized vectors; from then on
	// there is spare capacity to extend into.
	db.Append("T", intRows(1000, 1001)...)
	snap := db.Snapshot()
	want := relOf(intRows(0, 1001))

	const appends = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < appends; k++ {
			db.Append("T", intRows(2000+k, 2001+k)...)
		}
	}()
	for i := 0; i < 50; i++ {
		got, _ := snap.Relation("T")
		if n, _ := snap.NumRows("T"); n != 1001 || !MultisetEqual(got, want) {
			t.Fatalf("read %d: pinned snapshot changed under concurrent appends (%d rows)", i, n)
		}
	}
	wg.Wait()
	if n, _ := db.NumRows("T"); n != 1001+appends {
		t.Fatalf("live table has %d rows, want %d", n, 1001+appends)
	}
	inplace := m.Volatile("engine.store.append.inplace").Load()
	copied := m.Volatile("engine.store.append.copied").Load()
	if inplace+copied != appends+1 || inplace < appends*3/4 {
		t.Fatalf("append.inplace=%d append.copied=%d over %d appends: growth is not amortised", inplace, copied, appends+1)
	}
}

// TestPutNeverSharesBuffers is sharing test (b): two databases Put from
// one *Relation diverge independently under Append, and a later change
// to the relation is observed by neither.
func TestPutNeverSharesBuffers(t *testing.T) {
	rel := relOf(intRows(0, 100))
	a, b := NewDB(), NewDB()
	a.Put("T", rel)
	b.Put("T", rel)
	for k := 0; k < 40; k++ {
		a.Append("T", intRows(1000+k, 1001+k)...)
		b.Append("T", intRows(5000+k, 5001+k)...)
	}
	rel.Tuples[0][0] = value.Int(-1)
	rel.Add(value.Int(-2), value.Int(0), value.Str("x"))

	wantA := relOf(append(intRows(0, 100), intRows(1000, 1040)...))
	wantB := relOf(append(intRows(0, 100), intRows(5000, 5040)...))
	gotA, _ := a.Get("T")
	gotB, _ := b.Get("T")
	if !MultisetEqual(gotA, wantA) || !MultisetEqual(gotB, wantB) {
		t.Fatal("databases Put from one relation did not stay independent")
	}
}

// TestAppendKindPromotion is sharing test (d): a value of another kind
// promotes its column to mixed once, every earlier cell keeps its exact
// boxed value, and versions pinned before the promotion are untouched.
func TestAppendKindPromotion(t *testing.T) {
	db := NewDB()
	db.Put("T", relOf(intRows(0, 10)))
	before := db.Snapshot()
	db.Append("T", []value.Value{value.Float(2.5), value.Int(1), value.Int(7)})
	db.Append("T", []value.Value{value.Str("k"), value.Int(2), value.Str("s0")})

	got, _ := db.Get("T")
	want := intRows(0, 10)
	want = append(want, []value.Value{value.Float(2.5), value.Int(1), value.Int(7)}, []value.Value{value.Str("k"), value.Int(2), value.Str("s0")})
	for i, row := range got.Tuples {
		for c, v := range row {
			if v != want[i][c] {
				t.Fatalf("cell (%d,%d) = %v (%s), want %v (%s)", i, c, v, v.Kind(), want[i][c], want[i][c].Kind())
			}
		}
	}
	ct, _, _ := db.Scan("T")
	if ct.cols[0].kind != kindMixed || ct.cols[1].kind != value.KindInt || ct.cols[2].kind != kindMixed {
		t.Fatalf("column kinds after promotion: %v %v %v", ct.cols[0].kind, ct.cols[1].kind, ct.cols[2].kind)
	}
	old, _ := before.Relation("T")
	if !MultisetEqual(old, relOf(intRows(0, 10))) {
		t.Fatal("promotion disturbed a pinned version")
	}

	// An empty table has committed to no kind: the first rows decide.
	db.Put("E", NewRelation("a"))
	db.Append("E", []value.Value{value.Str("x")})
	if ct, _, _ := db.Scan("E"); ct.cols[0].kind != value.KindString {
		t.Fatalf("first append into an empty table gave kind %v", ct.cols[0].kind)
	}
}

// TestApplyDelta pins the positional commit: Set copies only the
// columns it changes and shares the rest, Drop compacts in order, a
// base that is no longer installed is advanced by copy without touching
// what replaced it, and the store counters say which path ran.
func TestApplyDelta(t *testing.T) {
	m := obs.NewMetrics()
	db := NewDB()
	db.SetMetrics(m)
	db.Put("T", relOf(intRows(0, 8)))
	v1, _, _ := db.Scan("T")

	// Update g of rows 2 and 5; id and s are not assigned.
	set := Delta{SetAt: []int32{5, 2}, SetRows: [][]value.Value{
		{value.Int(5), value.Int(50), value.Str("s2")},
		{value.Int(2), value.Int(20), value.Str("s2")},
	}}
	v2 := db.Apply([]Commit{{Name: "T", Base: v1, Delta: set}})[0]
	if &v2.cols[0].ints[0] != &v1.cols[0].ints[0] || &v2.cols[2].strs[0] != &v1.cols[2].strs[0] {
		t.Fatal("update copied a column it did not assign")
	}
	if &v2.cols[1].ints[0] == &v1.cols[1].ints[0] {
		t.Fatal("update wrote the assigned column in place")
	}
	if v1.cols[1].ints[2] != 2 || v2.cols[1].ints[2] != 20 || v2.cols[1].ints[5] != 50 {
		t.Fatal("update cells wrong")
	}
	if got := m.Volatile("engine.store.compact.bytes").Load(); got != 8*8 {
		t.Fatalf("compact.bytes=%d after a one-column update of 8 rows, want 64", got)
	}

	// Drop rows 0, 3, 7 and append one.
	drop := Delta{Drop: []int32{0, 3, 7}, Append: intRows(100, 101)}
	v3 := db.Apply([]Commit{{Name: "T", Base: v2, Delta: drop}})[0]
	var ids []int64
	for i := 0; i < v3.n; i++ {
		ids = append(ids, v3.cols[0].ints[i])
	}
	if fmt.Sprint(ids) != "[1 2 4 5 6 100]" {
		t.Fatalf("after drop+append ids=%v", ids)
	}
	if v2.n != 8 || v2.cols[0].ints[0] != 0 {
		t.Fatal("drop disturbed the previous version")
	}

	// v2 is stale now: a commit against it must not write into arrays
	// v3 (or anything derived from it) can see.
	v3ids := append([]int64{}, v3.cols[0].ints[:v3.n]...)
	v4 := db.Apply([]Commit{{Name: "T", Base: v2, Delta: Delta{Append: intRows(200, 203)}}})[0]
	if v4.n != 11 || v4.cols[0].ints[10] != 202 {
		t.Fatalf("stale-base commit built %d rows", v4.n)
	}
	for i, id := range v3ids {
		if v3.cols[0].ints[i] != id {
			t.Fatal("stale-base commit wrote into a live version's cells")
		}
	}
	if db.Version("T") != 4 {
		t.Fatalf("version=%d after four installs", db.Version("T"))
	}
}

// TestLocate pins the value probe behind value-only deletes: multiset
// semantics, value.Key equality (1 matches 1.0), and absence.
func TestLocate(t *testing.T) {
	rows := intRows(0, 20)
	rows = append(rows, intRows(4, 5)...) // row id=4 twice
	ct := BuildColTable(relOf(rows))
	row := func(id int) []value.Value { return intRows(id, id+1)[0] }

	pos, ok := ct.Locate([][]value.Value{row(7), row(4), row(4)})
	if !ok || fmt.Sprint(pos) != "[4 7 20]" {
		t.Fatalf("Locate = %v, %v", pos, ok)
	}
	if _, ok := ct.Locate([][]value.Value{row(4), row(4), row(4)}); ok {
		t.Fatal("a row present twice was found three times")
	}
	if _, ok := ct.Locate([][]value.Value{{value.Int(7), value.Int(1), value.Str("s1")}}); ok {
		t.Fatal("a row differing in a later column was found")
	}
	asFloat := []value.Value{value.Float(7), value.Float(0), value.Str("s1")}
	if pos, ok := ct.Locate([][]value.Value{asFloat}); !ok || pos[0] != 7 {
		t.Fatalf("1.0-vs-1 probe = %v, %v", pos, ok)
	}
	if _, ok := ct.Locate([][]value.Value{{value.Str("7"), value.Int(0), value.Str("s1")}}); ok {
		t.Fatal("a string matched an int column")
	}

	// First columns that are neither int nor string take the boxed path.
	fl := BuildColTable(&Relation{Attrs: []string{"f", "x"}, Tuples: [][]value.Value{
		{value.Float(1.5), value.Int(1)}, {value.Float(2), value.Int(2)}, {value.Float(1.5), value.Int(3)},
	}})
	if pos, ok := fl.Locate([][]value.Value{{value.Float(1.5), value.Int(3)}, {value.Int(2), value.Int(2)}}); !ok || fmt.Sprint(pos) != "[1 2]" {
		t.Fatalf("float-first probe = %v, %v", pos, ok)
	}
}
