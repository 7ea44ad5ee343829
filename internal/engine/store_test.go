package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
		if n, _ := snap.NumRows("T"); n != 1001 || !ResultsEqualBag(got, want) {
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
	if !ResultsEqualBag(gotA, wantA) || !ResultsEqualBag(gotB, wantB) {
		t.Fatal("databases Put from one relation did not stay independent")
	}
}

// TestAppendKindPromotion is sharing test (d), the kind rule at the
// store: a float widens an int column to float once — every earlier cell
// keeps its value, as a float — an int joins a float column as a float,
// versions pinned before the widening are untouched, and an emptied
// table decides its kinds again. Conform refuses any other foreign kind,
// and an int a float cannot hold exactly, with a *KindError naming the
// table, the column, the stored kind and the value, recording nothing;
// a delta that skipped Conform panics with the same error.
func TestAppendKindPromotion(t *testing.T) {
	db := NewDB()
	db.Put("T", relOf(intRows(0, 10)))
	before := db.Snapshot()
	db.Append("T", []value.Value{value.Float(2.5), value.Int(1), value.Str("s7")})
	db.Append("T", []value.Value{value.Int(11), value.Int(2), value.Str("s0")})

	got, _ := db.Get("T")
	want := intRows(0, 10)
	want = append(want, []value.Value{value.Float(2.5), value.Int(1), value.Str("s7")}, []value.Value{value.Int(11), value.Int(2), value.Str("s0")})
	for i, row := range got.Tuples {
		for c, v := range row {
			w := want[i][c]
			if c == 0 {
				w = value.Float(w.AsFloat())
			}
			if !sameCell(v, w) {
				t.Fatalf("cell (%d,%d) = %v (%s), want %v (%s)", i, c, v, v.Kind(), w, w.Kind())
			}
		}
	}
	ct, _, _ := db.Scan("T")
	if ct.cols[0].kind != value.KindFloat || ct.cols[1].kind != value.KindInt || ct.cols[2].kind != value.KindString {
		t.Fatalf("column kinds after widening: %v %v %v", ct.cols[0].kind, ct.cols[1].kind, ct.cols[2].kind)
	}
	old, _ := before.Relation("T")
	if !ResultsEqualBag(old, relOf(intRows(0, 10))) || old.Tuples[3][0].Kind() != value.KindInt {
		t.Fatal("widening disturbed a pinned version")
	}

	big := int64(1)<<53 + 1
	for _, tc := range []struct {
		name   string
		row    []value.Value
		col    string
		stored value.Kind
	}{
		{"a string in an int column", []value.Value{value.Int(1), value.Str("x"), value.Str("s")}, "g", value.KindInt},
		{"a bool in a string column", []value.Value{value.Int(1), value.Int(1), value.Bool(true)}, "s", value.KindString},
		{"an int past 2^53 in a float column", []value.Value{value.Int(big), value.Int(1), value.Str("s")}, "id", value.KindFloat},
	} {
		d := Delta{Append: [][]value.Value{intRows(0, 1)[0], tc.row}}
		err := ct.Conform("T", &d)
		var ke *KindError
		if !errors.As(err, &ke) || ke.Table != "T" || ke.Column != tc.col || ke.Stored != tc.stored || d.kinds != nil {
			t.Fatalf("%s: Conform = %v (recorded %v)", tc.name, err, d.kinds)
		}
	}
	// A float cannot widen an int column that holds an int past 2^53,
	// stored or arriving beside it.
	db.Put("B", relOf([][]value.Value{{value.Int(big), value.Int(0), value.Str("s")}}))
	bt, _, _ := db.Scan("B")
	if err := bt.Conform("B", &Delta{Append: [][]value.Value{{value.Float(1.5), value.Int(0), value.Str("s")}}}); !errors.As(err, new(*KindError)) {
		t.Fatalf("widening past 2^53: %v", err)
	}
	if err := ct.Conform("T", &Delta{Append: [][]value.Value{{value.Int(1), value.Int(big), value.Str("s")}, {value.Int(1), value.Float(0.5), value.Str("s")}}}); !errors.As(err, new(*KindError)) {
		t.Fatalf("widening beside an int past 2^53: %v", err)
	}
	func() {
		defer func() {
			if ke, ok := recover().(*KindError); !ok || ke.Column != "g" {
				t.Fatalf("an unchecked foreign kind: recovered %v", ke)
			}
		}()
		db.Append("T", []value.Value{value.Int(1), value.Str("x"), value.Str("s")})
	}()

	// An empty table has committed to no kind: the first rows decide —
	// also once every row is gone.
	db.Put("E", NewRelation("a"))
	db.Append("E", []value.Value{value.Str("x")})
	if ct, _, _ := db.Scan("E"); ct.cols[0].kind != value.KindString {
		t.Fatalf("first append into an empty table gave kind %v", ct.cols[0].kind)
	}
	e, _, _ := db.Scan("E")
	e = db.Apply([]Commit{{Name: "E", Base: e, Delta: Delta{Drop: []int32{0}}}})[0]
	d := Delta{Append: [][]value.Value{{value.Bool(true)}}}
	if err := e.Conform("E", &d); err != nil {
		t.Fatal(err)
	}
	if e = db.Apply([]Commit{{Name: "E", Base: e, Delta: d}})[0]; e.cols[0].kind != value.KindBool {
		t.Fatalf("first append into an emptied table gave kind %v", e.cols[0].kind)
	}
}

// ids reads the first column of an int-keyed table, in row order.
func idsOf(ct *ColTable) []int64 {
	var ids []int64
	for _, ch := range ct.cols[0].chunks {
		ids = append(ids, ch.ints...)
	}
	return ids
}

// TestApplyDelta pins the positional commit: Set copies only the chunks
// of the columns it changes and shares the rest by pointer, Drop
// rewrites from its first position's chunk on, in order, a base that is
// no longer installed is advanced by copy without touching what
// replaced it, and the store counters say which path ran.
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
	if v2.cols[0].chunks[0] != v1.cols[0].chunks[0] || v2.cols[2].chunks[0] != v1.cols[2].chunks[0] {
		t.Fatal("update copied a column it did not assign")
	}
	g1, g2 := v1.cols[1].chunks[0], v2.cols[1].chunks[0]
	if &g2.ints[0] == &g1.ints[0] {
		t.Fatal("update wrote the assigned column in place")
	}
	if g1.ints[2] != 2 || g2.ints[2] != 20 || g2.ints[5] != 50 {
		t.Fatal("update cells wrong")
	}
	// One chunk of one column rewritten: 8 cells of 8 bytes.
	if got := m.Volatile("engine.store.compact.bytes").Load(); got != 8*8 {
		t.Fatalf("compact.bytes=%d after a one-column update of 8 rows, want 64", got)
	}
	if c, s := m.Volatile("engine.store.chunks.copied").Load(), m.Volatile("engine.store.chunks.shared").Load(); c != 1 || s != 2 {
		t.Fatalf("chunks.copied=%d chunks.shared=%d after a one-column update of a one-chunk table, want 1 and 2", c, s)
	}

	// Drop rows 0, 3, 7 and append one.
	drop := Delta{Drop: []int32{0, 3, 7}, Append: intRows(100, 101)}
	v3 := db.Apply([]Commit{{Name: "T", Base: v2, Delta: drop}})[0]
	if fmt.Sprint(idsOf(v3)) != "[1 2 4 5 6 100]" {
		t.Fatalf("after drop+append ids=%v", idsOf(v3))
	}
	if v2.n != 8 || v2.cols[0].chunks[0].ints[0] != 0 {
		t.Fatal("drop disturbed the previous version")
	}

	// v2 is stale now: a commit against it must not write into arrays
	// v3 (or anything derived from it) can see.
	v3ids := idsOf(v3)
	v4 := db.Apply([]Commit{{Name: "T", Base: v2, Delta: Delta{Append: intRows(200, 203)}}})[0]
	if v4.n != 11 || idsOf(v4)[10] != 202 {
		t.Fatalf("stale-base commit built %d rows", v4.n)
	}
	if fmt.Sprint(idsOf(v3)) != fmt.Sprint(v3ids) {
		t.Fatal("stale-base commit wrote into a live version's cells")
	}
	if db.Version("T") != 4 {
		t.Fatalf("version=%d after four installs", db.Version("T"))
	}

	// The same over a table of four chunks: the cost is the chunks the
	// delta reaches, whatever the table holds.
	const rows = 3*chunkRows + 7
	db.Put("W", relOf(intRows(0, rows)))
	w1, _, _ := db.Scan("W")
	count := func(name string) func() int64 {
		last := m.Volatile(name).Load()
		return func() int64 {
			now := m.Volatile(name).Load()
			d := now - last
			last = now
			return d
		}
	}
	bytes, copied, shared := count("engine.store.compact.bytes"), count("engine.store.chunks.copied"), count("engine.store.chunks.shared")
	at := int32(chunkRows + 5)
	w2 := db.Apply([]Commit{{Name: "W", Base: w1, Delta: Delta{SetAt: []int32{at}, SetRows: [][]value.Value{
		{value.Int(int64(at)), value.Int(-1), value.Str(fmt.Sprintf("s%d", at%3))},
	}}}})[0]
	for k := range w1.cols[1].chunks {
		if same := w2.cols[1].chunks[k] == w1.cols[1].chunks[k]; same != (k != 1) {
			t.Fatalf("one-cell update: chunk %d of the assigned column shared=%v", k, same)
		}
	}
	if b, c, s := bytes(), copied(), shared(); b != 8*chunkRows || c != 1 || s != 3+4+4 {
		t.Fatalf("one-cell update of a four-chunk table: compact.bytes=%d chunks.copied=%d chunks.shared=%d, want %d, 1, 11", b, c, s, 8*chunkRows)
	}
	if w2.Value(int(at), 1) != value.Int(-1) || w1.Value(int(at), 1) != value.Int(int64(at%7)) {
		t.Fatal("one-cell update: cells wrong")
	}
	// The columns the update leaves as they are are the base's own, not
	// a copy of their chunk list.
	for _, c := range []int{0, 2} {
		if w2.cols[c] != w1.cols[c] {
			t.Fatalf("one-column update of a four-chunk table: column %d is not the base's own", c)
		}
	}

	// Dropping the last rows rewrites the last chunk of each column only:
	// 7 cells in, 4 out, at 8 + 8 + 16 bytes a row.
	w3 := db.Apply([]Commit{{Name: "W", Base: w2, Delta: Delta{Drop: []int32{rows - 3, rows - 2, rows - 1}}}})[0]
	if b, c, s := bytes(), copied(), shared(); b != 4*(8+8+16) || c != 3 || s != 3*3 {
		t.Fatalf("tail drop of a four-chunk table: compact.bytes=%d chunks.copied=%d chunks.shared=%d, want 128, 3, 9", b, c, s)
	}
	if w3.n != rows-3 || w3.cols[0].chunks[3].Len() != 4 || w2.cols[0].chunks[3].Len() != 7 {
		t.Fatalf("tail drop left %d rows", w3.n)
	}

	// Dropping row 0 is the worst case: every chunk is rewritten, and the
	// chunks stay full but the last.
	w4 := db.Apply([]Commit{{Name: "W", Base: w3, Delta: Delta{Drop: []int32{0}}}})[0]
	if b, c, s := bytes(), copied(), shared(); b != int64(w4.n)*(8+8+16) || c != 3*4 || s != 0 {
		t.Fatalf("head drop of a four-chunk table: compact.bytes=%d chunks.copied=%d chunks.shared=%d, want %d, 12, 0", b, c, s, int64(w4.n)*32)
	}
	ids := idsOf(w4)
	if len(ids) != rows-4 || ids[0] != 1 || ids[len(ids)-1] != rows-4 || w4.cols[0].chunks[0].Len() != chunkRows || w4.cols[0].chunks[3].Len() != 3 {
		t.Fatalf("head drop: %d ids from %d", len(ids), ids[0])
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

// TestLookupFindsEachRowsPartner holds Lookup to a nested loop under
// value.KeyEqual and Beside to the cells it gathers: a three-chunk table
// keyed by an int and by (int, string), probed with ints, integral and
// fractional floats, NaN and strings, some with no partner; and a
// float-keyed table probed with 1 for 1.0, -0 for 0 and NaN for NaN.
func TestLookupFindsEachRowsPartner(t *testing.T) {
	n := RowsSpanning(3)
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{value.Int(int64(2 * i)), value.Str(fmt.Sprintf("s%d", i%3)), value.Float(float64(i) / 2)}
	}
	d := BuildColTable(&Relation{Attrs: []string{"k", "s", "f"}, Tuples: rows})
	rng := rand.New(rand.NewSource(51))
	// A delta table's column holds one kind: the probes come as ints,
	// floats, or strings.
	draws := []func(x int64) value.Value{
		value.Int,
		func(x int64) value.Value {
			return []value.Value{value.Float(float64(x)), value.Float(float64(x) + 0.5), value.Float(math.NaN())}[rng.Intn(3)]
		},
		func(x int64) value.Value { return value.Str(fmt.Sprint(x)) },
	}
	check := func(what string, draw func(int64) value.Value, from, cols []int) {
		t.Helper()
		var keys [][]value.Value
		for range 40 {
			keys = append(keys, []value.Value{draw(int64(rng.Intn(2*n + 20))), value.Str(fmt.Sprintf("s%d", rng.Intn(3)))})
		}
		probe := BuildColTable(&Relation{Attrs: []string{"a", "b"}, Tuples: keys})
		at := d.Lookup(probe, from, cols, nil)
		for i, r := range keys {
			want := int32(-1)
			for p, dr := range rows {
				match := true
				for k := range cols {
					match = match && value.KeyEqual(dr[cols[k]], r[from[k]])
				}
				if match {
					want = int32(p)
					break
				}
			}
			if at[i] != want {
				t.Fatalf("%s: row %d (%v) found %d, want %d", what, i, r, at[i], want)
			}
		}
		joined := probe.Beside(d, []int{1, 2}, at)
		for i := range keys {
			for c := range 2 {
				got, want := joined.Value(i, 2+c), rows[max(at[i], 0)][1+c]
				if at[i] < 0 {
					want = []value.Value{value.Str(""), value.Float(0)}[c]
				}
				if !value.KeyEqual(got, want) || got.Kind() != want.Kind() {
					t.Fatalf("%s: row %d beside column %d is %v, want %v", what, i, c, got, want)
				}
			}
		}
	}
	for _, draw := range draws {
		check("int key", draw, []int{0}, []int{0})
		check("int and string key", draw, []int{0, 1}, []int{0, 1})
	}

	fd := BuildColTable(&Relation{Attrs: []string{"f"}, Tuples: [][]value.Value{{value.Float(1)}, {value.Float(0)}, {value.Float(math.NaN())}}})
	fk := BuildColTable(&Relation{Attrs: []string{"a"}, Tuples: [][]value.Value{{value.Int(1)}, {value.Float(math.Copysign(0, -1))}, {value.Float(math.NaN())}, {value.Int(2)}}})
	if at := fd.Lookup(fk, []int{0}, []int{0}, nil); fmt.Sprint(at) != "[0 1 2 -1]" {
		t.Fatalf("float key: %v, want [0 1 2 -1]", at)
	}
}

// modelRows is the plain row-major model the chunked store is held to.
type modelRows [][]value.Value

// apply returns base+delta by the definition in Delta's comment, each
// column then of one kind as the store holds it: where ints meet floats,
// every int is a float.
func (m modelRows) apply(d Delta) modelRows {
	rows := make(modelRows, len(m))
	copy(rows, m)
	for i, p := range d.SetAt {
		rows[p] = d.SetRows[i]
	}
	dropped := map[int32]bool{}
	for _, p := range d.Drop {
		dropped[p] = true
	}
	out := make(modelRows, 0, len(rows))
	for p, r := range rows {
		if !dropped[int32(p)] {
			out = append(out, r)
		}
	}
	out = append(out, d.Append...)
	for c := range widenedCols(out) {
		for i, r := range out {
			if r[c].Kind() == value.KindInt {
				out[i] = slices.Clone(r)
				out[i][c] = value.Float(r[c].AsFloat())
			}
		}
	}
	return out
}

// widenedCols returns the columns of rows in which ints meet floats.
func widenedCols(rows modelRows) map[int]bool {
	mixed := map[int]bool{}
	if len(rows) == 0 {
		return mixed
	}
	for c := range rows[0] {
		seen := map[value.Kind]bool{}
		for _, r := range rows {
			seen[r[c].Kind()] = true
		}
		if seen[value.KindInt] && seen[value.KindFloat] {
			mixed[c] = true
		}
	}
	return mixed
}

// modelRow draws a row of (int key, float with the odd NaN, string,
// int).
func modelRow(rng *rand.Rand, id int) []value.Value {
	f := value.Float(float64(rng.Intn(2000)) / 8)
	if rng.Intn(400) == 0 {
		f = value.Float(math.NaN())
	}
	return []value.Value{value.Int(int64(id)), f, value.Str(fmt.Sprintf("s%03d", rng.Intn(500))), value.Int(int64(rng.Intn(50)))}
}

// checkAgainstModel compares everything a reader can ask of ct with the
// model, and every chunk's recorded range with a recomputation.
func checkAgainstModel(t *testing.T, what string, ct *ColTable, want modelRows, rng *rand.Rand) {
	t.Helper()
	if ct.NumRows() != len(want) {
		t.Fatalf("%s: NumRows=%d, model has %d", what, ct.NumRows(), len(want))
	}
	got := ct.Relation().Tuples
	for i, row := range got {
		for c, v := range row {
			if !sameCell(v, want[i][c]) {
				t.Fatalf("%s: cell (%d,%d) = %v (%s), model %v (%s)", what, i, c, v, v.Kind(), want[i][c], want[i][c].Kind())
			}
		}
	}
	var bytes int64
	for c, col := range ct.cols {
		bytes += cellBytes(col.kind) * int64(len(want))
		if len(col.chunks) != morselCount(len(want)) {
			t.Fatalf("%s: column %d has %d chunks for %d rows", what, c, len(col.chunks), len(want))
		}
		for k, ch := range col.chunks {
			lo, hi := morselBounds(k, len(want))
			if ch.Len() != hi-lo || ch.kind != col.kind {
				t.Fatalf("%s: column %d chunk %d holds %d cells of kind %v, want %d of %v", what, c, k, ch.Len(), ch.kind, hi-lo, col.kind)
			}
			// The reference range, by boxed comparison (a NaN is the
			// greatest float); none when the column is bool or mixed.
			ranged := col.kind == value.KindInt || col.kind == value.KindFloat || col.kind == value.KindString
			rlo, rhi := want[lo][c], want[lo][c]
			for _, row := range want[lo:hi] {
				if value.Compare(row[c], rlo) < 0 {
					rlo = row[c]
				}
				if value.Compare(row[c], rhi) > 0 {
					rhi = row[c]
				}
			}
			if ch.ranged != ranged || ranged && (value.Compare(ch.lo, rlo) != 0 || value.Compare(ch.hi, rhi) != 0) {
				t.Fatalf("%s: column %d chunk %d range ranged=%v [%v, %v], recomputed ranged=%v [%v, %v]", what, c, k, ch.ranged, ch.lo, ch.hi, ranged, rlo, rhi)
			}
		}
	}
	if ct.Bytes() != bytes {
		t.Fatalf("%s: Bytes=%d, want %d", what, ct.Bytes(), bytes)
	}
	if len(want) == 0 {
		return
	}
	pos := make([]int32, 5)
	for i := range pos {
		pos[i] = int32(rng.Intn(len(want)))
	}
	for i, row := range ct.rows(pos) {
		for c, v := range row {
			if !sameCell(v, want[pos[i]][c]) {
				t.Fatalf("%s: Rows(%d) cell %d = %v, model %v", what, pos[i], c, v, want[pos[i]][c])
			}
		}
	}
	// Locate finds distinct ascending positions holding the asked rows
	// (keys are unique, so the positions are the asked ones).
	asked := map[int32]bool{}
	var rows [][]value.Value
	for _, p := range pos {
		if !asked[p] {
			asked[p] = true
			rows = append(rows, want[p])
		}
	}
	found, ok := ct.Locate(rows)
	if !ok || len(found) != len(rows) {
		t.Fatalf("%s: Locate(%v) = %v, %v", what, pos, found, ok)
	}
	for i, p := range found {
		if !asked[p] || i > 0 && found[i-1] >= p {
			t.Fatalf("%s: Locate(%v) = %v", what, pos, found)
		}
	}
}

// TestChunkedStoreMatchesModel drives seeded random Set/Drop/Append
// deltas through the chunked store — by copy (With) and through DB.Apply
// (owned: the last chunk is extended in place) — beside a plain row-major
// model, at sizes on every side of a chunk boundary, and after every
// step compares all a reader can see. Every version pinned along the way
// must go on reading exactly what it read when pinned: sharing chunks
// between versions is sound only if no derivation writes a cell an
// earlier version can address. (A clobbered cell stays clobbered, so the
// pinned versions are re-read every third step and after the last.)
func TestChunkedStoreMatchesModel(t *testing.T) {
	attrs := []string{"id", "f", "s", "x"}
	for _, size := range []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 3*chunkRows + 7} {
		for _, owned := range []bool{false, true} {
			what := fmt.Sprintf("size %d owned=%v", size, owned)
			rng := rand.New(rand.NewSource(int64(size)*2 + 1))
			nextID := 0
			fresh := func(n int) [][]value.Value {
				rows := make([][]value.Value, n)
				for i := range rows {
					rows[i] = modelRow(rng, nextID)
					nextID++
				}
				return rows
			}
			model := modelRows(fresh(size))
			db := NewDB()
			db.Put("T", &Relation{Attrs: attrs, Tuples: model})
			cur, _, _ := db.Scan("T")
			checkAgainstModel(t, what+" initially", cur, model, rng)

			type pin struct {
				read func() *Relation
				want modelRows
				step int
			}
			var pins []pin
			const steps = 30
			for step := 0; step < steps; step++ {
				var d Delta
				n := len(model)
				taken := map[int32]bool{}
				pick := func(k int) []int32 {
					var ps []int32
					for len(ps) < k && len(taken) < n {
						p := int32(rng.Intn(n))
						if step%3 == 0 {
							p = int32(n - 1 - rng.Intn(min(n, 20))) // recent rows
						}
						if !taken[p] {
							taken[p] = true
							ps = append(ps, p)
						}
					}
					return ps
				}
				// rewrite returns row p with fresh non-key cells.
				rewrite := func(p int32) []value.Value {
					return append([]value.Value{model[p][0]}, modelRow(rng, 0)[1:]...)
				}
				switch step % 6 {
				case 0, 1: // UPDATE
					d.SetAt = pick(1 + rng.Intn(8))
					for _, p := range d.SetAt {
						row := rewrite(p)
						switch step {
						case 6: // changes no cell
							row = model[p]
						case 25: // an int into the float column
							row[1] = value.Int(7)
						}
						d.SetRows = append(d.SetRows, row)
					}
				case 2: // DELETE
					d.Drop = pick(1 + rng.Intn(8))
				case 3: // everything at once
					d.SetAt = pick(rng.Intn(4))
					for _, p := range d.SetAt {
						d.SetRows = append(d.SetRows, rewrite(p))
					}
					d.Drop = pick(rng.Intn(6))
					d.Append = fresh(rng.Intn(chunkRows + 40))
				case 4: // INSERT
					d.Append = fresh(1 + rng.Intn(40))
					if step == 22 { // widens the last column to float
						d.Append[0][3] = value.Float(0.5)
					}
				default: // now and then drop everything, then append
					if step == 11 {
						d.Drop = pick(n)
					}
					d.Append = fresh(rng.Intn(2 * chunkRows))
				}
				sort.Slice(d.Drop, func(i, j int) bool { return d.Drop[i] < d.Drop[j] })

				prev, prevModel := cur, model
				model = model.apply(d)
				if owned {
					cur = db.Apply([]Commit{{Name: "T", Base: cur, Delta: d}})[0]
				} else {
					cur = cur.With(d)
				}
				checkAgainstModel(t, fmt.Sprintf("%s step %d", what, step), cur, model, rng)

				if step%5 == 0 {
					p := pin{want: model, step: step}
					if owned {
						snap := db.Snapshot()
						p.read = func() *Relation { r, _ := snap.Relation("T"); return r }
					} else {
						p.read = cur.Relation
					}
					pins = append(pins, p)
				}
				if step%4 == 1 {
					// A sibling off the base just replaced: its appended cells
					// must not land where cur's did.
					sd := Delta{Append: fresh(3)}
					sib := prev.With(sd)
					checkAgainstModel(t, fmt.Sprintf("%s step %d sibling", what, step), sib, prevModel.apply(sd), rng)
					checkAgainstModel(t, fmt.Sprintf("%s step %d after its sibling", what, step), cur, model, rng)
					pins = append(pins, pin{read: sib.Relation, want: prevModel.apply(sd), step: step})
				}
				if step%3 != 2 && step != steps-1 {
					continue
				}
				for _, p := range pins {
					got := p.read().Tuples
					if len(got) != len(p.want) {
						t.Fatalf("%s step %d: the version pinned at step %d now has %d rows, had %d", what, step, p.step, len(got), len(p.want))
					}
					for i, row := range got {
						for c, v := range row {
							if !sameCell(v, p.want[i][c]) {
								t.Fatalf("%s step %d: the version pinned at step %d now reads %v at (%d,%d), read %v", what, step, p.step, v, i, c, p.want[i][c])
							}
						}
					}
				}
			}
		}
	}
}
