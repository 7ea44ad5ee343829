package engine

// Unit tests of the direct-addressed tables' edges: range arithmetic
// that cannot wrap, build columns without a usable range, probe keys
// outside the table, and what a direct morsel leaves in a scratch.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// TestNarrowSpanCannotWrap pins the span test at its bounds: a range is
// narrow up to directSpan cells and no further, wherever in int64 it
// lies, and the widest range of all is 2^64-1 cells wide — not the -1 a
// signed hi - lo would make of it.
func TestNarrowSpanCannotWrap(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		want   bool
	}{
		{7, 7, true},
		{0, directSpan - 1, true},
		{0, directSpan, false},
		{-1, directSpan - 2, true},
		{-1, directSpan - 1, false},
		{math.MaxInt64 - directSpan + 1, math.MaxInt64, true},
		{math.MaxInt64 - directSpan, math.MaxInt64, false},
		{math.MinInt64, math.MinInt64 + directSpan - 1, true},
		{math.MinInt64, math.MinInt64 + directSpan, false},
		{math.MinInt64, math.MaxInt64, false},
		{math.MinInt64, 0, false},
		{-1, math.MaxInt64, false},
		{-(1 << 62), 1 << 62, false},
	} {
		if got := narrow(tc.lo, tc.hi); got != tc.want {
			t.Errorf("narrow(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestExtremeKeysTakeTheHashPath groups and joins on a column holding
// math.MinInt64 and math.MaxInt64: both take the hash path and answer as
// the references do.
func TestExtremeKeysTakeTheHashPath(t *testing.T) {
	ctx := context.Background()
	src := ir.MapSource{"R": {"A", "B"}, "S": {"E", "F"}}
	r, s := NewRelation("A", "B"), NewRelation("E", "F")
	ends := []int64{math.MinInt64, math.MaxInt64, 0, math.MaxInt64, math.MinInt64, -1}
	for i := 0; i < 3000; i++ {
		r.Add(value.Int(ends[i%len(ends)]), value.Int(int64(i)))
	}
	for i, x := range ends[:3] {
		s.Add(value.Int(x), value.Int(int64(i)))
	}
	db := NewDB()
	db.Put("R", r)
	db.Put("S", s)
	ev := NewEvaluator(db, nil)
	ev.Metrics = obs.NewMetrics()

	groupQ := ir.MustBuild("SELECT A, COUNT(B), MIN(B) FROM R GROUP BY A", src)
	got, err := ev.ExecContext(ctx, groupQ)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rowAggRef(groupQ, r.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
		t.Errorf("grouped by the ends of int64: %v, reference %v", got.Tuples, want.Tuples)
	}
	if d, h := ev.Metrics.Counter("engine.agg.morsels_direct").Load(), ev.Metrics.Counter("engine.agg.morsels_hashed").Load(); d != 0 || h != 3 {
		t.Errorf("%d morsels grouped directly and %d by hashing, want 0 and 3", d, h)
	}

	joinQ := ir.MustBuild("SELECT B, F FROM R, S WHERE A = E", src)
	out, err := ev.ExecContext(ctx, joinQ)
	if err != nil {
		t.Fatal(err)
	}
	pairs := nestedLoopJoin(r.Tuples, s.Tuples, []int{0}, []int{0})
	if len(out.Tuples) != len(pairs) || len(pairs) != 2500 {
		t.Fatalf("%d joined rows, reference %d, want 2500", len(out.Tuples), len(pairs))
	}
	for k, p := range pairs {
		if out.Tuples[k][0].AsInt() != int64(p[0]) || out.Tuples[k][1].AsInt() != int64(p[1]) {
			t.Fatalf("pair %d is %v, reference %v", k, out.Tuples[k], p)
		}
	}
	if d, h := ev.Metrics.Counter("engine.join.keys_direct").Load(), ev.Metrics.Counter("engine.join.keys_hashed").Load(); d != 0 || h != 1 {
		t.Errorf("%d joins keyed directly and %d by hashing, want 0 and 1", d, h)
	}
}

// TestBuildColumnWithoutRangeFallsBack: a build column that is not int,
// holds an unranged chunk or has no chunk is keyed as before the direct
// table existed — by hashing when both sides are int, through the key
// bytes otherwise — and so is a narrow int column met by a float one.
func TestBuildColumnWithoutRangeFallsBack(t *testing.T) {
	ints := columnOf([][]value.Value{{value.Int(3)}, {value.Int(9)}}, 0, value.KindInt)
	bools := columnOf([][]value.Value{{value.Bool(true)}, {value.Bool(false)}}, 0, value.KindBool)
	floats := columnOf([][]value.Value{{value.Float(3)}, {value.Float(9)}}, 0, value.KindFloat)
	unranged := columnOf([][]value.Value{{value.Int(3)}, {value.Int(9)}}, 0, value.KindInt)
	unranged.chunks[0].ranged = false
	empty := &column{kind: value.KindInt}
	for _, tc := range []struct {
		name         string
		build, probe *column
		want         keying
	}{
		{"narrow int", ints, ints, keying{ints: true, direct: true, lo: 3, hi: 9}},
		{"unranged chunk", unranged, ints, keying{ints: true}},
		{"no chunk", empty, ints, keying{ints: true}},
		{"bool build column", bools, bools, keying{}},
		{"float probe column", ints, floats, keying{}},
		{"float build column", floats, ints, keying{}},
		{"pruned column", nil, ints, keying{}},
	} {
		if got := keyingOf([]*column{tc.build}, []*column{tc.probe}); got != tc.want {
			t.Errorf("%s: keying %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if got := keyingOf([]*column{ints, ints}, []*column{ints, ints}); got != (keying{}) {
		t.Errorf("two key pairs: keying %+v, want the byte encoding", got)
	}
	if _, _, ok := bools.intRange(); ok {
		t.Error("a bool column reports an int range")
	}
}

// TestDirectAbsentProbeKey: a probe key the direct table does not cover
// — below lo, above hi, at either end of int64, where x - lo wraps — is
// absent (-1), exactly as the hash table answers it, and a key inside
// the range that the build side never held is absent too.
func TestDirectAbsentProbeKey(t *testing.T) {
	build := []int64{10, 12, 12, 19, 10}
	probe := []int64{10, 11, 12, 19, 20, 9, -1, 0, math.MinInt64, math.MaxInt64, math.MinInt64 + 10, 10 + directSpan, 10 - directSpan}
	idx := func(n int) []int32 { return iota32[:n] }
	var ids [2][]int32
	for v, k := range []keying{{ints: true, direct: true, lo: 10, hi: 19}, {ints: true}} {
		jk := newJoinKeys(k, len(build))
		built := make([]int32, len(build))
		jk.intIDs(build, idx(len(build)), built, true)
		if fmt.Sprint(built) != "[0 1 1 2 0]" || jk.n != 3 {
			t.Fatalf("keying %+v numbers the build keys %v (%d ids), want [0 1 1 2 0]", k, built, jk.n)
		}
		ids[v] = make([]int32, len(probe))
		jk.intIDs(probe, idx(len(probe)), ids[v], false)
		if jk.n != 3 {
			t.Fatalf("keying %+v: a lookup added a key", k)
		}
		jk.free()
	}
	if want := "[0 -1 1 2 -1 -1 -1 -1 -1 -1 -1 -1 -1]"; fmt.Sprint(ids[0]) != want || fmt.Sprint(ids[1]) != want {
		t.Errorf("probe ids: direct %v, hash %v, want %s", ids[0], ids[1], want)
	}

	// A table at the top of int64: the farthest key below it, MinInt64, is
	// 2^64-1 away, which is 1 modulo 2^64 — still past a table that can be
	// at most MaxInt64 - lo + 1 cells long.
	for _, lo := range []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - directSpan + 1} {
		jk := newJoinKeys(keying{ints: true, direct: true, lo: lo, hi: math.MaxInt64}, 1)
		one := make([]int32, 1)
		jk.intIDs([]int64{math.MaxInt64}, idx(1), one, true)
		far := []int64{math.MinInt64, math.MinInt64 + 1, lo - 1, -1, 0, math.MaxInt64}
		got := make([]int32, len(far))
		jk.intIDs(far, idx(len(far)), got, false)
		if fmt.Sprint(got) != "[-1 -1 -1 -1 -1 0]" {
			t.Errorf("table [%d, MaxInt64]: probe ids %v, want every key but MaxInt64 absent", lo, got)
		}
		jk.free()
	}
}

// TestScratchLeavesNoStaleIDs is the regression test for the direct
// table's lifetime: it lives in the worker's scratch and is cleared only
// over the cells the next morsel's range covers, so a morsel grouped
// directly must leave nothing a later query borrowing that scratch can
// read — whether its keys overlap the earlier range, lie inside it, or
// reuse its offsets for other keys.
func TestScratchLeavesNoStaleIDs(t *testing.T) {
	src := ir.MapSource{"R": {"A", "B"}}
	q := ir.MustBuild("SELECT A, COUNT(B), SUM(B) FROM R GROUP BY A", src)
	table := func(lo, n int64) [][]value.Value {
		rows := make([][]value.Value, 700)
		for i := range rows {
			rows[i] = []value.Value{value.Int(lo + (int64(i)*7)%n), value.Int(int64(i))}
		}
		return rows
	}
	// Each query's range against the one before it: fresh, overlapping
	// above, inside, same offsets for other keys, overlapping below, wide
	// (hashed, the table untouched), then narrow again.
	tables := [][][]value.Value{table(0, 100), table(50, 100), table(60, 10), table(1000, 100), table(-40, 100), table(0, 1<<40), table(20, 30)}
	m := obs.NewMetrics()
	for round := 0; round < 20; round++ {
		for k, rows := range tables {
			want, err := rowAggRef(q, rows)
			if err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator(NewDB(), nil)
			ev.Workers, ev.Metrics = 1, m // one worker: every query borrows the scratch the last one returned
			out := &Relation{}
			if err := ev.aggregateBatch(newTask(context.Background()), q, batchFromRows(rows, 2), nil, true, out); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(out.Tuples) != fmt.Sprint(want.Tuples) {
				t.Fatalf("round %d table %d: groups %v, reference %v", round, k, out.Tuples, want.Tuples)
			}
		}
	}
	if d, h := m.Counter("engine.agg.morsels_direct").Load(), m.Counter("engine.agg.morsels_hashed").Load(); d != 20*6 || h != 20 {
		t.Errorf("%d morsels grouped directly and %d by hashing, want 120 and 20", d, h)
	}
}

// TestNestedExecReleasesOnlyItsOwn: the index vectors a query draws
// through its task go back when its exec returns — and only those: a
// nested execution (a view materialised inside a query) marks the held
// list at its entry, so what the outer level drew before stays held,
// intact, until the outer level releases it.
func TestNestedExecReleasesOnlyItsOwn(t *testing.T) {
	src := ir.MapSource{"R": {"A", "B"}, "S": {"E", "F"}}
	r, s := NewRelation("A", "B"), NewRelation("E", "F")
	for i := 0; i < 3000; i++ {
		r.Add(value.Int(int64(i%50)), value.Int(int64(i)))
	}
	for i := 0; i < 40; i++ {
		s.Add(value.Int(int64(i)), value.Int(int64(i%3)))
	}
	db := NewDB()
	db.Put("R", r)
	db.Put("S", s)
	ev := NewEvaluator(db, nil)
	// A filter on each side, a join and a residual: selections, pairs and
	// composed selections are all drawn.
	q := ir.MustBuild("SELECT F, COUNT(B) FROM R, S WHERE A = E AND B > 10 AND F < 2 AND B <> F GROUP BY F", src)

	task := newTask(context.Background())
	outer := task.i32(morselRows)
	for i := range outer {
		outer[i] = int32(-i)
	}
	wantCols, err := ev.run(newTask(context.Background()), NewPlan(q))
	if err != nil {
		t.Fatal(err)
	}
	want := wantCols.Relation()
	for i := 0; i < 5; i++ {
		gotCols, err := ev.run(task, NewPlan(q))
		if err != nil {
			t.Fatal(err)
		}
		got := gotCols.Relation()
		if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
			t.Fatalf("run %d under a task that holds a vector: %v, want %v", i, got.Tuples, want.Tuples)
		}
		if len(task.held) != 1 || &(*task.held[0])[0] != &outer[0] {
			t.Fatalf("run %d: the task holds %d vectors after a nested exec, want the outer one alone", i, len(task.held))
		}
		for j, x := range outer {
			if x != int32(-j) {
				t.Fatalf("run %d: the nested exec wrote cell %d of the outer level's vector", i, j)
			}
		}
	}
	task.release(0)
	if len(task.held) != 0 {
		t.Fatalf("the task still holds %d vectors after release(0)", len(task.held))
	}
}
