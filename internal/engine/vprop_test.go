package engine

// Property tests pinning each batch kernel to its row-at-a-time
// reference on random inputs: the filter kernel against predHolds, the
// expression kernel against evalScalar, and the vectorized group-by
// fold against accum.fold. Every trial runs serially and with a
// multi-worker pool (inputs are sized past minParallelRows so the
// morsel loop genuinely fans out), and the suite is meant to be run
// under -race as well — the morsel slots and the serial merge are the
// engine's whole determinism argument.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// propWorkers are the pool sizes every property trial compares: serial
// and a fan-out wide enough that 8k-row inputs split across workers
// even after workersFor's per-worker input floor.
var propWorkers = []int{1, 4}

// randCell draws one random cell of the column's kind class.
func randCell(rng *rand.Rand, class int) value.Value {
	switch class {
	case 0: // small-domain ints: collisions for grouping and equality
		return value.Int(int64(rng.Intn(5)))
	case 1: // floats, half of them integral so 2.0 meets 2 across kinds
		f := float64(rng.Intn(5))
		if rng.Intn(2) == 0 {
			f += 0.5
		}
		return value.Float(f)
	case 2:
		return value.Str(string(rune('a' + rng.Intn(4))))
	case 3:
		return value.Bool(rng.Intn(2) == 0)
	default: // mixed column: int or float per cell
		if rng.Intn(2) == 0 {
			return value.Int(int64(rng.Intn(5)))
		}
		return value.Float(float64(rng.Intn(5)))
	}
}

// randRows builds n random full-width rows; each column draws a kind
// class, so batches mix typed and boxed vectors.
func randRows(rng *rand.Rand, width, n int) [][]value.Value {
	classes := make([]int, width)
	for c := range classes {
		classes[c] = rng.Intn(5)
	}
	rows := make([][]value.Value, n)
	for i := range rows {
		row := make([]value.Value, width)
		for c := range row {
			row[c] = randCell(rng, classes[c])
		}
		rows[i] = row
	}
	return rows
}

// propSize mixes inputs below and above the parallel threshold.
func propSize(rng *rand.Rand, trial int) int {
	if trial%3 == 0 {
		return rng.Intn(200) // serial path, including empty
	}
	return 8192 + rng.Intn(512) // multi-worker morsel path
}

func randTerm(rng *rand.Rand, width int) ir.Term {
	if rng.Intn(3) == 0 {
		return ir.ConstTerm(randCell(rng, rng.Intn(5)))
	}
	return ir.ColTerm(ir.ColID(rng.Intn(width)))
}

// sameValue compares cells strictly: same kind and same canonical key.
func sameValue(a, b value.Value) bool {
	return a.Kind() == b.Kind() && a.Key() == b.Key()
}

// TestFilterKernelMatchesReference holds the vectorized predicate
// kernel to predHolds: the selection it produces must list exactly the
// rows the row-at-a-time reference keeps, in row order, at every
// worker count.
func TestFilterKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ops := []ir.Op{ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq}
	for trial := 0; trial < 120; trial++ {
		width := 2 + rng.Intn(3)
		rows := randRows(rng, width, propSize(rng, trial))
		b := batchFromRows(rows, width)
		preds := make([]ir.Pred, 1+rng.Intn(3))
		for i := range preds {
			preds[i] = ir.Pred{
				Op: ops[rng.Intn(len(ops))],
				L:  randTerm(rng, width),
				R:  randTerm(rng, width),
			}
		}

		var want []int32
		for i, row := range rows {
			keep := true
			for _, p := range preds {
				ok, err := predHolds(p, row)
				if err != nil {
					t.Fatalf("trial %d: reference errored: %v", trial, err)
				}
				if !ok {
					keep = false
					break
				}
			}
			if keep {
				want = append(want, int32(i))
			}
		}

		for _, w := range propWorkers {
			ev := NewEvaluator(NewDB(), nil)
			ev.Workers = w
			got, err := ev.filterSel(newTask(context.Background()), "scan", b, preds, ev.scanMorsels(b, preds))
			if err != nil {
				t.Fatalf("trial %d workers %d: kernel errored: %v", trial, w, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d workers %d: kept %d rows, reference kept %d (preds %v)",
					trial, w, len(got), len(want), preds)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("trial %d workers %d: selection[%d] = %d, reference %d",
						trial, w, j, got[j], want[j])
				}
			}
		}
	}
}

// randExpr builds a random aggregate-free expression tree.
func randExpr(rng *rand.Rand, width, depth int) ir.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(3) == 0 {
			return &ir.Const{Val: randCell(rng, rng.Intn(5))}
		}
		return &ir.ColRef{Col: ir.ColID(rng.Intn(width))}
	}
	ops := []ir.ArithOp{ir.ArithAdd, ir.ArithSub, ir.ArithMul, ir.ArithDiv}
	return &ir.Arith{
		Op: ops[rng.Intn(len(ops))],
		L:  randExpr(rng, width, depth-1),
		R:  randExpr(rng, width, depth-1),
	}
}

// evalCells evaluates e over every row of the batch, morsel by morsel as
// the engine does, and boxes the cells.
func evalCells(e ir.Expr, b *Batch) ([]value.Value, error) {
	w := new(scratch)
	out := make([]value.Value, 0, b.n)
	for m := 0; m < morselCount(b.n); m++ {
		lo, hi := morselBounds(m, b.n)
		rs := w.rows(b, lo, hi)
		o, err := evalVop(e, b, rs)
		if err != nil {
			return nil, err
		}
		for j := 0; j < rs.n(); j++ {
			out = append(out, o.Value(j))
		}
	}
	return out, nil
}

// TestExprKernelMatchesReference holds evalVop to evalScalar: when the
// row-at-a-time evaluation succeeds on every row, the vector result
// must match cell for cell; when any row errors, the kernel must error
// too (the choice among several failing rows may differ — the
// vectorized walk evaluates whole subexpression columns before moving
// on — but success with a value is never acceptable).
func TestExprKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 150; trial++ {
		width := 2 + rng.Intn(3)
		rows := randRows(rng, width, propSize(rng, trial))
		b := batchFromRows(rows, width)
		e := randExpr(rng, width, 1+rng.Intn(2))

		want := make([]value.Value, len(rows))
		var refErr error
		for i, row := range rows {
			v, err := evalScalar(e, row)
			if err != nil {
				refErr = err
				break
			}
			want[i] = v
		}

		got, err := evalCells(e, b)
		if refErr != nil {
			if err == nil {
				t.Fatalf("trial %d: reference errored (%v) but the kernel returned a value", trial, refErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: kernel errored (%v) on an input the reference accepts", trial, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("trial %d: kernel produced %d cells for %d rows", trial, len(got), len(rows))
		}
		for i := range rows {
			if !sameValue(got[i], want[i]) {
				t.Fatalf("trial %d row %d: kernel %v, reference %v (expr %v)",
					trial, i, got[i], want[i], e)
			}
		}
	}
}

// rowAggRef is the row-at-a-time reference for the aggregation
// pipeline: groups in first-appearance order via the canonical key
// encoding, accum.fold per row, then the same HAVING and SELECT
// finalization the engine uses.
func rowAggRef(q *ir.Query, rows [][]value.Value) (*Relation, error) {
	aggs, aggIdx := collectAggs(q)
	byKey := map[string]*group{}
	var groups []*group
	var buf []byte
	for i, row := range rows {
		buf = buf[:0]
		for _, gc := range q.GroupBy {
			buf = row[gc].AppendKey(buf)
			buf = append(buf, 0)
		}
		g := byKey[string(buf)]
		if g == nil {
			g = newGroup(row, aggs, i)
			byKey[string(buf)] = g
			groups = append(groups, g)
		}
		if err := g.fold(row); err != nil {
			return nil, err
		}
	}
	out := &Relation{Attrs: ir.OutputNames(q)}
	for _, g := range groups {
		keep := true
		for _, h := range q.Having {
			l, err := evalGrouped(h.L, g, aggIdx)
			if err != nil {
				return nil, err
			}
			r, err := evalGrouped(h.R, g, aggIdx)
			if err != nil {
				return nil, err
			}
			ok, err := compare(h.Op, l, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		tuple := make([]value.Value, len(q.Select))
		for i, it := range q.Select {
			v, err := evalGrouped(it.Expr, g, aggIdx)
			if err != nil {
				return nil, err
			}
			tuple[i] = v
		}
		out.Tuples = append(out.Tuples, tuple)
	}
	return out, nil
}

// aggCase is one input of TestAggKernelMatchesReference: a query, the
// full-width rows the row-at-a-time reference folds, and how the kernel
// gets the same input — as a batch built from those rows, optionally
// with predicates to filter it by inside the pass (the reference then
// sees only the rows predHolds keeps), or, for a join, as whatever batch
// build returns.
type aggCase struct {
	name  string
	q     *ir.Query
	rows  [][]value.Value
	preds []ir.Pred
	build func(t *testing.T, ev *Evaluator) *Batch
	// errHas, when set, is text the reference's error must contain: it
	// pins which of several possible errors the case is about.
	errHas string
}

// TestAggKernelMatchesReference holds the aggregation pipeline to the
// accum.fold reference: identical tuples in identical order —
// first-appearance group order and exact accumulated values, including
// float accumulation — or the identical error, at every worker count.
func TestAggKernelMatchesReference(t *testing.T) {
	src := ir.MapSource{"R": {"A", "B", "C", "D"}, "S": {"E", "F"}}
	build := func(sql string) *ir.Query { return ir.MustBuild(sql, src) }
	var cases []aggCase

	// Random numeric columns under every aggregate, serial-sized and
	// multi-morsel.
	queries := []*ir.Query{
		build("SELECT A, COUNT(B), SUM(B), MIN(C), MAX(C), AVG(B) FROM R GROUP BY A"),
		build("SELECT A, B, SUM(C * D) FROM R GROUP BY A, B HAVING COUNT(C) > 1"),
		build("SELECT COUNT(B), SUM(B + C) FROM R"),
		build("SELECT A, SUM(B) FROM R GROUP BY A HAVING SUM(B) >= 2"),
	}
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 40; trial++ {
		rows := make([][]value.Value, propSize(rng, trial))
		for i := range rows {
			row := make([]value.Value, 6)
			for c := range row {
				row[c] = randCell(rng, c%2) // alternate int / float columns
			}
			rows[i] = row
		}
		for qi, q := range queries {
			cases = append(cases, aggCase{name: fmt.Sprintf("random %d/%d", trial, qi), q: q, rows: rows})
		}
	}

	// Key shapes. A: ints with 2^53-1, 2^53 and 2^53+1 side by side;
	// B: bools; C: strings; D: a float column (NaN, both zeros, 2.0) in
	// one table and a mixed column (2 next to 2.0, 2^53+1 next to 2^53 as
	// a float) in the other — both take the byte-encoded keys.
	big := int64(1) << 53
	ints := []int64{0, 1, 2, big - 1, big, big + 1, -big - 1}
	strs := []string{"", "a", "b", "a\x00", "ab"}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 2, 2.5, float64(big)}
	mixed := []value.Value{value.Int(2), value.Float(2), value.Int(big + 1), value.Float(float64(big)), value.Float(math.NaN()), value.Int(0), value.Float(math.Copysign(0, -1))}
	keyRows := func(n int, mixedD bool) [][]value.Value {
		krng := rand.New(rand.NewSource(int64(n)))
		rows := make([][]value.Value, n)
		for i := range rows {
			d := value.Float(floats[krng.Intn(len(floats))])
			if mixedD {
				d = mixed[krng.Intn(len(mixed))]
			}
			rows[i] = []value.Value{
				value.Int(ints[krng.Intn(len(ints))]), value.Bool(krng.Intn(2) == 0),
				value.Str(strs[krng.Intn(len(strs))]), d,
				value.Int(int64(krng.Intn(100))), value.Float(float64(krng.Intn(8)) / 4),
			}
		}
		return rows
	}
	// The aggregated cells ride in S's slots of a two-table query whose
	// rows the test supplies whole, so R's four columns are all keys.
	keyed := func(keys string) *ir.Query {
		return build("SELECT " + keys + ", COUNT(E), SUM(E), MIN(F), MAX(E), AVG(F) FROM R, S GROUP BY " + keys)
	}
	for _, keys := range []string{"A", "B", "C", "D", "A, C", "B, A", "C, D", "A, B, C", "C, D, B", "D, A, B"} {
		for _, n := range []int{0, 1, morselRows, morselRows + 1, 5000} {
			for _, mixedD := range []bool{false, true} {
				cases = append(cases, aggCase{name: fmt.Sprintf("keys %s n=%d mixed=%v", keys, n, mixedD), q: keyed(keys), rows: keyRows(n, mixedD)})
			}
		}
	}

	// Int SUM wraps past MaxInt64, within a morsel and across a merge.
	wrap := make([][]value.Value, 3000)
	for i := range wrap {
		wrap[i] = []value.Value{value.Int(int64(i % 2)), value.Int(math.MaxInt64 / 2), value.Int(1), value.Int(1), value.Int(0), value.Int(0)}
	}
	cases = append(cases, aggCase{name: "int sum wraps", q: build("SELECT A, SUM(B), AVG(B), MAX(B) FROM R GROUP BY A"), rows: wrap})

	// A float SUM is its first value when alone: -0 stays -0, in a morsel
	// and through a merge.
	negZero := make([][]value.Value, 2500)
	for i := range negZero {
		negZero[i] = []value.Value{value.Int(int64(i % 2)), value.Float(math.Copysign(0, -1)), value.Int(0), value.Int(0), value.Int(0), value.Int(0)}
	}
	cases = append(cases, aggCase{name: "float sum of -0", q: build("SELECT A, SUM(B), MIN(B) FROM R GROUP BY A"), rows: negZero})

	// Fold errors: the reference's error for the reference's first
	// offending row, wherever its morsel is and whichever aggregate hits
	// it. Every good cell is 7, so the extremum an error message quotes
	// is the same per morsel as over all earlier rows.
	poison := func(n int, cells map[int][2]value.Value) [][]value.Value {
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{value.Int(int64(i % 3)), value.Int(7), value.Int(7), value.Int(0), value.Int(0), value.Int(0)}
			if c, ok := cells[i]; ok {
				rows[i][1], rows[i][2] = c[0], c[1]
			}
		}
		return rows
	}
	seven := value.Int(7)
	for _, at := range []int{0, 5, 1500, 2999} {
		cases = append(cases,
			aggCase{name: fmt.Sprintf("SUM over a string cell at %d", at), q: build("SELECT A, COUNT(B), SUM(B) FROM R GROUP BY A"),
				rows: poison(3000, map[int][2]value.Value{at: {value.Str("x"), seven}})},
			aggCase{name: fmt.Sprintf("AVG over a string cell at %d", at), q: build("SELECT A, MIN(C), AVG(B) FROM R GROUP BY A"),
				rows: poison(3000, map[int][2]value.Value{at: {value.Str("x"), seven}, 2999: {seven, value.Str("late")}})},
			aggCase{name: fmt.Sprintf("MIN over incomparable cells at %d", at+3), q: build("SELECT A, SUM(C), MIN(B), MAX(B) FROM R GROUP BY A"),
				rows: poison(3000, map[int][2]value.Value{at + 3: {value.Bool(true), seven}})},
		)
	}
	// Two aggregates fail on different rows of one morsel: the earlier
	// row wins although its aggregate comes second.
	cases = append(cases, aggCase{name: "earlier row, later aggregate", q: build("SELECT A, SUM(B), AVG(C) FROM R GROUP BY A"),
		rows: poison(3000, map[int][2]value.Value{1100: {seven, value.Str("first")}, 1200: {value.Str("second"), seven}})})
	// A typed string column fails on its first row.
	cases = append(cases, aggCase{name: "SUM over a string column", q: build("SELECT B, SUM(C) FROM R, S GROUP BY B"), rows: keyRows(3000, false)})

	// The output stage. 300 groups of which HAVING keeps the last ten, so
	// kept tuples sit at other positions than their groups'. Then two
	// errors at once: HAVING divides by zero on group 5 (all its D are 0)
	// and COUNT's argument multiplies by a string on the first row of
	// group 200 — the COUNT-argument pass covers every group before any
	// HAVING runs, as the reference's fold does, so the later group's
	// error is the one raised.
	sparse := func(zeroD int, strC int) [][]value.Value {
		rows := make([][]value.Value, 3000)
		for i := range rows {
			c, d := value.Int(7), value.Int(1)
			if i%300 == zeroD {
				d = value.Int(0)
			}
			if i == strC {
				c = value.Str("x")
			}
			rows[i] = []value.Value{value.Int(int64(i % 300)), value.Int(int64(i)), c, d, value.Int(0), value.Int(0)}
		}
		return rows
	}
	sparseQ := build("SELECT A, COUNT(B * C), SUM(B) FROM R GROUP BY A HAVING SUM(B) / MIN(D) >= 16400")
	cases = append(cases,
		aggCase{name: "HAVING keeps ten of 300 groups", q: sparseQ, rows: sparse(-1, -1)},
		aggCase{name: "HAVING error on an early group alone", q: sparseQ, rows: sparse(5, -1), errHas: "division by zero"},
		aggCase{name: "COUNT argument error on a later group beats it", q: sparseQ, rows: sparse(5, 200), errHas: "cannot apply * to INT and STRING"},
	)

	// More groups than the merge hands back to its pools (maxPooledGroups):
	// the merged state and its index are dropped, and the cases after this
	// one fold into scratch that never saw them.
	wide := make([][]value.Value, maxPooledGroups+900)
	for i := range wide {
		wide[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i % 11)), value.Int(0), value.Int(0), value.Int(0), value.Int(0)}
	}
	cases = append(cases, aggCase{name: "a group per row, past the pooled size", q: build("SELECT A, SUM(B), COUNT(B) FROM R GROUP BY A"), rows: wide})

	// Inputs filtered through a selection inside the pass. B / C divides
	// by zero exactly on the rows the filter drops, so it must never be
	// evaluated there (and by a power of two elsewhere, so the float sums
	// are exact however they associate); D >= 1 keeps four fifths of some
	// morsels and none of others.
	sel := make([][]value.Value, 5000)
	for i := range sel {
		c, d := int64(1)<<(i%3), int64(i%5)
		if i%7 == 0 || (i >= 2048 && i < 3072) {
			c, d = 0, 0
		}
		sel[i] = []value.Value{value.Int(int64(i % 6)), value.Int(int64(i)), value.Int(c), value.Int(d), value.Int(0), value.Int(0)}
	}
	cases = append(cases,
		aggCase{name: "selection guards a division", q: build("SELECT A, SUM(B / C), COUNT(B), MAX(B) FROM R WHERE C > 0 GROUP BY A"), rows: sel},
		aggCase{name: "selection, two predicates", q: build("SELECT A, MIN(B), AVG(B) FROM R WHERE C > 0 AND D >= 1 GROUP BY A"), rows: sel},
		aggCase{name: "selection keeps nothing", q: build("SELECT A, SUM(B) FROM R WHERE C > 9 GROUP BY A"), rows: sel},
		aggCase{name: "selection, no GROUP BY", q: build("SELECT COUNT(B), SUM(B) FROM R WHERE D = 3"), rows: sel},
	)
	for i := len(cases) - 4; i < len(cases); i++ {
		cases[i].preds = cases[i].q.Where
	}

	// A join: the fold reads both tables through the join's index vectors,
	// and first-appearance group order and float accumulation order expose
	// the pair order, which must be the nested loop's — outer loop over
	// the smaller input, inner over the other in row order — whichever
	// side the key table was built on, and for int keys as for a float
	// key meeting an int one.
	joinQ := build("SELECT F, D, SUM(D), COUNT(A) FROM R, S WHERE A = E GROUP BY F, D")
	for _, tc := range []struct {
		name       string
		nr, ns     int
		floatKey   bool
		outerFirst bool // R is the smaller input: the nested loop's outer side
	}{
		{"join, left smaller", 300, 5000, false, true},
		{"join, right smaller", 5000, 300, false, false},
		{"join, float key meets int key", 4000, 200, true, false},
	} {
		jr := rand.New(rand.NewSource(int64(tc.nr)))
		r, s := NewRelation("A", "B", "C", "D"), NewRelation("E", "F")
		for i := 0; i < tc.nr; i++ {
			a := value.Int(int64(jr.Intn(400)))
			if tc.floatKey {
				a = value.Float(float64(jr.Intn(400)))
			}
			r.Add(a, value.Int(0), value.Int(0), value.Float(float64(jr.Intn(16))/8))
		}
		for i := 0; i < tc.ns; i++ {
			s.Add(value.Int(int64(jr.Intn(400))), value.Int(int64(jr.Intn(5))))
		}
		outer, inner := r, s
		if !tc.outerFirst {
			outer, inner = s, r
		}
		var rows [][]value.Value
		for _, o := range outer.Tuples {
			for _, in := range inner.Tuples {
				rt, st := o, in
				if !tc.outerFirst {
					rt, st = in, o
				}
				if value.Equal(rt[0], st[0]) {
					rows = append(rows, append(append([]value.Value{}, rt...), st...))
				}
			}
		}
		cases = append(cases, aggCase{name: tc.name, q: joinQ, rows: rows, build: func(t *testing.T, ev *Evaluator) *Batch {
			ev.DB.Put("R", r)
			ev.DB.Put("S", s)
			task := newTask(context.Background())
			sc, err := ev.scanPlan(task, joinQ)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ev.joinBatch(task, joinQ, sc)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}})
	}

	for _, tc := range cases {
		refRows := tc.rows
		if tc.preds != nil {
			refRows = nil
			for _, row := range tc.rows {
				keep := true
				for _, p := range tc.preds {
					if ok, err := predHolds(p, row); err != nil {
						t.Fatalf("%s: reference filter errored: %v", tc.name, err)
					} else if !ok {
						keep = false
						break
					}
				}
				if keep {
					refRows = append(refRows, row)
				}
			}
		}
		want, wantErr := rowAggRef(tc.q, refRows)
		if tc.errHas != "" && (wantErr == nil || !strings.Contains(wantErr.Error(), tc.errHas)) {
			t.Fatalf("%s: reference error %v, want one containing %q", tc.name, wantErr, tc.errHas)
		}
		for _, w := range []int{1, 2, 8} {
			ev := NewEvaluator(NewDB(), nil)
			ev.Workers = w
			var b *Batch
			if tc.build != nil {
				b = tc.build(t, ev)
			} else {
				b = batchFromRows(tc.rows, tc.q.NumCols())
			}
			out := &Relation{Attrs: ir.OutputNames(tc.q)}
			err := ev.aggregateBatch(newTask(context.Background()), tc.q, b, tc.preds, tc.preds != nil, out)
			if wantErr != nil || err != nil {
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s workers %d: kernel error %v, reference error %v", tc.name, w, err, wantErr)
				}
				continue
			}
			if len(out.Tuples) != len(want.Tuples) {
				t.Fatalf("%s workers %d: %d groups, reference %d", tc.name, w, len(out.Tuples), len(want.Tuples))
			}
			for gi := range out.Tuples {
				for ci := range out.Tuples[gi] {
					if !sameValue(out.Tuples[gi][ci], want.Tuples[gi][ci]) {
						t.Fatalf("%s workers %d: tuple %d cell %d: kernel %v, reference %v",
							tc.name, w, gi, ci, out.Tuples[gi][ci], want.Tuples[gi][ci])
					}
				}
			}
		}
	}
}

// refSelect is the row-at-a-time filter: each row meets the conjuncts in
// order and stops at the first that fails — or raises. It knows nothing
// of chunks.
func refSelect(rows [][]value.Value, preds []ir.Pred) ([]int32, error) {
	var sel []int32
rows:
	for i, row := range rows {
		for _, p := range preds {
			ok, err := predHolds(p, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		sel = append(sel, int32(i))
	}
	return sel, nil
}

// pruneRows builds n rows whose columns cover what a chunk's range can
// and cannot say: A clustered ints (a chronicle's load order), B uniform
// ints (every chunk spans the domain), C a constant, D floats ascending
// with a NaN in some chunks, E a mixed int/float column, F clustered
// strings, G bools constant per chunk, H clustered floats.
func pruneRows(rng *rand.Rand, n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i := range rows {
		band := int64(i * 8 / n)
		d := value.Float(float64(i) / 64)
		if rng.Intn(900) == 0 {
			d = value.Float(math.NaN())
		}
		e := value.Int(band)
		if i%2 == 0 {
			e = value.Float(float64(band))
		}
		rows[i] = []value.Value{
			value.Int(band*10 + int64(rng.Intn(3))), value.Int(int64(rng.Intn(8))), value.Int(3), d, e,
			value.Str(fmt.Sprintf("k%02d", band)), value.Bool(i/chunkRows%2 == 0), value.Float(float64(band) + float64(rng.Intn(4))/4),
		}
	}
	return rows
}

// pruneConst draws a constant to compare column c of pruneRows with: of
// the column's own kind, of the other numeric kind (an int column
// against 20.5, a float column against 3), a NaN, or of a kind that does
// not order against it.
func pruneConst(rng *rand.Rand, c int) value.Value {
	switch r := rng.Intn(12); {
	case r == 0:
		return value.Str("k03")
	case r == 1:
		return value.Float(math.NaN())
	case r == 2:
		return value.Bool(true)
	}
	num := float64(rng.Intn(90)) - 5
	if c == 1 || c == 2 || c == 4 || c == 7 {
		num = float64(rng.Intn(10)) - 1
	}
	switch {
	case c == 5 && rng.Intn(4) > 0:
		return value.Str(fmt.Sprintf("k%02d", rng.Intn(10)-1))
	case c == 6 && rng.Intn(4) > 0:
		return value.Bool(rng.Intn(2) == 0)
	case rng.Intn(2) == 0:
		return value.Int(int64(num))
	default:
		return value.Float(num + float64(rng.Intn(2))/2)
	}
}

// TestPrunedScanMatchesReference is pruned == unpruned: over tables
// whose chunks a conjunction can and cannot exclude, the selection of
// the chunk-skipping filter and the result of the fused aggregate equal
// the row-at-a-time reference exactly — rows, order, accumulated values —
// at sizes on every side of a chunk boundary and every worker count, and
// a conjunct that raises does so exactly when the reference reaches it.
func TestPrunedScanMatchesReference(t *testing.T) {
	src := ir.MapSource{"R": {"A", "B", "C", "D", "E", "F", "G", "H"}}
	aggQ := ir.MustBuild("SELECT B, COUNT(A), SUM(A), MIN(H), MAX(F), AVG(H) FROM R GROUP BY B", src)
	ops := []ir.Op{ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq}
	rng := rand.New(rand.NewSource(74))
	m := obs.NewMetrics()

	check := func(name string, rows [][]value.Value, preds []ir.Pred) {
		t.Helper()
		b := batchFromRows(rows, 8)
		wantSel, wantErr := refSelect(rows, preds)
		var kept [][]value.Value
		for _, i := range wantSel {
			kept = append(kept, rows[i])
		}
		wantAgg, aggErr := rowAggRef(aggQ, kept)
		if wantErr == nil && aggErr != nil {
			t.Fatalf("%s: reference aggregate errored: %v", name, aggErr)
		}
		for _, w := range []int{1, 4} {
			ev := NewEvaluator(NewDB(), nil)
			ev.Workers, ev.Metrics = w, m
			got, err := ev.filterSel(newTask(context.Background()), "scan", b, preds, ev.scanMorsels(b, preds))
			out := &Relation{}
			aerr := ev.aggregateBatch(newTask(context.Background()), aggQ, b, preds, true, out)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() || aerr == nil || aerr.Error() != wantErr.Error() {
					t.Fatalf("%s workers %d: filter error %v, aggregate error %v, reference error %v", name, w, err, aerr, wantErr)
				}
				continue
			}
			if err != nil || aerr != nil {
				t.Fatalf("%s workers %d: filter error %v, aggregate error %v, reference raised nothing (preds %v)", name, w, err, aerr, preds)
			}
			if fmt.Sprint(got) != fmt.Sprint(wantSel) {
				t.Fatalf("%s workers %d: selection of %d rows, reference %d (preds %v)", name, w, len(got), len(wantSel), preds)
			}
			if len(out.Tuples) != len(wantAgg.Tuples) {
				t.Fatalf("%s workers %d: %d groups, reference %d (preds %v)", name, w, len(out.Tuples), len(wantAgg.Tuples), preds)
			}
			for gi, tuple := range out.Tuples {
				for ci, v := range tuple {
					if !sameValue(v, wantAgg.Tuples[gi][ci]) {
						t.Fatalf("%s workers %d: group %d cell %d = %v, reference %v (preds %v)", name, w, gi, ci, v, wantAgg.Tuples[gi][ci], preds)
					}
				}
			}
		}
	}

	for _, n := range []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 3*chunkRows + 7, 5 * chunkRows} {
		rows := pruneRows(rng, n)
		for trial := 0; trial < 60; trial++ {
			preds := make([]ir.Pred, 1+rng.Intn(3))
			for i := range preds {
				c := rng.Intn(8)
				p := ir.Pred{Op: ops[rng.Intn(len(ops))], L: ir.ColTerm(ir.ColID(c)), R: ir.ConstTerm(pruneConst(rng, c))}
				switch rng.Intn(6) {
				case 0: // constant on the left
					p.L, p.R = p.R, p.L
				case 1: // column against column: never consulted, ends the walk
					p.R = ir.ColTerm(ir.ColID(rng.Intn(8)))
				}
				preds[i] = p
			}
			check(fmt.Sprintf("n=%d trial %d", n, trial), rows, preds)
		}
	}
	skipped, total := m.Counter("engine.scan.chunks_skipped").Load(), m.Counter("engine.scan.chunks").Load()
	if skipped == 0 || skipped == total {
		t.Fatalf("%d of %d chunks skipped: the trials do not exercise both sides of the test", skipped, total)
	}

	// A conjunct with an operator the engine does not know raises — but
	// only on a row the conjuncts before it let through. Behind A < 25 it
	// is reached in the first chunks only; behind A < -1 nowhere, so the
	// scan ends clean although no chunk was read; leading, it is reached
	// on the first row whatever follows.
	rows := pruneRows(rng, 4*chunkRows)
	bad := ir.Pred{Op: ir.Op(99), L: ir.ColTerm(4), R: ir.ConstTerm(value.Int(2))}
	lt := func(y int64) ir.Pred { return ir.Pred{Op: ir.OpLt, L: ir.ColTerm(0), R: ir.ConstTerm(value.Int(y))} }
	for name, preds := range map[string][]ir.Pred{
		"reached in some chunks": {lt(25), bad},
		"reached nowhere":        {lt(-1), bad},
		"leading":                {bad, lt(-1)},
		"behind a mixed column":  {{Op: ir.OpGeq, L: ir.ColTerm(4), R: ir.ConstTerm(value.Int(99))}, lt(25), bad},
	} {
		if _, err := refSelect(rows, preds); (err != nil) != (name != "reached nowhere" && name != "behind a mixed column") {
			t.Fatalf("%s: reference error %v", name, err)
		}
		check(name, rows, preds)
	}
}
