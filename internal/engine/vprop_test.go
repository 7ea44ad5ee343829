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
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	default:
		return value.Bool(rng.Intn(2) == 0)
	}
}

// kindClasses is the number of kind classes randCell draws from.
const kindClasses = 4

// randRows builds n random full-width rows; each column draws a kind
// class, so batches mix vectors of every kind.
func randRows(rng *rand.Rand, width, n int) [][]value.Value {
	classes := make([]int, width)
	for c := range classes {
		classes[c] = rng.Intn(kindClasses)
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
		return ir.ConstTerm(randCell(rng, rng.Intn(kindClasses)))
	}
	return ir.ColTerm(ir.ColID(rng.Intn(width)))
}

// sameValue compares cells strictly: same kind and same canonical key,
// and two floats bit for bit, so -0 is not 0 and NaNs of two payloads
// differ.
func sameValue(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
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
			got, err := ev.filterSel(newTask(context.Background()), "scan", b, preds, nil, ev.scanMorsels(b, preds))
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
			return &ir.Const{Val: randCell(rng, rng.Intn(kindClasses))}
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
		o, err := evalVop(e, rs)
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

// TestIntArithKernelOverflows holds the int loops of arithVop to the
// value package's checked arithmetic: one row holding an edge pair among
// 299 small ones makes the whole column an *value.OverflowError exactly
// when that row's +, - or × leaves int64, and the column is the exact
// results otherwise.
func TestIntArithKernelOverflows(t *testing.T) {
	edges := []int64{0, 1, -1, 2, -2, 3037000499, 3037000500, -3037000500, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64}
	ops := map[ir.ArithOp]func(a, b value.Value) (value.Value, error){ir.ArithAdd: value.Add, ir.ArithSub: value.Sub, ir.ArithMul: value.Mul}
	for op, ref := range ops {
		e := &ir.Arith{Op: op, L: &ir.ColRef{Col: 0}, R: &ir.ColRef{Col: 1}}
		for i, x := range edges {
			for j, y := range edges {
				rows := make([][]value.Value, 300)
				for r := range rows {
					rows[r] = []value.Value{value.Int(int64(r % 7)), value.Int(int64(r % 5))}
				}
				at := (i*len(edges) + j) % len(rows)
				rows[at] = []value.Value{value.Int(x), value.Int(y)}
				want, wantErr := ref(value.Int(x), value.Int(y))
				got, err := evalCells(e, batchFromRows(rows, 2))
				var ov *value.OverflowError
				switch {
				case wantErr != nil && !errors.As(err, &ov):
					t.Fatalf("%d %v %d: kernel %v, want an overflow error", x, op, y, err)
				case wantErr == nil && err != nil:
					t.Fatalf("%d %v %d: kernel error %v, want %v", x, op, y, err, want)
				case wantErr == nil && !sameValue(got[at], want):
					t.Fatalf("%d %v %d: kernel %v, want %v", x, op, y, got[at], want)
				}
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
			// The group's key columns read their canonical members.
			rep := slices.Clone(row)
			for _, gc := range q.GroupBy {
				rep[gc] = rep[gc].Canon()
			}
			g = newGroup(rep, aggs, i)
			byKey[string(buf)] = g
			groups = append(groups, g)
		}
		if err := g.fold(row); err != nil {
			return nil, err
		}
	}
	// Every group's totals are emitted, HAVING or not: an int total that
	// leaves int64 fails the query.
	for _, g := range groups {
		for i := range g.accs {
			if _, err := g.accs[i].result(); err != nil {
				return nil, err
			}
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
	// one table and in the other one the store widened from ints and
	// floats (2 next to 2.0, 2^53+1 next to 2^53) — both keyed by their
	// canonical bits, so each of D's groups reads its canonical member.
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
		return stored(rows, 6)
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

	// An int SUM or AVG total that passes MaxInt64 is an overflow error,
	// not a wrapped total: within a morsel, and across a merge when each
	// morsel's total fits (group 0 holds 1500 rows of 2^53-2^43, 512 in
	// each full morsel: 1024 of them sum below 2^63, all 1500 above).
	wrap := make([][]value.Value, 3000)
	for i := range wrap {
		wrap[i] = []value.Value{value.Int(int64(i % 2)), value.Int(math.MaxInt64 / 2), value.Int(1), value.Int(1), value.Int(0), value.Int(0)}
	}
	merge := make([][]value.Value, 3000)
	for i := range merge {
		merge[i] = []value.Value{value.Int(int64(i % 2)), value.Int(1<<53 - 1<<43), value.Int(1), value.Int(1), value.Int(0), value.Int(0)}
	}
	// An int total that passes int64 part-way and comes back is exact:
	// group 0 climbs to 750·2^61 over the first morsels and returns to 0.
	back := make([][]value.Value, 3000)
	for i := range back {
		x := int64(1 << 61)
		if i >= len(back)/2 {
			x = -x
		}
		back[i] = []value.Value{value.Int(int64(i % 2)), value.Int(x), value.Int(1), value.Int(1), value.Int(0), value.Int(0)}
	}
	cases = append(cases,
		aggCase{name: "int sum returns inside int64", q: build("SELECT A, SUM(B), AVG(B), MAX(B) FROM R GROUP BY A"), rows: back},
		aggCase{name: "int sum overflows", q: build("SELECT A, SUM(B), AVG(B), MAX(B) FROM R GROUP BY A"), rows: wrap, errHas: "integer overflow"},
		aggCase{name: "int avg overflows across a merge", q: build("SELECT A, AVG(B), MAX(B) FROM R GROUP BY A"), rows: merge, errHas: "integer overflow"},
	)

	// A float SUM starts from 0, so a group of -0s sums to 0, and MIN
	// emits the canonical 0, in a morsel and through a merge.
	negZero := make([][]value.Value, 2500)
	for i := range negZero {
		negZero[i] = []value.Value{value.Int(int64(i % 2)), value.Float(math.Copysign(0, -1)), value.Int(0), value.Int(0), value.Int(0), value.Int(0)}
	}
	cases = append(cases, aggCase{name: "float sum of -0", q: build("SELECT A, SUM(B), MIN(B) FROM R GROUP BY A"), rows: negZero})

	// Fold errors: a SUM or AVG over a non-numeric column fails on its
	// first row, a constant argument folds as its broadcast, and MIN/MAX
	// order bools by their 0/1 payload.
	cases = append(cases,
		aggCase{name: "SUM over a string column", q: build("SELECT B, SUM(C) FROM R, S GROUP BY B"), rows: keyRows(3000, false)},
		aggCase{name: "AVG over a bool column", q: build("SELECT C, COUNT(E), AVG(B) FROM R, S GROUP BY C"), rows: keyRows(3000, false)},
		aggCase{name: "SUM over a string constant", q: build("SELECT C, SUM('x') FROM R, S GROUP BY C"), rows: keyRows(3000, false)},
		aggCase{name: "constant arguments", q: build("SELECT C, SUM(2), MIN('k'), MAX(2.5), AVG(1), SUM(E) FROM R, S GROUP BY C"), rows: keyRows(3000, false)},
		aggCase{name: "bool MIN/MAX", q: build("SELECT C, MIN(B), MAX(B), COUNT(B) FROM R, S GROUP BY C"), rows: keyRows(3000, false)},
	)

	// The output stage. 300 groups of which HAVING keeps the last ten, so
	// kept tuples sit at other positions than their groups'. Then two
	// errors at once: HAVING divides by zero on group 5 (all its D are 0)
	// and COUNT's argument multiplies by a string column — the
	// COUNT-argument pass covers every group before any HAVING runs, as
	// the reference's fold does, so its error is the one raised.
	sparse := func(zeroD int, strC bool) [][]value.Value {
		rows := make([][]value.Value, 3000)
		for i := range rows {
			c, d := value.Int(7), value.Int(1)
			if i%300 == zeroD {
				d = value.Int(0)
			}
			if strC {
				c = value.Str("x")
			}
			rows[i] = []value.Value{value.Int(int64(i % 300)), value.Int(int64(i)), c, d, value.Int(0), value.Int(0)}
		}
		return rows
	}
	sparseQ := build("SELECT A, COUNT(B * C), SUM(B) FROM R GROUP BY A HAVING SUM(B) / MIN(D) >= 16400")
	cases = append(cases,
		aggCase{name: "HAVING keeps ten of 300 groups", q: sparseQ, rows: sparse(-1, false)},
		aggCase{name: "HAVING error on an early group alone", q: sparseQ, rows: sparse(5, false), errHas: "division by zero"},
		aggCase{name: "COUNT argument error beats it", q: sparseQ, rows: sparse(5, true), errHas: "cannot apply * to INT and STRING"},
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
	// the pair order, which must be the nested loop's (nestedLoopJoin:
	// outer loop over the larger input) whichever side of the join that
	// is, for int keys numbered by direct address (a 400-wide domain) or
	// by hashing (the same keys a million apart) as for a float key
	// meeting an int one.
	joinQ := build("SELECT F, D, SUM(D), COUNT(A) FROM R, S WHERE A = E GROUP BY F, D")
	for _, tc := range []struct {
		name     string
		nr, ns   int
		floatKey bool
		stride   int64
	}{
		{"join, left smaller", 300, 5000, false, 1},
		{"join, right smaller", 5000, 300, false, 1},
		{"join, equal sizes", 1500, 1500, false, 1},
		{"join, wide keys, left smaller", 300, 5000, false, 1_000_000},
		{"join, wide keys, right smaller", 5000, 300, false, 1_000_000},
		{"join, float key meets int key", 4000, 200, true, 1},
	} {
		jr := rand.New(rand.NewSource(int64(tc.nr)))
		r, s := NewRelation("A", "B", "C", "D"), NewRelation("E", "F")
		for i := 0; i < tc.nr; i++ {
			a := value.Int(int64(jr.Intn(400)) * tc.stride)
			if tc.floatKey {
				a = value.Float(float64(jr.Intn(400)))
			}
			r.Add(a, value.Int(0), value.Int(0), value.Float(float64(jr.Intn(16))/8))
		}
		for i := 0; i < tc.ns; i++ {
			s.Add(value.Int(int64(jr.Intn(400))*tc.stride), value.Int(int64(jr.Intn(5))))
		}
		var rows [][]value.Value
		for _, p := range nestedLoopJoin(r.Tuples, s.Tuples, []int{0}, []int{0}) {
			rows = append(rows, append(append([]value.Value{}, r.Tuples[p[0]]...), s.Tuples[p[1]]...))
		}
		cases = append(cases, aggCase{name: tc.name, q: joinQ, rows: rows, build: func(t *testing.T, ev *Evaluator) *Batch {
			ev.DB.Put("R", r)
			ev.DB.Put("S", s)
			task := newTask(context.Background())
			p := NewPlan(joinQ)
			cts, _, err := ev.scanPlan(task, p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ev.joinBatch(task, p, cts, p.bindTables(cts))
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
// with a NaN in some chunks, E ints and floats the store widens to
// floats, F clustered strings, G bools constant per chunk, H clustered
// floats.
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
	return stored(rows, 8)
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
			got, err := ev.filterSel(newTask(context.Background()), "scan", b, preds, nil, ev.scanMorsels(b, preds))
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
	} {
		if _, err := refSelect(rows, preds); (err != nil) != (name != "reached nowhere") {
			t.Fatalf("%s: reference error %v", name, err)
		}
		check(name, rows, preds)
	}
}

// keyOperands returns one int key column as the operands a morsel can
// meet it through, each over n rows: the stored chunk under the identity
// index, the chunk under a narrowed row set (what a fused filter leaves),
// the only chunk of a table under a selection, and the vector gathered
// from a table of several chunks.
func keyOperands(t *testing.T, rng *rand.Rand, keys []int64) map[string]vecOperand {
	t.Helper()
	rows := func(n int, at func(i int) int64) [][]value.Value {
		out := make([][]value.Value, n)
		for i := range out {
			out[i] = []value.Value{value.Int(at(i))}
		}
		return out
	}
	n := len(keys)
	ops := map[string]vecOperand{}
	w := new(scratch)

	// The keys as chunk 0 of a stored table, whole and narrowed.
	b := batchFromRows(rows(n, func(i int) int64 { return keys[i] }), 1)
	ops["identity index"] = w.rows(b, 0, n).col(0)
	w2 := new(scratch)
	rs := w2.rows(b, 0, n)
	var js []int32
	for j := 0; j < n; j++ {
		if rng.Intn(3) > 0 {
			js = append(js, int32(j))
		}
	}
	if len(js) > 0 {
		rs.loc = js
		ops["narrowed row set"] = rs.col(0)
	}

	// The keys scattered over a one-chunk and a three-chunk table, read
	// back in order through a selection.
	for name, size := range map[string]int{"one-chunk selection": chunkRows, "gathered vector": 3 * chunkRows} {
		perm := rng.Perm(size)[:n]
		cells := make([]int64, size)
		for i := range cells {
			cells[i] = keys[rng.Intn(n)] // cells no row selects stay inside the keys' range
		}
		sel := make([]int32, n)
		for i, p := range perm {
			cells[p], sel[i] = keys[i], int32(p)
		}
		tb := batchFromRows(rows(size, func(i int) int64 { return cells[i] }), 1)
		tb = tb.with(n, [][]int32{sel})
		ws := new(scratch)
		ops[name] = ws.rows(tb, 0, n).col(0)
	}
	return ops
}

// TestDirectGroupIdsMatchHash holds the direct-addressed group table to
// the hash index: over generated int keys — negative, all equal, on
// either side of the span bound, at the ends of int64 — read through
// every operand shape, both give every row the same group id, create the
// groups from the same rows in the same order with the same key column,
// and so fold the same float accumulators bit for bit.
func TestDirectGroupIdsMatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	gen := map[string]func(i int) int64{
		"small domain":      func(int) int64 { return int64(rng.Intn(28)) + 1 },
		"negative":          func(int) int64 { return -int64(rng.Intn(300)) - 1 },
		"around zero":       func(int) int64 { return int64(rng.Intn(200)) - 100 },
		"all equal":         func(int) int64 { return 77 },
		"span bound":        func(i int) int64 { return int64(i%2) * (directSpan - 1) },
		"past span bound":   func(i int) int64 { return int64(i%2) * directSpan },
		"near MaxInt64":     func(int) int64 { return math.MaxInt64 - int64(rng.Intn(50)) },
		"near MinInt64":     func(int) int64 { return math.MinInt64 + int64(rng.Intn(50)) },
		"both int64 ends":   func(i int) int64 { return []int64{math.MinInt64, math.MaxInt64, 0}[i%3] },
		"a group per row":   func(i int) int64 { return int64(i) * 3 },
		"wide, many groups": func(i int) int64 { return int64(rng.Intn(1 << 40)) },
	}
	wantDirect := map[string]bool{"small domain": true, "negative": true, "around zero": true, "all equal": true,
		"span bound": true, "near MaxInt64": true, "near MinInt64": true, "a group per row": true}
	for name, at := range gen {
		for _, n := range []int{1, 2, 37, morselRows} {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = at(i)
			}
			args := &Vec{kind: value.KindFloat, floats: make([]float64, n)}
			for i := range args.floats {
				args.floats[i] = float64(rng.Intn(1000)) / 7
			}
			for shape, op := range keyOperands(t, rng, keys) {
				rows := len(op.idx)
				var gi [2]groupIndex
				var st [2]foldState
				var gids [2][morselRows]int32
				var hs []uint64
				for v, once := range []bool{true, false} {
					st[v].reset(1)
					gi[v].reset(&st[v].keys)
					direct := gi[v].assign([]vecOperand{op}, rows, &hs, gids[v][:rows], once)
					if !once && direct {
						t.Fatalf("%s n=%d %s: an index that takes further calls was addressed directly", name, n, shape)
					}
					// A narrowed row set of two alternating keys can hold one
					// of them only; every other shape has the range of keys.
					if once && n > 2 && shape != "narrowed row set" && direct != wantDirect[name] {
						t.Fatalf("%s n=%d %s: direct = %v, want %v", name, n, shape, direct, wantDirect[name])
					}
					arg := vecOperand{vec: args, idx: iota32[:rows]}
					sp := &aggSpec{fn: ir.AggSum, arg: &ir.ColRef{}, fold: true}
					if err := st[v].accs[0].foldRows(sp, arg, gids[v][:rows], st[v].keys.n, gi[v].newJ); err != nil {
						t.Fatal(err)
					}
				}
				tag := fmt.Sprintf("%s n=%d %s", name, n, shape)
				if fmt.Sprint(gids[0][:rows]) != fmt.Sprint(gids[1][:rows]) {
					t.Fatalf("%s: group ids differ:\ndirect %v\nhash   %v", tag, gids[0][:rows], gids[1][:rows])
				}
				if fmt.Sprint(gi[0].newJ) != fmt.Sprint(gi[1].newJ) {
					t.Fatalf("%s: groups created by rows %v directly, %v by hashing", tag, gi[0].newJ, gi[1].newJ)
				}
				if st[0].keys.n != st[1].keys.n || fmt.Sprint(st[0].keys.cols[0].ints) != fmt.Sprint(st[1].keys.cols[0].ints) {
					t.Fatalf("%s: key columns differ: %v directly, %v by hashing", tag, st[0].keys.cols[0].ints, st[1].keys.cols[0].ints)
				}
				for g, x := range st[0].accs[0].vec.floats {
					if math.Float64bits(x) != math.Float64bits(st[1].accs[0].vec.floats[g]) {
						t.Fatalf("%s: group %d sums to %v directly, %v by hashing", tag, g, x, st[1].accs[0].vec.floats[g])
					}
				}
				for j, g := range gids[0][:rows] {
					if st[0].keys.cols[0].ints[g] != op.vec.ints[op.idx[j]] {
						t.Fatalf("%s: row %d with key %d is in the group of key %d", tag, j, op.vec.ints[op.idx[j]], st[0].keys.cols[0].ints[g])
					}
				}
			}
		}
	}
}

// TestJoinPairsMatchNestedLoop holds the join to the nested loop pair
// for pair: the joined rows of a projection come out in exactly the
// reference's order (nestedLoopJoin: the larger input walked in row
// order, its matches in theirs) at one worker and at GOMAXPROCS —
// duplicates on both sides, keys one side lacks, either side the larger,
// equal sizes, a laid-out side of several chunks, inputs narrowed by
// their own filters first, keys numbered by direct address, by hashing
// (wide or straddling the span bound), through the byte encoding (a
// float or a bool key, two key pairs) — and, where every key of the
// laid-out side is its own, the lookup path (engine.join.lookups): laid
// out as the accumulated side or as the incoming one, the walked side
// read whole or through its filter's selection, every walked row matched
// or some missing, under each keying; one repeated key sends the join
// back to the counting sort.
func TestJoinPairsMatchNestedLoop(t *testing.T) {
	src := ir.MapSource{"R": {"A", "B", "C"}, "S": {"E", "F", "G"}}
	type keyGen func(rng *rand.Rand) value.Value
	domain := func(n int, stride int64) keyGen {
		return func(rng *rand.Rand) value.Value { return value.Int((int64(rng.Intn(n)) - int64(n/4)) * stride) }
	}
	// distinct draws each key of domain(n, stride) once, in shuffled
	// order; with repeat, draw n+1 repeats draw 1.
	distinct := func(n int, stride int64, repeat bool) keyGen {
		var perm []int
		return func(rng *rand.Rand) value.Value {
			if perm == nil {
				perm = rng.Perm(n)
				if repeat {
					perm = append(perm, perm[0])
				}
			}
			k := perm[0]
			perm = perm[1:]
			return value.Int((int64(k) - int64(n/4)) * stride)
		}
	}
	cases := []struct {
		name     string
		nr, ns   int
		rk, sk   keyGen
		sql      string
		wantKeys string // the counter the one join must tick
		lookup   bool   // the laid-out side's keys are distinct
		cyclic   bool   // C and G are row % 5, so a filter keeps an exact count
	}{
		{"direct, R larger", 5000, 300, domain(400, 1), domain(500, 1), "SELECT B, F FROM R, S WHERE A = E", "direct", false, false},
		{"direct, S larger", 300, 5000, domain(400, 1), domain(300, 1), "SELECT B, F FROM R, S WHERE A = E", "direct", false, false},
		{"direct, equal sizes", 1500, 1500, domain(200, 1), domain(250, 1), "SELECT B, F FROM R, S WHERE E = A", "direct", false, false},
		{"direct, laid-out side of three chunks", 2500, 6000, domain(3000, 1), domain(3500, 1), "SELECT B, F FROM R, S WHERE A = E", "direct", false, false},
		{"direct, filters narrow both sides", 4000, 3000, domain(100, 1), domain(120, 1), "SELECT B, F FROM R, S WHERE A = E AND C < 3 AND G >= 2", "direct", false, false},
		{"direct, filter makes the larger table the smaller", 4000, 3000, domain(100, 1), domain(120, 1), "SELECT B, F FROM R, S WHERE A = E AND C = 0", "direct", false, false},
		{"hash, wide keys", 3000, 400, domain(300, 1<<33), domain(300, 1<<33), "SELECT B, F FROM R, S WHERE A = E", "hashed", false, false},
		{"hash, keys one past the span bound", 3000, 400, domain(300, 1), func(rng *rand.Rand) value.Value {
			return value.Int(int64(rng.Intn(2)) * directSpan)
		}, "SELECT B, F FROM R, S WHERE A = E", "hashed", false, false},
		{"bytes, float key meets int key", 3000, 200, func(rng *rand.Rand) value.Value {
			return value.Float(float64(rng.Intn(100)))
		}, domain(150, 1), "SELECT B, F FROM R, S WHERE A = E", "hashed", false, false},
		{"bytes, bool keys", 40, 2500, func(rng *rand.Rand) value.Value { return value.Bool(rng.Intn(4) == 0) },
			func(rng *rand.Rand) value.Value { return value.Bool(rng.Intn(2) == 0) }, "SELECT B, F FROM R, S WHERE A = E AND G = 1", "hashed", false, false},
		{"bytes, two key pairs", 3000, 2500, domain(40, 1), domain(50, 1), "SELECT B, F FROM R, S WHERE A = E AND C = G", "hashed", false, false},
		{"lookup, accumulated side laid out, walked read whole, all matched", 5000, 300, domain(300, 1), distinct(300, 1, false),
			"SELECT B, F FROM R, S WHERE A = E", "direct", true, false},
		{"lookup, walked filtered, all matched", 5000, 300, domain(300, 1), distinct(300, 1, false),
			"SELECT B, F FROM R, S WHERE A = E AND C < 3", "direct", true, false},
		{"lookup, walked filtered, some missing", 5000, 300, domain(400, 1), distinct(300, 1, false),
			"SELECT B, F FROM R, S WHERE A = E AND C < 3", "direct", true, false},
		{"lookup, walked read whole, some missing", 5000, 300, domain(400, 1), distinct(300, 1, false),
			"SELECT B, F FROM R, S WHERE E = A", "direct", true, false},
		// A tie leaves S, the incoming table, as the laid-out side.
		{"lookup, incoming side laid out behind its filter, some missing", 1500, 2500, domain(2500, 1), distinct(2500, 1, false),
			"SELECT B, F FROM R, S WHERE A = E AND G >= 2", "direct", true, true},
		{"lookup, incoming side laid out, walked filtered, all matched", 2500, 1500, domain(1500, 1), distinct(1500, 1, false),
			"SELECT B, F FROM R, S WHERE A = E AND C < 3", "direct", true, true},
		{"lookup, incoming side laid out, walked read whole, all matched", 1500, 1500, domain(1500, 1), distinct(1500, 1, false),
			"SELECT B, F FROM R, S WHERE A = E", "direct", true, false},
		{"lookup, hash, wide keys, some missing", 3000, 400, domain(500, 1<<33), distinct(400, 1<<33, false),
			"SELECT B, F FROM R, S WHERE A = E", "hashed", true, false},
		{"lookup, bytes, float key meets int key", 3000, 200, func(rng *rand.Rand) value.Value {
			return value.Float(float64(rng.Intn(200) - 50))
		}, distinct(200, 1, false), "SELECT B, F FROM R, S WHERE A = E", "hashed", true, false},
		{"lookup, bytes, two key pairs", 3000, 500, domain(500, 1), distinct(500, 1, false),
			"SELECT B, F FROM R, S WHERE A = E AND C = G", "hashed", true, false},
		{"CSR, one repeated key on the laid-out side", 5000, 301, domain(300, 1), distinct(300, 1, true),
			"SELECT B, F FROM R, S WHERE A = E", "direct", false, false},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.nr*7 + tc.ns)))
		r, s := NewRelation("A", "B", "C"), NewRelation("E", "F", "G")
		third := func(i int) value.Value {
			if tc.cyclic {
				return value.Int(int64(i % 5))
			}
			return value.Int(int64(rng.Intn(5)))
		}
		for i := 0; i < tc.nr; i++ {
			r.Add(tc.rk(rng), value.Int(int64(i)), third(i))
		}
		for i := 0; i < tc.ns; i++ {
			s.Add(tc.sk(rng), value.Int(int64(i)), third(i))
		}
		q := ir.MustBuild(tc.sql, src)

		// The reference: each table through its own conjuncts, then the
		// nested loop over what is left on the join's key pairs.
		wc := classifyWhere(q)
		keep := func(tuples [][]value.Value, table int) [][]value.Value {
			var out [][]value.Value
			for _, row := range tuples {
				full := make([]value.Value, 6)
				copy(full[3*table:], row)
				ok := true
				for _, p := range wc.perTable[table] {
					if h, err := predHolds(p, full); err != nil {
						t.Fatal(err)
					} else if !h {
						ok = false
					}
				}
				if ok {
					out = append(out, row)
				}
			}
			return out
		}
		rr, ss := keep(r.Tuples, 0), keep(s.Tuples, 1)
		var ka, kb []int
		for _, p := range wc.joinEq {
			lc, rc := q.Col(p.L.Col), q.Col(p.R.Col)
			if lc.Table != 0 {
				lc, rc = rc, lc
			}
			ka, kb = append(ka, lc.Pos), append(kb, rc.Pos)
		}
		pairs := nestedLoopJoin(rr, ss, ka, kb)
		if len(pairs) == 0 {
			t.Fatalf("%s: the reference joins nothing", tc.name)
		}

		for _, workers := range []int{1, 0} {
			db := NewDB()
			db.Put("R", r)
			db.Put("S", s)
			ev := NewEvaluator(db, nil)
			ev.Workers, ev.Metrics = workers, obs.NewMetrics()
			out, err := ev.ExecContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, workers, err)
			}
			if len(out.Tuples) != len(pairs) {
				t.Fatalf("%s workers %d: %d joined rows, reference %d", tc.name, workers, len(out.Tuples), len(pairs))
			}
			for k, p := range pairs {
				if got, want := out.Tuples[k], []value.Value{rr[p[0]][1], ss[p[1]][1]}; !sameValue(got[0], want[0]) || !sameValue(got[1], want[1]) {
					t.Fatalf("%s workers %d: pair %d is rows (%v, %v), reference (%v, %v)", tc.name, workers, k, got[0], got[1], want[0], want[1])
				}
			}
			if n := ev.Metrics.Counter("engine.join.keys_" + tc.wantKeys).Load(); n != 1 {
				t.Fatalf("%s workers %d: engine.join.keys_%s = %d, want 1", tc.name, workers, tc.wantKeys, n)
			}
			wantLookups := int64(0)
			if tc.lookup {
				wantLookups = 1
			}
			if n := ev.Metrics.Counter("engine.join.lookups").Load(); n != wantLookups {
				t.Fatalf("%s workers %d: engine.join.lookups = %d, want %d", tc.name, workers, n, wantLookups)
			}
		}
	}
}

// TestOutputStageMatchesReference holds the column-at-a-time output
// stage — HAVING as a selection of group ids, SELECT gathered from the
// accumulator and key columns a morsel of groups at a time, DISTINCT
// through the group index — to the row-at-a-time one it replaced
// (rowAggRef over group and evalGrouped, distinct over tupleKey):
// identical tuples in identical order, cell kinds included, or the
// identical error, at Workers 1 and GOMAXPROCS. Where several groups
// could raise, every one raises the same error value, so the order in
// which the two stages meet them does not show.
func TestOutputStageMatchesReference(t *testing.T) {
	ctx := context.Background()
	src := ir.MapSource{"R": {"A", "B", "C", "D"}}
	build := func(sql string) *ir.Query { return ir.MustBuild(sql, src) }
	type stageCase struct {
		name   string
		q      *ir.Query
		rows   [][]value.Value
		unbind int   // column position read as unbound; -1: none
		bare   []int // column positions appended to SELECT as bare columns that are no keys
		errHas string
	}
	// n rows over the given number of groups: A the group, B an int, C a
	// string, D a float in quarters.
	table := func(n, groups int) [][]value.Value {
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{value.Int(int64(i % groups)), value.Int(int64(i%13 - 3)),
				value.Str(string(rune('a' + i*7%26))), value.Float(float64(i%9) / 4)}
		}
		return rows
	}
	with := func(rows [][]value.Value, edit func(i int, row []value.Value)) [][]value.Value {
		for i, row := range rows {
			edit(i, row)
		}
		return rows
	}
	var cases []stageCase
	add := func(name, sql string, rows [][]value.Value) {
		cases = append(cases, stageCase{name: name, q: build(sql), rows: rows, unbind: -1})
	}

	add("string MIN/MAX", "SELECT A, MIN(C), MAX(C), COUNT(C) FROM R GROUP BY A HAVING MIN(C) < 'c' AND MAX(C) >= 'x'", table(3000, 700))
	add("AVG", "SELECT A, AVG(B), AVG(D) / 2, AVG(B) - AVG(D), SUM(B) / COUNT(B) FROM R GROUP BY A HAVING AVG(D) >= 1", table(5000, 300))
	add("no GROUP BY", "SELECT COUNT(B), AVG(D), MIN(C), SUM(B) * 2 FROM R HAVING COUNT(B) > 10", table(2500, 1))

	// COUNT's argument adds an int to a string on every group's first row.
	add("COUNT(arg) reference error", "SELECT A, COUNT(B + C), SUM(B) FROM R GROUP BY A", table(3000, 50))
	cases[len(cases)-1].errHas = "cannot apply + to INT and STRING"

	// SUM(D) is zero for group 3 alone. With one row there HAVING rejects
	// the group before the division is evaluated over it — in SELECT, and
	// in a later conjunct of HAVING itself; with two rows the group is
	// kept and the division raises.
	zeroD := func(rowsOf3 int) [][]value.Value {
		rows := with(table(1200, 30), func(i int, row []value.Value) {
			if row[3] = value.Float(float64(1 + i%4)); i%30 == 3 {
				row[3] = value.Float(0)
			}
		})
		var kept [][]value.Value
		for i, row := range rows {
			if i%30 != 3 || rowsOf3 > 0 {
				kept = append(kept, row)
				if i%30 == 3 {
					rowsOf3--
				}
			}
		}
		return kept
	}
	add("zero divisor in a rejected group", "SELECT A, SUM(B) / SUM(D) FROM R GROUP BY A HAVING COUNT(B) > 1", zeroD(1))
	add("zero divisor behind an earlier conjunct", "SELECT A FROM R GROUP BY A HAVING COUNT(B) > 1 AND SUM(B) / SUM(D) < 100", zeroD(1))
	add("zero divisor in a kept group", "SELECT A, SUM(B) / SUM(D) FROM R GROUP BY A HAVING COUNT(B) > 1", zeroD(2))
	cases[len(cases)-1].errHas = "division by zero"
	add("zero divisor in a kept group, in HAVING", "SELECT A FROM R GROUP BY A HAVING COUNT(B) > 1 AND SUM(B) / SUM(D) < 100", zeroD(2))
	cases[len(cases)-1].errHas = "division by zero"

	// Constants of three kinds, a key read twice, and a column the batch
	// does not bind: it reads as the zero Value on every group.
	add("constants and an unbound column", "SELECT A, 7, 'k', 2.5, C, A + 1, SUM(B) FROM R GROUP BY A, C", with(table(2000, 25), func(_ int, row []value.Value) { row[2] = value.Value{} }))
	cases[len(cases)-1].unbind = 2
	add("empty input", "SELECT A, SUM(B), AVG(D) FROM R GROUP BY A HAVING COUNT(B) > 0", nil)

	// Group counts around the morsel size: the stage evaluates a morsel of
	// groups at a time. C and D ride along as bare columns that are no
	// keys (the rewriter builds such queries; the SQL front end does not),
	// read at each group's first row across the table's chunks; HAVING
	// keeps every third group or so, so the kept groups close up across
	// slices.
	for _, groups := range []int{morselRows, morselRows + 1, 2053} {
		rows := table(groups+groups/2, groups)
		add(fmt.Sprintf("%d groups, arithmetic", groups), "SELECT A, SUM(B) * 2 + COUNT(B), AVG(D) FROM R GROUP BY A", rows)
		cases[len(cases)-1].bare = []int{2, 3}
		add(fmt.Sprintf("%d groups, HAVING", groups), "SELECT A, SUM(B) * 2 + COUNT(B) FROM R GROUP BY A HAVING SUM(B) + MIN(B) > 2 AND MAX(D) < 2", rows)
		cases[len(cases)-1].bare = []int{2, 3}
		add(fmt.Sprintf("%d groups, float key", groups), "SELECT D, A, COUNT(B) + 0 FROM R GROUP BY D, A HAVING COUNT(B) >= 1", rows)
	}
	for i := range cases {
		for _, pos := range cases[i].bare {
			q := cases[i].q
			q.Select = append(q.Select, ir.SelectItem{Expr: &ir.ColRef{Col: q.Tables[0].Cols[pos]}})
		}
	}

	workers := []int{1, 0}
	for _, tc := range cases {
		want, wantErr := rowAggRef(tc.q, tc.rows)
		if tc.errHas != "" && (wantErr == nil || !strings.Contains(wantErr.Error(), tc.errHas)) {
			t.Fatalf("%s: reference error %v, want one containing %q", tc.name, wantErr, tc.errHas)
		}
		if tc.errHas == "" && (wantErr != nil || (len(want.Tuples) == 0) != (tc.rows == nil)) {
			t.Fatalf("%s: reference error %v, %d tuples: the case does not test what it says", tc.name, wantErr, len(want.Tuples))
		}
		for _, w := range workers {
			ev := NewEvaluator(NewDB(), nil)
			ev.Workers = w
			b := batchFromRows(tc.rows, tc.q.NumCols())
			if tc.unbind >= 0 {
				b.cols[tc.q.Tables[0].Cols[tc.unbind]] = nil
			}
			ct, err := ev.aggregate(newTask(context.Background()), NewPlan(tc.q), b, nil, false)
			if wantErr != nil || err != nil {
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s workers %d: stage error %v, reference error %v", tc.name, w, err, wantErr)
				}
				continue
			}
			got := ct.Relation()
			if len(got.Tuples) != len(want.Tuples) {
				t.Fatalf("%s workers %d: %d tuples, reference %d", tc.name, w, len(got.Tuples), len(want.Tuples))
			}
			for gi := range got.Tuples {
				for ci := range got.Tuples[gi] {
					if !sameValue(got.Tuples[gi][ci], want.Tuples[gi][ci]) {
						t.Fatalf("%s workers %d: tuple %d cell %d: stage %v, reference %v", tc.name, w, gi, ci, got.Tuples[gi][ci], want.Tuples[gi][ci])
					}
				}
			}
			// Every result column is of one kind, chunk by chunk.
			for c, col := range ct.cols {
				for _, ch := range col.chunks {
					if ch.kind != col.kind {
						t.Fatalf("%s workers %d: result column %d of kind %v has a chunk of kind %v", tc.name, w, c, col.kind, ch.kind)
					}
				}
			}
		}
	}

	// DISTINCT over projections of one table: ints past 2^53, bools,
	// strings, floats (NaN, both zeros), a column widened from ints and
	// floats where 2 meets 2.0, alone and together, below and above the
	// morsel size.
	big := int64(1) << 53
	dsrc := ir.MapSource{"R": {"I", "B", "S", "F", "M"}}
	drows := func(n int) *Relation {
		rng := rand.New(rand.NewSource(int64(n)))
		ints := []int64{0, 1, big, big + 1, -big - 1}
		floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 2, 2.5}
		mixed := []value.Value{value.Int(2), value.Float(2), value.Int(big + 1), value.Float(float64(big))}
		r := NewRelation("I", "B", "S", "F", "M")
		for i := 0; i < n; i++ {
			r.Add(value.Int(ints[rng.Intn(len(ints))]), value.Bool(rng.Intn(2) == 0), value.Str(string(rune('a'+rng.Intn(3)))),
				value.Float(floats[rng.Intn(len(floats))]), mixed[rng.Intn(len(mixed))])
		}
		return r
	}
	for _, n := range []int{0, 1, 700, 3000} {
		rel := drows(n)
		for _, cols := range []string{"I", "B", "S", "F", "M", "I, S", "B, I, S", "S, F", "M, I", "I, B, S, F, M", "I + 1, S"} {
			q := ir.MustBuild("SELECT DISTINCT "+cols+" FROM R", dsrc)
			plain := *q
			plain.Distinct = false
			var want *Relation
			for _, w := range workers {
				db := NewDB()
				db.Put("R", rel)
				ev := NewEvaluator(db, nil)
				ev.Workers = w
				if want == nil {
					all, err := ev.ExecContext(ctx, &plain)
					if err != nil {
						t.Fatal(err)
					}
					want = distinct(all)
				}
				got, err := ev.ExecContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Tuples) != len(want.Tuples) {
					t.Fatalf("DISTINCT %s over %d rows, workers %d: %d tuples, reference %d", cols, n, w, len(got.Tuples), len(want.Tuples))
				}
				for i := range got.Tuples {
					for c := range got.Tuples[i] {
						if !sameValue(got.Tuples[i][c], want.Tuples[i][c]) {
							t.Fatalf("DISTINCT %s over %d rows, workers %d: tuple %d cell %d: %v, reference %v", cols, n, w, i, c, got.Tuples[i][c], want.Tuples[i][c])
						}
					}
				}
			}
		}
	}
}
