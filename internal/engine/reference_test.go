package engine

// The row-at-a-time references the kernel property tests hold the
// vectorized engine to: one predicate on one boxed row, one expression
// on one row or one group, one row folded into one boxed accumulator,
// string-keyed DISTINCT over boxed tuples, one nested loop over two
// tables. Production folds and finalizes through vagg.go, removes
// duplicates through the group index (exec.go) and joins through
// vjoin.go only.

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// batchFromRows builds a batch from full-width rows indexed by ColID,
// stored as a table would store them (BuildColTable). It is the bridge
// from row-major data used by tests and reference implementations.
func batchFromRows(rows [][]value.Value, width int) *Batch {
	ct := BuildColTable(&Relation{Attrs: make([]string, width), Tuples: rows})
	return &Batch{n: len(rows), cols: ct.cols}
}

// newTask returns a task of its own under ctx, for a test that drives
// the kernels below ExecColumns.
func newTask(ctx context.Context) *task {
	t := new(task)
	t.start(ctx)
	return t
}

// stored returns rows as a table of width columns stores them: what a
// reference reads of the rows batchFromRows hands the kernels (a column
// of ints and floats comes back as floats).
func stored(rows [][]value.Value, width int) [][]value.Value {
	return BuildColTable(&Relation{Attrs: make([]string, width), Tuples: rows}).Relation().Tuples
}

// aggregateBatch is aggregate as the property tests were written against
// it: the result boxed into out's tuples.
func (ev *Evaluator) aggregateBatch(t *task, q *ir.Query, b *Batch, preds []ir.Pred, fused bool, out *Relation) error {
	ct, err := ev.aggregate(t, NewPlan(q), b, preds, fused)
	if err != nil {
		return err
	}
	out.Tuples = ct.Relation().Tuples
	return nil
}

// predHolds evaluates a WHERE predicate on a full-width row. It is the
// row-at-a-time reference semantics of the vectorized filter kernel
// (see TestFilterKernelMatchesReference).
func predHolds(p ir.Pred, row []value.Value) (bool, error) {
	l := termValue(p.L, row)
	r := termValue(p.R, row)
	return compare(p.Op, l, r)
}

func termValue(t ir.Term, row []value.Value) value.Value {
	if t.IsConst {
		return t.Val
	}
	return row[t.Col]
}

// accum is the boxed state of one aggregate over one group, the
// row-at-a-time reference the typed fold (vagg.go) is held to. Rows are
// absorbed in input order; a total is summed exactly in math/big: an int
// one fails only when its final value leaves int64, a float one is
// rounded once, to nearest even.
type accum struct {
	fn   ir.AggFunc
	arg  ir.Expr // nil for COUNT(*) and bare COUNT
	rows int64
	seen bool
	ints big.Int // SUM and AVG over ints: the exact total
	// SUM and AVG over floats: the exact finite total, and the
	// non-finite values met.
	floats          *big.Float
	nan, pinf, ninf bool
	best            value.Value // MIN/MAX: current extremum
}

// absorb folds one evaluated argument value into the accumulator, for
// every aggregate except COUNT, whose argument check happens on the
// group representative instead.
func (ac *accum) absorb(v value.Value) error {
	ac.rows++
	switch ac.fn {
	case ir.AggMin, ir.AggMax:
		if !ac.seen {
			ac.best, ac.seen = v, true
			return nil
		}
		if !value.Comparable(ac.best, v) {
			return fmt.Errorf("engine: %s over incomparable values %s and %s", ac.fn, ac.best, v)
		}
		c := value.Compare(v, ac.best)
		if (ac.fn == ir.AggMin && c < 0) || (ac.fn == ir.AggMax && c > 0) {
			ac.best = v
		}
	case ir.AggSum, ir.AggAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("engine: %s over non-numeric value %s", ac.fn, v)
		}
		// A SUM's values share one kind: a stored column of ints and
		// floats reads as floats.
		if v.Kind() == value.KindInt {
			ac.ints.Add(&ac.ints, big.NewInt(v.AsInt()))
			return nil
		}
		if ac.ints.Sign() != 0 {
			return fmt.Errorf("reference: %s over ints and floats", ac.fn)
		}
		if ac.floats == nil {
			ac.floats = new(big.Float).SetPrec(4096)
		}
		switch f := v.AsFloat(); {
		case math.IsNaN(f):
			ac.nan = true
		case math.IsInf(f, 1):
			ac.pinf = true
		case math.IsInf(f, -1):
			ac.ninf = true
		default:
			ac.floats.Add(ac.floats, big.NewFloat(f))
		}
	default:
		return fmt.Errorf("engine: unknown aggregate %v", ac.fn)
	}
	return nil
}

// result finalizes the accumulator into the aggregate's value, a float
// as its canonical member.
func (ac *accum) result() (value.Value, error) {
	if ac.arg == nil || ac.fn == ir.AggCount {
		return value.Int(ac.rows), nil
	}
	var sum value.Value
	switch {
	case ac.fn == ir.AggMin || ac.fn == ir.AggMax:
	case ac.floats == nil && !ac.ints.IsInt64():
		return value.Value{}, &value.OverflowError{Op: '+'}
	case ac.floats == nil:
		sum = value.Int(ac.ints.Int64())
	case ac.nan || ac.pinf && ac.ninf:
		sum = value.Float(math.NaN())
	case ac.pinf:
		sum = value.Float(math.Inf(1))
	case ac.ninf:
		sum = value.Float(math.Inf(-1))
	default:
		f, _ := ac.floats.Float64()
		sum = value.Float(f)
	}
	switch ac.fn {
	case ir.AggMin, ir.AggMax:
		return ac.best.Canon(), nil
	case ir.AggSum:
		return sum.Canon(), nil
	case ir.AggAvg:
		return value.Float(value.CanonFloat(sum.AsFloat() / float64(ac.rows))), nil
	default:
		return value.Value{}, fmt.Errorf("engine: unknown aggregate %v", ac.fn)
	}
}

// fold absorbs one row into the accumulator: the row-at-a-time
// reference semantics of the vectorized fold (see
// TestAggKernelMatchesReference).
func (ac *accum) fold(row []value.Value) error {
	if ac.arg == nil {
		ac.rows++
		return nil
	}
	if ac.fn == ir.AggCount {
		// No NULLs: COUNT(arg) counts rows. The argument is still
		// evaluated once to surface reference errors.
		ac.rows++
		if !ac.seen {
			if _, err := evalScalar(ac.arg, row); err != nil {
				return err
			}
			ac.seen = true
		}
		return nil
	}
	v, err := evalScalar(ac.arg, row)
	if err != nil {
		return err
	}
	return ac.absorb(v)
}

// evalScalar evaluates an aggregate-free expression on one row: the
// reference of evalVop (see TestExprKernelMatchesReference).
func evalScalar(e ir.Expr, row []value.Value) (value.Value, error) {
	switch x := e.(type) {
	case *ir.ColRef:
		return row[x.Col], nil
	case *ir.Const:
		return x.Val, nil
	case *ir.Arith:
		l, err := evalScalar(x.L, row)
		if err != nil {
			return value.Value{}, err
		}
		r, err := evalScalar(x.R, row)
		if err != nil {
			return value.Value{}, err
		}
		return applyArith(x.Op, l, r)
	case *ir.Agg:
		return value.Value{}, fmt.Errorf("engine: aggregate %s in a non-aggregated context", x.Func)
	default:
		return value.Value{}, fmt.Errorf("engine: unknown expression %T", e)
	}
}

// group is one GROUP BY group as HAVING and SELECT read it a group at a
// time: its representative row (for grouping columns), one accumulator
// per aggregate occurrence, and the index of its first row. It is the
// reference of the column-at-a-time output stage (assembleGroups).
type group struct {
	rep   []value.Value
	accs  []accum
	first int
}

// evalGrouped evaluates an expression in group context: bare columns
// come from the representative row, aggregates read their accumulator.
func evalGrouped(e ir.Expr, g *group, aggIdx map[*ir.Agg]int) (value.Value, error) {
	switch x := e.(type) {
	case *ir.ColRef:
		return g.rep[x.Col], nil
	case *ir.Const:
		return x.Val, nil
	case *ir.Arith:
		l, err := evalGrouped(x.L, g, aggIdx)
		if err != nil {
			return value.Value{}, err
		}
		r, err := evalGrouped(x.R, g, aggIdx)
		if err != nil {
			return value.Value{}, err
		}
		return applyArith(x.Op, l, r)
	case *ir.Agg:
		i, ok := aggIdx[x]
		if !ok {
			return value.Value{}, fmt.Errorf("engine: aggregate %s not collected for this query", x.Func)
		}
		return g.accs[i].result()
	default:
		return value.Value{}, fmt.Errorf("engine: unknown expression %T", e)
	}
}

// distinct removes duplicate tuples by their canonical string keys,
// keeping each first appearance's cells as their canonical members: the
// reference of distinctRows.
func distinct(r *Relation) *Relation {
	seen := map[string]bool{}
	out := &Relation{Attrs: r.Attrs}
	for _, t := range r.Tuples {
		k := tupleKey(t)
		if !seen[k] {
			seen[k] = true
			out.Tuples = append(out.Tuples, canonTuple(t))
		}
	}
	return out
}

// canonTuple returns a copy of t with every cell its canonical member.
func canonTuple(t []value.Value) []value.Value {
	out := make([]value.Value, len(t))
	for i, v := range t {
		out[i] = v.Canon()
	}
	return out
}

// newAccs builds the accumulator bank for one group.
func newAccs(aggs []*ir.Agg) []accum {
	accs := make([]accum, len(aggs))
	for i, a := range aggs {
		accs[i].fn = a.Func
		if !a.Star {
			accs[i].arg = a.Arg
		}
	}
	return accs
}

func newGroup(rep []value.Value, aggs []*ir.Agg, first int) *group {
	return &group{rep: rep, accs: newAccs(aggs), first: first}
}

// fold absorbs one row into every accumulator of the group.
func (g *group) fold(row []value.Value) error {
	for i := range g.accs {
		if err := g.accs[i].fold(row); err != nil {
			return err
		}
	}
	return nil
}

// nestedLoopJoin is the reference of a two-table equi-join on a's columns
// ka and b's columns kb, pairwise: the index pairs (row of a, row of b)
// of the rows whose keys are equal, in the engine's pair order. That
// order is probe-major: the outer loop walks the larger table in row
// order — a on a tie, the first in FROM — and the inner loop the other,
// so each walked row meets its matches in their row order.
func nestedLoopJoin(a, b [][]value.Value, ka, kb []int) [][2]int {
	match := func(ra, rb []value.Value) bool {
		for k := range ka {
			if !value.KeyEqual(ra[ka[k]], rb[kb[k]]) {
				return false
			}
		}
		return true
	}
	var pairs [][2]int
	if len(a) >= len(b) {
		for i, ra := range a {
			for j, rb := range b {
				if match(ra, rb) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		return pairs
	}
	for j, rb := range b {
		for i, ra := range a {
			if match(ra, rb) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}
