package engine

import (
	"fmt"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// accum is the boxed state of one aggregate over one group: what the
// fold keeps per group for mixed-kind and non-numeric argument vectors
// (typed vectors fold into typed accumulator columns, see vagg.go), what
// partials of differing representation merge through, and what such a
// column's groups are finalized from. Rows are absorbed in input order and partial
// states merge in morsel index order, so the fold tree — including float
// accumulation order — is fixed by the input alone and results are
// byte-identical between the serial and parallel paths.
type accum struct {
	fn   ir.AggFunc
	arg  ir.Expr // nil for COUNT(*) and bare COUNT
	rows int64
	seen bool
	sum  value.Value // SUM: running total, typed by the earliest value
	avg  float64     // AVG: running float total
	best value.Value // MIN/MAX: current extremum
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
	case ir.AggSum:
		if !v.IsNumeric() {
			return fmt.Errorf("engine: SUM over non-numeric value %s", v)
		}
		if !ac.seen {
			ac.sum, ac.seen = v, true
			return nil
		}
		var err error
		ac.sum, err = value.Add(ac.sum, v)
		return err
	case ir.AggAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("engine: AVG over non-numeric value %s", v)
		}
		ac.avg += v.AsFloat()
	default:
		return fmt.Errorf("engine: unknown aggregate %v", ac.fn)
	}
	return nil
}

// merge absorbs another accumulator's partial state, produced over rows
// strictly after this accumulator's own. SUM combines the partials with
// the same value.Add chain the serial fold would have used, so typing
// (int until the first float) follows the earliest rows.
func (ac *accum) merge(o *accum) error {
	ac.rows += o.rows
	if ac.arg == nil || ac.fn == ir.AggCount {
		if o.seen {
			ac.seen = true
		}
		return nil
	}
	switch ac.fn {
	case ir.AggMin, ir.AggMax:
		if !o.seen {
			return nil
		}
		if !ac.seen {
			ac.best, ac.seen = o.best, true
			return nil
		}
		if !value.Comparable(ac.best, o.best) {
			return fmt.Errorf("engine: %s over incomparable values %s and %s", ac.fn, ac.best, o.best)
		}
		c := value.Compare(o.best, ac.best)
		if (ac.fn == ir.AggMin && c < 0) || (ac.fn == ir.AggMax && c > 0) {
			ac.best = o.best
		}
	case ir.AggSum:
		if !o.seen {
			return nil
		}
		if !ac.seen {
			ac.sum, ac.seen = o.sum, true
			return nil
		}
		var err error
		ac.sum, err = value.Add(ac.sum, o.sum)
		return err
	case ir.AggAvg:
		ac.avg += o.avg
	default:
		return fmt.Errorf("engine: unknown aggregate %v", ac.fn)
	}
	return nil
}

// result finalizes the accumulator into the aggregate's value.
func (ac *accum) result() (value.Value, error) {
	if ac.arg == nil || ac.fn == ir.AggCount {
		return value.Int(ac.rows), nil
	}
	switch ac.fn {
	case ir.AggMin, ir.AggMax:
		return ac.best, nil
	case ir.AggSum:
		return ac.sum, nil
	case ir.AggAvg:
		return value.Float(ac.avg / float64(ac.rows)), nil
	default:
		return value.Value{}, fmt.Errorf("engine: unknown aggregate %v", ac.fn)
	}
}

// collectAggs gathers the aggregate occurrences of SELECT and HAVING in
// a deterministic order, with a node -> accumulator-index map.
func collectAggs(q *ir.Query) ([]*ir.Agg, map[*ir.Agg]int) {
	var list []*ir.Agg
	idx := map[*ir.Agg]int{}
	var walk func(e ir.Expr)
	walk = func(e ir.Expr) {
		switch x := e.(type) {
		case *ir.Arith:
			walk(x.L)
			walk(x.R)
		case *ir.Agg:
			if _, ok := idx[x]; !ok {
				idx[x] = len(list)
				list = append(list, x)
			}
		}
	}
	for _, it := range q.Select {
		walk(it.Expr)
	}
	for _, h := range q.Having {
		walk(h.L)
		walk(h.R)
	}
	return list, idx
}

func applyArith(op ir.ArithOp, l, r value.Value) (value.Value, error) {
	switch op {
	case ir.ArithAdd:
		return value.Add(l, r)
	case ir.ArithSub:
		return value.Sub(l, r)
	case ir.ArithMul:
		return value.Mul(l, r)
	case ir.ArithDiv:
		return value.Div(l, r)
	default:
		return value.Value{}, fmt.Errorf("engine: unknown arithmetic operator %v", op)
	}
}
