package engine

import (
	"fmt"

	"aggview/internal/ir"
	"aggview/internal/value"
)

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
