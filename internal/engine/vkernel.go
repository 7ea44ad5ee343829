package engine

import (
	"cmp"
	"context"
	"fmt"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// ord orders two same-type cells without exact float equality: the
// comparisons mirror value.Compare's per-domain behavior (NaN orders
// equal to everything, as float < and > are both false).
func ord[T cmp.Ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// opKeep reports whether a row with comparison outcome c survives op.
func opKeep(op ir.Op, c int) bool {
	switch op {
	case ir.OpEq:
		return c == 0
	case ir.OpNeq:
		return c != 0
	case ir.OpLt:
		return c < 0
	case ir.OpLeq:
		return c <= 0
	case ir.OpGt:
		return c > 0
	default: // ir.OpGeq
		return c >= 0
	}
}

// selCmpConst appends to out the indices i of sel whose cell xs[i]
// satisfies `xs[i] op y` in T's domain.
func selCmpConst[T cmp.Ordered](op ir.Op, xs []T, y T, sel, out []int32) []int32 {
	for _, i := range sel {
		if opKeep(op, ord(xs[i], y)) {
			out = append(out, i)
		}
	}
	return out
}

// selCmpCols is selCmpConst for a column-column predicate.
func selCmpCols[T cmp.Ordered](op ir.Op, xs, ys []T, sel, out []int32) []int32 {
	for _, i := range sel {
		if opKeep(op, ord(xs[i], ys[i])) {
			out = append(out, i)
		}
	}
	return out
}

// vecOperand is one side of a vectorized predicate: a column vector or
// a broadcast constant.
type vecOperand struct {
	vec     *Vec
	c       value.Value
	isConst bool
}

func predOperand(t ir.Term, b *Batch) vecOperand {
	if t.IsConst {
		return vecOperand{c: t.Val, isConst: true}
	}
	if v := b.cols[t.Col]; v != nil {
		return vecOperand{vec: v}
	}
	// Unbound slot: the row-at-a-time engine read the zero Value there.
	return vecOperand{c: value.Value{}, isConst: true}
}

// kindOf returns the operand's cell kind (kindMixed for mixed vectors).
func (o vecOperand) kindOf() value.Kind {
	if o.isConst {
		return o.c.Kind()
	}
	return o.vec.kind
}

func numericKind(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }

// predSelInto refines the selection sel through one predicate,
// appending survivors to out (callers ping-pong two buffers). The
// kernel dispatches on the operand kinds once and runs a tight typed
// loop; mixed-kind vectors fall back to boxed row-at-a-time comparison
// with identical semantics.
func predSelInto(p ir.Pred, b *Batch, sel, out []int32) ([]int32, error) {
	op := p.Op
	l, r := predOperand(p.L, b), predOperand(p.R, b)
	if l.isConst && !r.isConst {
		op = op.Flip()
		l, r = r, l
	}
	if op > ir.OpGeq {
		return nil, fmt.Errorf("engine: unknown operator %v", op)
	}
	if l.isConst { // both sides constant
		h, err := compare(op, l.c, r.c)
		if err != nil {
			return nil, err
		}
		if h {
			return append(out, sel...), nil
		}
		return out, nil
	}

	lk, rk := l.kindOf(), r.kindOf()
	if lk == kindMixed || rk == kindMixed {
		// Boxed fallback: exact row-at-a-time semantics.
		for _, i := range sel {
			var rv value.Value
			if r.isConst {
				rv = r.c
			} else {
				rv = r.vec.Value(int(i))
			}
			h, err := compare(op, l.vec.Value(int(i)), rv)
			if err != nil {
				return nil, err
			}
			if h {
				out = append(out, i)
			}
		}
		return out, nil
	}

	// Incomparable typed kinds decide the whole vector: compare()
	// returns (op == Neq) for every row.
	comparable := lk == rk || (numericKind(lk) && numericKind(rk))
	if !comparable {
		if op == ir.OpNeq {
			return append(out, sel...), nil
		}
		return out, nil
	}

	if r.isConst {
		switch {
		case lk == value.KindInt && rk == value.KindInt:
			return selCmpConst(op, l.vec.ints, r.c.AsInt(), sel, out), nil
		case numericKind(lk): // at least one float: float domain
			y := r.c.AsFloat()
			if lk == value.KindInt {
				for _, i := range sel {
					if opKeep(op, ord(float64(l.vec.ints[i]), y)) {
						out = append(out, i)
					}
				}
				return out, nil
			}
			return selCmpConst(op, l.vec.floats, y, sel, out), nil
		case lk == value.KindString:
			return selCmpConst(op, l.vec.strs, r.c.AsString(), sel, out), nil
		default: // bool vs bool: 0/1 payload in the int domain
			y := int64(0)
			if r.c.AsBool() {
				y = 1
			}
			return selCmpConst(op, l.vec.ints, y, sel, out), nil
		}
	}

	switch {
	case lk == value.KindInt && rk == value.KindInt:
		return selCmpCols(op, l.vec.ints, r.vec.ints, sel, out), nil
	case numericKind(lk): // mixed int/float columns: float domain
		lf, li := l.vec.floats, l.vec.ints
		rf, ri := r.vec.floats, r.vec.ints
		for _, i := range sel {
			var a, c float64
			if lk == value.KindInt {
				a = float64(li[i])
			} else {
				a = lf[i]
			}
			if rk == value.KindInt {
				c = float64(ri[i])
			} else {
				c = rf[i]
			}
			if opKeep(op, ord(a, c)) {
				out = append(out, i)
			}
		}
		return out, nil
	case lk == value.KindString:
		return selCmpCols(op, l.vec.strs, r.vec.strs, sel, out), nil
	default: // bool vs bool
		return selCmpCols(op, l.vec.ints, r.vec.ints, sel, out), nil
	}
}

// filterSel evaluates a conjunction of predicates over the dense batch,
// morsel-parallel, and returns the surviving row indices in input
// order. Each morsel refines a private selection through the predicates
// and commits it to its slot; the slots concatenate in morsel order, so
// the selection is byte-identical to the serial scan.
func (ev *Evaluator) filterSel(t *task, site string, b *Batch, preds []ir.Pred) ([]int32, error) {
	parts := make([][]int32, morselCount(b.n))
	err := ev.morselRun(t, site, ev.workersFor(b.n), b.n, func(m, lo, hi int) error {
		sel := make([]int32, hi-lo)
		for j := range sel {
			sel[j] = int32(lo + j)
		}
		scratch := make([]int32, 0, hi-lo)
		for _, p := range preds {
			next, err := predSelInto(p, b, sel, scratch[:0])
			if err != nil {
				return err
			}
			sel, scratch = next, sel
			if len(sel) == 0 {
				break
			}
		}
		parts[m] = sel
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// MatchContext returns, ascending, the positions of ct's rows that
// satisfy every predicate, through the same morsel-parallel typed
// filter a scan uses. Column terms address ct's attributes by position.
// It is how DELETE and UPDATE find their rows without boxing the table;
// rows are charged to the context's budget at site "match".
func (ev *Evaluator) MatchContext(ctx context.Context, ct *ColTable, preds []ir.Pred) ([]int32, error) {
	return ev.filterSel(newTask(ctx), "match", &Batch{n: ct.n, cols: ct.cols}, preds)
}

// intsOf returns the operand in the int64 domain over n rows,
// broadcasting constants. Only called when the operand is int-kind.
func intsOf(o vecOperand, n int) []int64 {
	if !o.isConst {
		return o.vec.ints
	}
	xs := make([]int64, n)
	y := o.c.AsInt()
	for i := range xs {
		xs[i] = y
	}
	return xs
}

// floatsOf returns the operand in the float64 domain over n rows,
// broadcasting constants and widening int vectors. Only called when
// the operand is numeric.
func floatsOf(o vecOperand, n int) []float64 {
	if !o.isConst && o.vec.kind == value.KindFloat {
		return o.vec.floats
	}
	xs := make([]float64, n)
	if o.isConst {
		y := o.c.AsFloat()
		for i := range xs {
			xs[i] = y
		}
		return xs
	}
	for i, v := range o.vec.ints {
		xs[i] = float64(v)
	}
	return xs
}

// evalVop evaluates an aggregate-free expression over a dense batch
// into a vector or a broadcast constant. Arithmetic over uniformly
// numeric columns runs as typed loops; anything else falls back to
// boxed per-row evaluation with the row-at-a-time engine's exact error
// values.
func evalVop(e ir.Expr, b *Batch) (vecOperand, error) {
	switch x := e.(type) {
	case *ir.ColRef:
		return predOperand(ir.ColTerm(x.Col), b), nil
	case *ir.Const:
		return vecOperand{c: x.Val, isConst: true}, nil
	case *ir.Arith:
		l, err := evalVop(x.L, b)
		if err != nil {
			return vecOperand{}, err
		}
		r, err := evalVop(x.R, b)
		if err != nil {
			return vecOperand{}, err
		}
		return arithVop(x.Op, l, r, b.n)
	case *ir.Agg:
		return vecOperand{}, fmt.Errorf("engine: aggregate %s in a non-aggregated context", x.Func)
	default:
		return vecOperand{}, fmt.Errorf("engine: unknown expression %T", e)
	}
}

// arithVop applies one arithmetic operator over two operands.
func arithVop(op ir.ArithOp, l, r vecOperand, n int) (vecOperand, error) {
	if l.isConst && r.isConst {
		v, err := applyArith(op, l.c, r.c)
		if err != nil {
			return vecOperand{}, err
		}
		return vecOperand{c: v, isConst: true}, nil
	}
	lk, rk := l.kindOf(), r.kindOf()
	if !numericKind(lk) || !numericKind(rk) {
		// Boxed fallback, surfacing value package errors verbatim
		// (including non-numeric operand errors on the first offending
		// row, in row order).
		vals := make([]value.Value, n)
		for i := 0; i < n; i++ {
			var a, c value.Value
			if l.isConst {
				a = l.c
			} else {
				a = l.vec.Value(i)
			}
			if r.isConst {
				c = r.c
			} else {
				c = r.vec.Value(i)
			}
			v, err := applyArith(op, a, c)
			if err != nil {
				return vecOperand{}, err
			}
			vals[i] = v
		}
		return vecOperand{vec: vecFromValues(vals)}, nil
	}
	if op != ir.ArithDiv && lk == value.KindInt && rk == value.KindInt {
		la, ra := intsOf(l, n), intsOf(r, n)
		out := make([]int64, n)
		switch op {
		case ir.ArithAdd:
			for i := range out {
				out[i] = la[i] + ra[i]
			}
		case ir.ArithSub:
			for i := range out {
				out[i] = la[i] - ra[i]
			}
		default: // ir.ArithMul
			for i := range out {
				out[i] = la[i] * ra[i]
			}
		}
		return vecOperand{vec: &Vec{kind: value.KindInt, ints: out}}, nil
	}
	la, ra := floatsOf(l, n), floatsOf(r, n)
	out := make([]float64, n)
	switch op {
	case ir.ArithAdd:
		for i := range out {
			out[i] = la[i] + ra[i]
		}
	case ir.ArithSub:
		for i := range out {
			out[i] = la[i] - ra[i]
		}
	case ir.ArithMul:
		for i := range out {
			out[i] = la[i] * ra[i]
		}
	default: // ir.ArithDiv: division always yields a float (value.Div)
		for i := range out {
			d := ra[i]
			//aggvet:floateq division-by-zero guard mirrors value.Div: only an exactly-zero divisor is an error, near-zero must divide
			if d == 0 {
				_, err := value.Div(value.Float(la[i]), value.Float(d))
				return vecOperand{}, err
			}
			out[i] = la[i] / d
		}
	}
	return vecOperand{vec: &Vec{kind: value.KindFloat, floats: out}}, nil
}

// evalVec evaluates an aggregate-free expression into a vector of b.n
// cells, materializing broadcast constants.
func evalVec(e ir.Expr, b *Batch) (*Vec, error) {
	o, err := evalVop(e, b)
	if err != nil {
		return nil, err
	}
	if !o.isConst {
		return o.vec, nil
	}
	vals := make([]value.Value, b.n)
	for i := range vals {
		vals[i] = o.c
	}
	return vecFromValues(vals), nil
}
