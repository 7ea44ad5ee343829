package core

import "aggview/internal/ir"

// DropFold rewrites a group-preserving rewriting, in place, into the
// select-project its steps S1'-S5' degenerate to when each of its groups
// is exactly one view row: each aggregate becomes its argument, each
// HAVING conjunct becomes a WHERE conjunct, and the GROUP BY is dropped.
// A rewriting over an aggregation view holds only SUM, MIN and MAX
// (COUNT is already SUM(N), AVG already SUM(S)/SUM(N)), so SUM, MIN or
// MAX of a view column becomes the column, COUNT becomes N and AVG S/N.
// The answer is the aggregating form's bit for bit: a fold over one row
// returns that row's cell (a SUM starts at +0, which leaves every float's
// bits alone but -0's, and a view's cells are canonical, so none is -0),
// and the view's grouping columns are its key, so the rows stay
// distinct.
//
// It reports whether it changed the rewriting. A rewriting that is not
// group-preserving, or whose HAVING compares an expression rather than a
// column or a constant once its aggregates are dropped (a WHERE conjunct
// compares terms), is left alone. A changed rewriting is no longer
// group-preserving, so a second call reports false.
func (r *Rewriting) DropFold() bool {
	if !r.groupPreserving {
		return false
	}
	q := r.Query
	for _, h := range q.Having {
		if !termSide(h.L) || !termSide(h.R) {
			return false
		}
	}
	for i := range q.Select {
		q.Select[i].Expr = dropAggs(q.Select[i].Expr)
	}
	for _, h := range q.Having {
		q.Where = append(q.Where, ir.Pred{Op: h.Op, L: termOf(dropAggs(h.L)), R: termOf(dropAggs(h.R))})
	}
	q.Having, q.GroupBy = nil, nil
	r.groupPreserving = false
	return true
}

// dropAggs replaces each aggregate in e by its argument, rebuilding the
// arithmetic above it in place.
func dropAggs(e ir.Expr) ir.Expr {
	switch x := e.(type) {
	case *ir.Agg:
		return x.Arg
	case *ir.Arith:
		x.L, x.R = dropAggs(x.L), dropAggs(x.R)
	}
	return e
}

// termSide reports whether a HAVING side is a column or a constant once
// its aggregate is dropped, which a WHERE conjunct can compare. It only
// looks: dropAggs would rebuild an arithmetic side in place.
func termSide(e ir.Expr) bool {
	if a, ok := e.(*ir.Agg); ok {
		e = a.Arg
	}
	switch e.(type) {
	case *ir.ColRef, *ir.Const:
		return true
	}
	return false
}

// termOf converts a column or constant expression into a WHERE term.
func termOf(e ir.Expr) ir.Term {
	if c, ok := e.(*ir.Const); ok {
		return ir.ConstTerm(c.Val)
	}
	return ir.ColTerm(e.(*ir.ColRef).Col)
}
