package core

import (
	"aggview/internal/aggreason"
	"aggview/internal/constraints"
	"aggview/internal/ir"
)

// havingStep applies the Section 3.3 / 4.3 treatment of HAVING clauses.
// Both the query and the view were pre-processed by aggreason.Normalize,
// so conditions that can live in WHERE already do.
//
// When the view has no HAVING clause, the query's (residual) HAVING
// conditions are simply re-expressed over the rewritten terms. When the
// view retains a HAVING clause, its groups were filtered; usability then
// requires that the query's groups coincide with the view's groups (no
// eliminated subgroup can be silently needed) and that GConds(Q) is
// equivalent to sigma(GConds(V)) AND GConds' for a GConds' expressible
// in the rewriting — computed by a residual in the combined
// column/aggregate constraint space of package aggreason.
func (a *analyzer) havingStep() error {
	if len(a.v.Having) == 0 {
		for _, h := range a.q.Having {
			l, err := a.rewriteExpr(h.L)
			if err != nil {
				return err
			}
			r, err := a.rewriteExpr(h.R)
			if err != nil {
				return err
			}
			a.nq.Having = append(a.nq.Having, ir.HPred{Op: h.Op, L: l, R: r})
		}
		return nil
	}

	if !a.groupsAligned() {
		return fail("condition C3' (HAVING): view groups are coarser or finer than query groups, so groups eliminated by the view's HAVING may be needed")
	}

	space := aggreason.NewSpace(a.q, a.canon)
	qHav, ok := space.HavingConj(a.q)
	if !ok {
		return fail("condition C3' (HAVING): query HAVING outside the reasoning fragment")
	}
	var vHav constraints.Conj
	for _, h := range a.v.Having {
		at, err := a.translateViewHaving(space, h)
		if err != nil {
			return err
		}
		vHav = append(vHav, at)
	}
	axioms := space.Axioms(a.qf.cl)
	target := concat(a.qf.conds, axioms, qHav)
	given := concat(a.qf.conds, axioms, vHav)
	allowed := func(v constraints.Var) bool {
		if space.IsAggVar(v) {
			term, ok := space.TermOf(v)
			return ok && a.aggTermComputable(term)
		}
		_, err := a.groupColForVar(ir.ColID(v))
		return err == nil
	}
	res, ok := constraints.Residual(constraints.Close(target), given, allowed)
	if !ok {
		return fail("condition C3' (HAVING): no residual GConds' over the available terms")
	}
	for _, at := range res {
		l, err := a.havingAtomSide(space, at.L)
		if err != nil {
			return err
		}
		r, err := a.havingAtomSide(space, at.R)
		if err != nil {
			return err
		}
		a.nq.Having = append(a.nq.Having, ir.HPred{Op: at.Op, L: l, R: r})
	}
	a.note("condition C3' (HAVING): GConds' = %s", a.renderConj(res))
	return nil
}

func concat(cs ...constraints.Conj) constraints.Conj {
	var out constraints.Conj
	for _, c := range cs {
		out = append(out, c...)
	}
	return out
}

// groupsAligned reports whether the query's and the view's grouping
// columns induce the same partition: after dropping columns pinned to
// constants, the canonical representatives of sigma(Groups(V)) and
// Groups(Q) must coincide as sets.
func (a *analyzer) groupsAligned() bool {
	vSet := map[ir.ColID]bool{}
	for _, g := range a.v.GroupBy {
		c := a.canon(a.m.sigma(g))
		if !a.qf.pinned[c] {
			vSet[c] = true
		}
	}
	qSet := map[ir.ColID]bool{}
	for _, g := range a.q.GroupBy {
		c := a.canon(g)
		if !a.qf.pinned[c] {
			qSet[c] = true
		}
	}
	if len(vSet) != len(qSet) {
		return false
	}
	for c := range vSet {
		if !qSet[c] {
			return false
		}
	}
	return true
}

// vGroupsDeterminedByQ reports the one-directional guard used by the Va
// construction and by group preservation: every view grouping column's
// image is equal to a query grouping column or pinned to a constant, so
// a query group never coalesces several view groups. Both lists are a
// handful of columns, so the test scans them and allocates nothing.
func (a *analyzer) vGroupsDeterminedByQ() bool {
	for _, g := range a.v.GroupBy {
		if c := a.canon(a.m.sigma(g)); !a.qf.pinned[c] && !a.groupsBy(c) {
			return false
		}
	}
	return true
}

// groupsBy reports whether some query grouping column is provably equal
// to the canonical column c.
func (a *analyzer) groupsBy(c ir.ColID) bool {
	for _, g := range a.q.GroupBy {
		if a.canon(g) == c {
			return true
		}
	}
	return false
}

// translateViewHaving maps one view HAVING conjunct into the query's
// constraint space through sigma. Aggregate terms transfer soundly for
// MIN, MAX and AVG (invariant under the join fan-out of uncovered
// tables); SUM and COUNT transfer only when the view covers every table
// of the query.
func (a *analyzer) translateViewHaving(space *aggreason.Space, h ir.HPred) (constraints.Atom, error) {
	l, err := a.translateVHTerm(space, h.L)
	if err != nil {
		return constraints.Atom{}, err
	}
	r, err := a.translateVHTerm(space, h.R)
	if err != nil {
		return constraints.Atom{}, err
	}
	return constraints.Atom{Op: h.Op, L: l, R: r}, nil
}

func (a *analyzer) translateVHTerm(space *aggreason.Space, e ir.Expr) (constraints.Term, error) {
	switch x := e.(type) {
	case *ir.Const:
		return constraints.C(x.Val), nil
	case *ir.ColRef:
		return constraints.V(space.ColVar(a.m.sigma(x.Col))), nil
	case *ir.Agg:
		c, ok := x.Arg.(*ir.ColRef)
		if !ok {
			return constraints.Term{}, fail("view HAVING aggregate over an expression")
		}
		switch x.Func {
		case ir.AggSum, ir.AggCount:
			if a.nCovered != len(a.q.Tables) {
				return constraints.Term{}, fail("condition C3' (HAVING): view %s term is not fan-out invariant with uncovered tables", x.Func)
			}
		}
		return constraints.V(space.AggVar(x.Func, a.m.sigma(c.Col))), nil
	}
	return constraints.Term{}, fail("view HAVING term outside the fragment")
}

// aggTermComputable reports whether an aggregate term from the
// constraint space can be expressed in the rewritten query.
func (a *analyzer) aggTermComputable(t aggreason.AggTerm) bool {
	if t.Col < 0 { // the shared COUNT variable
		_, err := a.countAsSum()
		return err == nil
	}
	_, err := a.rewriteAgg(&ir.Agg{Func: t.Func, Arg: &ir.ColRef{Col: t.Col}})
	return err == nil
}

// groupColForVar maps a canonical column variable back to a usable
// grouping column of the rewritten query.
func (a *analyzer) groupColForVar(c ir.ColID) (ir.ColID, error) {
	for _, h := range a.q.GroupBy {
		if a.canon(h) == c {
			return a.mapCol(h)
		}
	}
	return 0, fail("column %s is not a grouping column", a.q.Col(c).Name)
}

// havingAtomSide converts one side of a residual atom back into a
// HAVING expression of the rewritten query.
func (a *analyzer) havingAtomSide(space *aggreason.Space, t constraints.Term) (ir.Expr, error) {
	if t.IsConst {
		return &ir.Const{Val: t.C}, nil
	}
	if space.IsAggVar(t.V) {
		term, ok := space.TermOf(t.V)
		if !ok {
			return nil, fail("internal: unknown aggregate variable")
		}
		if term.Col < 0 {
			return a.countAsSum()
		}
		return a.rewriteAgg(&ir.Agg{Func: term.Func, Arg: &ir.ColRef{Col: term.Col}})
	}
	nc, err := a.groupColForVar(ir.ColID(t.V))
	if err != nil {
		return nil, err
	}
	return &ir.ColRef{Col: nc}, nil
}
