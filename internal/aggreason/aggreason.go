// Package aggreason implements reasoning with aggregation constraints:
// the HAVING-clause machinery the paper imports from predicate
// move-around [LMS94] and aggregation-constraint foundations [RSSS95].
//
// It provides two things. Normalize moves maximal sets of conditions
// from the HAVING clause into the WHERE clause (the pre-processing step
// of Sections 3.3 and 4.3), which both simplifies the query and lets the
// rewriter detect view usability it would otherwise miss. Space embeds a
// query's WHERE and HAVING conditions into the constraint language of
// package constraints, allocating variables for aggregate terms and
// generating the axioms that relate them (MIN <= AVG <= MAX, COUNT >= 1,
// bounds on aggregates inherited from WHERE-clause bounds on their
// argument columns), so that entailment and residual computations can
// span both clauses.
package aggreason

import (
	"aggview/internal/constraints"
	"aggview/internal/ir"
	"aggview/internal/value"
)

// Normalize returns q with HAVING conditions moved into the WHERE clause
// wherever that preserves multiset equivalence — q itself when no
// condition moves (callers treat the result as read-only), a modified
// copy otherwise:
//
//   - A conjunct mentioning only grouping columns and constants moves
//     unconditionally: grouping columns are constant within a group, so
//     the filter removes whole groups exactly as HAVING would.
//   - A conjunct MAX(A) > c (or >=) moves as A > c (A >= c) when that
//     MAX(A) is the only aggregate term in the entire query: filtering
//     keeps precisely the groups some row of which exceeds c, and the
//     maximum of the surviving rows is unchanged. MIN(A) < c (<=) is
//     symmetric. With any other aggregate present the group contents
//     matter and the move is unsound (paper Section 3.3).
func Normalize(q *ir.Query) *ir.Query {
	if len(q.Having) == 0 {
		return q
	}
	aggTerms := collectAggTerms(q)
	moved := make([]ir.Pred, 0, len(q.Having))
	keep := make([]int, 0, len(q.Having))
	for i, h := range q.Having {
		if p, ok := groupOnlyPred(q, h); ok {
			moved = append(moved, p)
		} else if p, ok := extremalPushdown(q, h, aggTerms); ok {
			moved = append(moved, p)
		} else {
			keep = append(keep, i)
		}
	}
	if len(moved) == 0 {
		return q
	}
	out := q.Clone()
	out.Where = append(out.Where, moved...)
	var kept []ir.HPred
	for _, i := range keep {
		kept = append(kept, out.Having[i])
	}
	out.Having = kept
	return out
}

// AggTerm identifies an aggregate application up to its argument column.
type AggTerm struct {
	Func ir.AggFunc
	Col  ir.ColID
}

// collectAggTerms gathers the distinct simple aggregate terms AGG(col)
// appearing in SELECT or HAVING; the bool reports whether every
// aggregate in the query is simple (argument is a bare column).
func collectAggTerms(q *ir.Query) map[AggTerm]bool {
	terms := map[AggTerm]bool{}
	var walk func(e ir.Expr)
	walk = func(e ir.Expr) {
		switch x := e.(type) {
		case *ir.Agg:
			if c, ok := x.Arg.(*ir.ColRef); ok {
				terms[AggTerm{x.Func, c.Col}] = true
			} else {
				// Non-simple aggregate: record a sentinel so the
				// extremal pushdown (which requires a lone simple term)
				// never fires.
				terms[AggTerm{x.Func, -1}] = true
			}
		case *ir.Arith:
			walk(x.L)
			walk(x.R)
		}
	}
	for _, it := range q.Select {
		walk(it.Expr)
	}
	for _, h := range q.Having {
		walk(h.L)
		walk(h.R)
	}
	return terms
}

// groupOnlyPred converts a HAVING conjunct into a WHERE predicate when
// both sides are grouping columns or constants.
func groupOnlyPred(q *ir.Query, h ir.HPred) (ir.Pred, bool) {
	l, ok := groupTerm(q, h.L)
	if !ok {
		return ir.Pred{}, false
	}
	r, ok := groupTerm(q, h.R)
	if !ok {
		return ir.Pred{}, false
	}
	return ir.Pred{Op: h.Op, L: l, R: r}, true
}

func groupTerm(q *ir.Query, e ir.Expr) (ir.Term, bool) {
	switch x := e.(type) {
	case *ir.ColRef:
		if q.IsGrouping(x.Col) {
			return ir.ColTerm(x.Col), true
		}
	case *ir.Const:
		return ir.ConstTerm(x.Val), true
	}
	return ir.Term{}, false
}

// extremalPushdown applies the MIN/MAX rule described on Normalize.
func extremalPushdown(q *ir.Query, h ir.HPred, aggTerms map[AggTerm]bool) (ir.Pred, bool) {
	if len(aggTerms) != 1 {
		return ir.Pred{}, false
	}
	// Identify the conjunct's shape: AGG(col) op const (either side).
	agg, aok := h.L.(*ir.Agg)
	c, cok := h.R.(*ir.Const)
	op := h.Op
	if !aok || !cok {
		agg, aok = h.R.(*ir.Agg)
		c, cok = h.L.(*ir.Const)
		op = h.Op.Flip()
		if !aok || !cok {
			return ir.Pred{}, false
		}
	}
	col, ok := agg.Arg.(*ir.ColRef)
	if !ok {
		return ir.Pred{}, false
	}
	if !aggTerms[AggTerm{agg.Func, col.Col}] {
		return ir.Pred{}, false
	}
	switch agg.Func {
	case ir.AggMax:
		if op == ir.OpGt || op == ir.OpGeq {
			return ir.Pred{Op: op, L: ir.ColTerm(col.Col), R: ir.ConstTerm(c.Val)}, true
		}
	case ir.AggMin:
		if op == ir.OpLt || op == ir.OpLeq {
			return ir.Pred{Op: op, L: ir.ColTerm(col.Col), R: ir.ConstTerm(c.Val)}, true
		}
	}
	return ir.Pred{}, false
}

// WhereConj converts a query's WHERE clause into constraint atoms, with
// column c becoming variable Var(c).
func WhereConj(q *ir.Query) constraints.Conj {
	out := make(constraints.Conj, 0, len(q.Where))
	for _, p := range q.Where {
		out = append(out, constraints.Atom{Op: p.Op, L: term(p.L), R: term(p.R)})
	}
	return out
}

func term(t ir.Term) constraints.Term {
	if t.IsConst {
		return constraints.C(t.Val)
	}
	return constraints.V(constraints.Var(t.Col))
}

// Space allocates constraint variables for a query's columns and
// aggregate terms so WHERE and HAVING can be reasoned about together.
// Column c maps to Var(c); aggregate terms get variables above the
// column range. Aggregate argument columns are canonicalized through
// canon (typically the equivalence-class representative under the
// query's WHERE closure), so SUM(A) and SUM(B) share a variable when
// A = B is enforced.
type Space struct {
	base  constraints.Var
	canon func(ir.ColID) ir.ColID
	vars  map[AggTerm]constraints.Var
	terms []AggTerm
}

// NewSpace builds a Space for a query with the given column
// canonicalization function (nil means identity).
func NewSpace(q *ir.Query, canon func(ir.ColID) ir.ColID) *Space {
	if canon == nil {
		canon = func(c ir.ColID) ir.ColID { return c }
	}
	return &Space{
		base:  constraints.Var(q.NumCols()),
		canon: canon,
		vars:  map[AggTerm]constraints.Var{},
	}
}

// ColVar returns the variable of a (canonicalized) column.
func (s *Space) ColVar(c ir.ColID) constraints.Var {
	return constraints.Var(s.canon(c))
}

// AggVar returns (allocating on first use) the variable of an aggregate
// term; the argument column is canonicalized first. COUNT terms all share
// one variable regardless of column: with no NULLs, COUNT(A) = COUNT(B).
func (s *Space) AggVar(fn ir.AggFunc, col ir.ColID) constraints.Var {
	key := AggTerm{fn, s.canon(col)}
	if fn == ir.AggCount {
		key.Col = -1
	}
	if v, ok := s.vars[key]; ok {
		return v
	}
	v := s.base + constraints.Var(len(s.terms))
	s.vars[key] = v
	s.terms = append(s.terms, key)
	return v
}

// IsAggVar reports whether a variable denotes an aggregate term.
func (s *Space) IsAggVar(v constraints.Var) bool { return v >= s.base }

// TermOf returns the aggregate term behind a variable allocated by
// AggVar; ok is false for column variables. The shared COUNT variable
// reports column -1.
func (s *Space) TermOf(v constraints.Var) (AggTerm, bool) {
	idx := int(v - s.base)
	if idx < 0 || idx >= len(s.terms) {
		return AggTerm{}, false
	}
	return s.terms[idx], true
}

// HavingAtom converts one HAVING predicate into a constraint atom. It
// returns false for shapes outside the reasoning fragment (arithmetic,
// aggregates over expressions).
func (s *Space) HavingAtom(h ir.HPred) (constraints.Atom, bool) {
	l, ok := s.havingTerm(h.L)
	if !ok {
		return constraints.Atom{}, false
	}
	r, ok := s.havingTerm(h.R)
	if !ok {
		return constraints.Atom{}, false
	}
	return constraints.Atom{Op: h.Op, L: l, R: r}, true
}

func (s *Space) havingTerm(e ir.Expr) (constraints.Term, bool) {
	switch x := e.(type) {
	case *ir.ColRef:
		return constraints.V(s.ColVar(x.Col)), true
	case *ir.Const:
		return constraints.C(x.Val), true
	case *ir.Agg:
		if c, ok := x.Arg.(*ir.ColRef); ok {
			return constraints.V(s.AggVar(x.Func, c.Col)), true
		}
	}
	return constraints.Term{}, false
}

// HavingConj converts all HAVING predicates; ok is false when any
// conjunct falls outside the fragment.
func (s *Space) HavingConj(q *ir.Query) (constraints.Conj, bool) {
	var out constraints.Conj
	for _, h := range q.Having {
		a, ok := s.HavingAtom(h)
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}

// Axioms returns the atoms relating the aggregate-term variables
// allocated so far:
//
//   - MIN(A) <= AVG(A) <= MAX(A) for each argument column,
//   - COUNT >= 1 (groups are never empty),
//   - bounds transfer: a WHERE-entailed bound A <= c bounds MAX(A),
//     MIN(A) and AVG(A) from above (and symmetrically from below), and a
//     pin A = c pins MIN, MAX and AVG to c.
//
// whereCl may be nil, in which case only the structural axioms are
// produced.
func (s *Space) Axioms(whereCl *constraints.Closure) constraints.Conj {
	var out constraints.Conj
	byCol := map[ir.ColID]map[ir.AggFunc]constraints.Var{}
	for _, t := range s.terms {
		if t.Col < 0 { // shared COUNT variable
			out = append(out, constraints.Atom{
				Op: ir.OpGeq,
				L:  constraints.V(s.vars[t]),
				R:  constraints.C(value.Int(1)),
			})
			continue
		}
		m, ok := byCol[t.Col]
		if !ok {
			m = map[ir.AggFunc]constraints.Var{}
			byCol[t.Col] = m
		}
		m[t.Func] = s.vars[t]
	}
	for col, m := range byCol {
		if mn, ok1 := m[ir.AggMin]; ok1 {
			if av, ok2 := m[ir.AggAvg]; ok2 {
				out = append(out, constraints.Atom{Op: ir.OpLeq, L: constraints.V(mn), R: constraints.V(av)})
			}
			if mx, ok2 := m[ir.AggMax]; ok2 {
				out = append(out, constraints.Atom{Op: ir.OpLeq, L: constraints.V(mn), R: constraints.V(mx)})
			}
		}
		if av, ok1 := m[ir.AggAvg]; ok1 {
			if mx, ok2 := m[ir.AggMax]; ok2 {
				out = append(out, constraints.Atom{Op: ir.OpLeq, L: constraints.V(av), R: constraints.V(mx)})
			}
		}
		if whereCl == nil {
			continue
		}
		// Bound transfer from the argument column. MIN and MAX take both
		// bounds: every row's A lies within [lo, hi], hence so do the
		// extremes and the average.
		colVar := constraints.V(constraints.Var(col))
		for _, bound := range boundAtoms(whereCl, colVar) {
			for _, fn := range []ir.AggFunc{ir.AggMin, ir.AggMax, ir.AggAvg} {
				if v, ok := m[fn]; ok {
					out = append(out, constraints.Atom{Op: bound.Op, L: constraints.V(v), R: bound.R})
				}
			}
			// Signed-SUM axioms: with every value >= lo >= 0, the sum
			// dominates each element (SUM >= MAX >= lo); symmetrically
			// for hi <= 0.
			sum, hasSum := m[ir.AggSum]
			if !hasSum {
				continue
			}
			c := bound.R.C
			switch bound.Op {
			case ir.OpGeq, ir.OpGt, ir.OpEq:
				if c.IsNumeric() && c.AsFloat() >= 0 {
					out = append(out, constraints.Atom{Op: boundOpFloor(bound.Op), L: constraints.V(sum), R: bound.R})
					if mx, ok := m[ir.AggMax]; ok {
						out = append(out, constraints.Atom{Op: ir.OpGeq, L: constraints.V(sum), R: constraints.V(mx)})
					}
				}
			}
			switch bound.Op {
			case ir.OpLeq, ir.OpLt, ir.OpEq:
				if c.IsNumeric() && c.AsFloat() <= 0 {
					out = append(out, constraints.Atom{Op: boundOpCeil(bound.Op), L: constraints.V(sum), R: bound.R})
					if mn, ok := m[ir.AggMin]; ok {
						out = append(out, constraints.Atom{Op: ir.OpLeq, L: constraints.V(sum), R: constraints.V(mn)})
					}
				}
			}
		}
	}
	return out
}

// boundOpFloor converts a lower-bound operator on values into the
// corresponding lower bound on their SUM (equality weakens to >=).
func boundOpFloor(op ir.Op) ir.Op {
	if op == ir.OpEq {
		return ir.OpGeq
	}
	return op
}

// boundOpCeil is the symmetric upper-bound conversion.
func boundOpCeil(op ir.Op) ir.Op {
	if op == ir.OpEq {
		return ir.OpLeq
	}
	return op
}

// boundAtoms extracts the constant bounds (and pin) of a column variable
// from a WHERE closure, as atoms with the column on the left.
func boundAtoms(cl *constraints.Closure, colVar constraints.Term) []constraints.Atom {
	var out []constraints.Atom
	for _, a := range cl.Atoms() {
		var op ir.Op
		var other constraints.Term
		switch {
		case a.L == colVar && a.R.IsConst:
			op, other = a.Op, a.R
		case a.R == colVar && a.L.IsConst:
			op, other = a.Op.Flip(), a.L
		default:
			continue
		}
		switch op {
		case ir.OpEq, ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq:
			out = append(out, constraints.Atom{Op: op, L: colVar, R: other})
		}
	}
	return out
}
