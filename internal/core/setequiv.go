package core

import (
	"aggview/internal/aggreason"
	"aggview/internal/constraints"
	"aggview/internal/ir"
	"aggview/internal/keys"
	"aggview/internal/schema"
)

// This file verifies candidate set-semantics rewritings (Section 5.2).
// Unlike the multiset case, where conditions C1-C4 are sufficient by
// construction, a many-to-1 mapping is justified by reasoning about keys
// — in Example 5.1 the rewriting is correct because A is a key of R1,
// not merely because both results are sets. Following [LMSS95], a
// candidate rewriting Q' is accepted only if, after unfolding its view
// occurrences into their definitions, Q and Q' are equivalent as
// set-semantics conjunctive queries; equivalence is decided by chasing
// both queries with the key and functional dependencies and searching
// containment homomorphisms in both directions.

// unfold replaces view occurrences in a conjunctive query by their
// definitions (recursively), yielding a query over base tables only.
// Only bare-column view outputs are supported — which is all the
// conjunctive set path produces. ok is false outside that fragment.
func unfold(q *ir.Query, views *ir.Registry) (*ir.Query, bool) {
	needs := false
	for _, t := range q.Tables {
		if _, isView := views.Get(t.Source); isView {
			needs = true
		}
	}
	if !needs {
		return q, true
	}
	n := &ir.Query{Distinct: q.Distinct}
	oldToNew := make([]ir.ColID, q.NumCols())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for _, t := range q.Tables {
		v, isView := views.Get(t.Source)
		if !isView {
			attrs := make([]string, len(t.Cols))
			for pos, id := range t.Cols {
				attrs[pos] = q.Col(id).Attr
			}
			nt := n.AddTable(t.Source, "", attrs)
			for pos, id := range t.Cols {
				oldToNew[id] = n.Tables[nt].Cols[pos]
			}
			continue
		}
		def, ok := unfold(v.Def, views)
		if !ok || def.IsAggregationQuery() {
			return nil, false
		}
		// Splice the definition's tables in with fresh columns.
		defToNew := make([]ir.ColID, def.NumCols())
		for _, dt := range def.Tables {
			attrs := make([]string, len(dt.Cols))
			for pos, id := range dt.Cols {
				attrs[pos] = def.Col(id).Attr
			}
			nt := n.AddTable(dt.Source, "", attrs)
			for pos, id := range dt.Cols {
				defToNew[id] = n.Tables[nt].Cols[pos]
			}
		}
		for _, p := range def.Where {
			n.Where = append(n.Where, ir.MapPredCols(p, func(c ir.ColID) ir.ColID { return defToNew[c] }))
		}
		// Bind each view output position to its inner column.
		for pos, it := range def.Select {
			cr, ok := it.Expr.(*ir.ColRef)
			if !ok {
				return nil, false
			}
			oldToNew[t.Cols[pos]] = defToNew[cr.Col]
		}
	}
	for _, p := range q.Where {
		bad := false
		np := ir.MapPredCols(p, func(c ir.ColID) ir.ColID {
			if oldToNew[c] < 0 {
				bad = true
				return 0
			}
			return oldToNew[c]
		})
		if bad {
			return nil, false
		}
		n.Where = append(n.Where, np)
	}
	for _, it := range q.Select {
		cr, ok := it.Expr.(*ir.ColRef)
		if !ok {
			if c, isConst := it.Expr.(*ir.Const); isConst {
				n.Select = append(n.Select, ir.SelectItem{Expr: &ir.Const{Val: c.Val}, Alias: it.Alias})
				continue
			}
			return nil, false
		}
		if oldToNew[cr.Col] < 0 {
			return nil, false
		}
		n.Select = append(n.Select, ir.SelectItem{Expr: &ir.ColRef{Col: oldToNew[cr.Col]}, Alias: it.Alias})
	}
	return n, true
}

// chase saturates a conjunctive query's WHERE clause with the equalities
// forced by keys and functional dependencies: whenever two occurrences
// of a table agree (provably) on an FD's source columns, their target
// columns are equated. The result is a query with the same set-semantics
// answers whose closure makes containment checks complete under the
// dependencies.
func chase(q *ir.Query, meta keys.MetaSource) *ir.Query {
	out := q.Clone()
	type fdRule struct {
		t1, t2 int
		from   [][2]ir.ColID // paired source columns
		to     [][2]ir.ColID // paired target columns
	}
	var rules []fdRule
	addRule := func(t1, t2 int, from, to []string) {
		f1, ok1 := keys.ColsByAttr(out, t1, from)
		f2, ok2 := keys.ColsByAttr(out, t2, from)
		o1, ok3 := keys.ColsByAttr(out, t1, to)
		o2, ok4 := keys.ColsByAttr(out, t2, to)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return
		}
		r := fdRule{t1: t1, t2: t2}
		for i := range f1 {
			r.from = append(r.from, [2]ir.ColID{f1[i], f2[i]})
		}
		for i := range o1 {
			r.to = append(r.to, [2]ir.ColID{o1[i], o2[i]})
		}
		rules = append(rules, r)
	}
	for t1 := range out.Tables {
		for t2 := range out.Tables {
			if t1 == t2 || out.Tables[t1].Source != out.Tables[t2].Source {
				continue
			}
			src := out.Tables[t1].Source
			var allCols []string
			for _, id := range out.Tables[t1].Cols {
				allCols = append(allCols, out.Col(id).Attr)
			}
			var fds []schema.FD
			if meta != nil {
				for _, k := range meta.KeysOf(src) {
					fds = append(fds, schema.FD{From: k, To: allCols})
				}
				fds = append(fds, meta.FDsOf(src)...)
			}
			for _, fd := range fds {
				addRule(t1, t2, fd.From, fd.To)
			}
		}
	}
	for iter := 0; iter < len(out.Tables)*len(out.Tables)+4; iter++ {
		cl := constraints.Close(aggreason.WhereConj(out))
		changed := false
		for _, r := range rules {
			fire := true
			for _, pair := range r.from {
				if !cl.Implies(constraints.Atom{Op: ir.OpEq,
					L: constraints.V(constraints.Var(pair[0])),
					R: constraints.V(constraints.Var(pair[1]))}) {
					fire = false
					break
				}
			}
			if !fire {
				continue
			}
			for _, pair := range r.to {
				if !cl.Implies(constraints.Atom{Op: ir.OpEq,
					L: constraints.V(constraints.Var(pair[0])),
					R: constraints.V(constraints.Var(pair[1]))}) {
					out.Where = append(out.Where, ir.Pred{Op: ir.OpEq, L: ir.ColTerm(pair[0]), R: ir.ColTerm(pair[1])})
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return out
}

// containedIn reports qa subseteq qb under set semantics: a containment
// homomorphism from qb's tables into qa's (same sources, many-to-1
// allowed) such that qa's closure implies the image of qb's conditions
// and the select lists agree columnwise. qa should already be chased.
func containedIn(qa, qb *ir.Query) bool {
	if len(qa.Select) != len(qb.Select) {
		return false
	}
	cla := constraints.Close(aggreason.WhereConj(qa))
	// Candidate targets per qb table.
	n := len(qb.Tables)
	cands := make([][]int, n)
	for i, bt := range qb.Tables {
		for j, at := range qa.Tables {
			if bt.Source == at.Source {
				cands[i] = append(cands[i], j)
			}
		}
		if len(cands[i]) == 0 {
			return false
		}
	}
	assign := make([]int, n)
	var ok bool
	var rec func(i int)
	rec = func(i int) {
		if ok {
			return
		}
		if i == n {
			if homWorks(qa, qb, assign, cla) {
				ok = true
			}
			return
		}
		for _, j := range cands[i] {
			assign[i] = j
			rec(i + 1)
		}
	}
	rec(0)
	return ok
}

func homWorks(qa, qb *ir.Query, assign []int, cla *constraints.Closure) bool {
	sigma := make([]ir.ColID, qb.NumCols())
	for bi, ai := range assign {
		for pos, id := range qb.Tables[bi].Cols {
			sigma[id] = qa.Tables[ai].Cols[pos]
		}
	}
	mapTerm := func(t ir.Term) constraints.Term {
		if t.IsConst {
			return constraints.C(t.Val)
		}
		return constraints.V(constraints.Var(sigma[t.Col]))
	}
	for _, p := range qb.Where {
		if !cla.Implies(constraints.Atom{Op: p.Op, L: mapTerm(p.L), R: mapTerm(p.R)}) {
			return false
		}
	}
	for i := range qb.Select {
		ea, eb := qa.Select[i].Expr, qb.Select[i].Expr
		ca, aIsCol := ea.(*ir.ColRef)
		cb, bIsCol := eb.(*ir.ColRef)
		switch {
		case aIsCol && bIsCol:
			if !cla.Implies(constraints.Atom{Op: ir.OpEq,
				L: constraints.V(constraints.Var(ca.Col)),
				R: constraints.V(constraints.Var(sigma[cb.Col]))}) {
				return false
			}
		default:
			ka, okA := ea.(*ir.Const)
			kb, okB := eb.(*ir.Const)
			if okA && okB {
				if ka.Val.Key() != kb.Val.Key() {
					return false
				}
				continue
			}
			// Mixed column/constant outputs: require the column pinned to
			// the constant.
			if aIsCol && okB {
				if !cla.Implies(constraints.Atom{Op: ir.OpEq,
					L: constraints.V(constraints.Var(ca.Col)), R: constraints.C(kb.Val)}) {
					return false
				}
				continue
			}
			if okA && bIsCol {
				if !cla.Implies(constraints.Atom{Op: ir.OpEq,
					L: constraints.V(constraints.Var(sigma[cb.Col])), R: constraints.C(ka.Val)}) {
					return false
				}
				continue
			}
			return false
		}
	}
	return true
}

// setEquivalent verifies that two conjunctive queries are equivalent
// under set semantics given the key/FD metadata: mutual containment
// after chasing.
func setEquivalent(q1, q2 *ir.Query, views *ir.Registry, meta keys.MetaSource) bool {
	u1, ok1 := unfold(q1, views)
	u2, ok2 := unfold(q2, views)
	if !ok1 || !ok2 {
		return false
	}
	c1 := chase(u1, meta)
	c2 := chase(u2, meta)
	return containedIn(c1, u2) && containedIn(c2, u1)
}
