// Package unnest merges view references in a query's FROM clause into a
// single block, implementing the transformation the paper's conclusion
// leans on: "multi-block SQL queries (e.g., queries with view tables in
// the FROM clause) can often be transformed to single-block queries
// [YL94, CS94, GHQ95]. In such cases, our techniques can also be
// applied."
//
// A reference to a conjunctive view (no grouping, aggregation, HAVING or
// DISTINCT) is always mergeable: its tables and conditions splice into
// the outer block and its output columns resolve to the inner columns.
// This holds under multiset semantics because the view contributes
// exactly the multiset of its defining join. References to aggregation
// or DISTINCT views are left in place — under bag semantics they are
// genuine subquery blocks.
//
// Flattening enables physical data independence (the paper's [TSI94]
// motivation): applications query logical views; Flatten reduces those
// queries to base tables; the rewriter then routes them to whatever
// materializations exist.
package unnest

import "aggview/internal/ir"

// Flatten merges every mergeable view reference of q, recursively. The
// keep predicate (optional) pins view names that must NOT be flattened —
// typically views that are materialized and therefore cheaper as data
// sources. It returns the flattened query and whether anything changed.
func Flatten(q *ir.Query, views *ir.Registry, keep func(string) bool) (*ir.Query, bool) {
	if views == nil {
		return q, false
	}
	changed := false
	for {
		next, ok := flattenOnce(q, views, keep)
		if !ok {
			return q, changed
		}
		q = next
		changed = true
	}
}

// flattenOnce merges the first mergeable view occurrence; it reports
// false when none exists.
func flattenOnce(q *ir.Query, views *ir.Registry, keep func(string) bool) (*ir.Query, bool) {
	target := -1
	var def *ir.Query
	for ti, t := range q.Tables {
		v, isView := views.Get(t.Source)
		if !isView {
			continue
		}
		if keep != nil && keep(v.Name) {
			continue
		}
		if !mergeable(v.Def) {
			continue
		}
		if !allBareOutputs(v.Def) {
			continue
		}
		target, def = ti, v.Def
		break
	}
	if target < 0 {
		return nil, false
	}

	n := &ir.Query{Distinct: q.Distinct}
	oldToNew := make([]ir.ColID, q.NumCols())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for ti, t := range q.Tables {
		if ti == target {
			// Splice the view definition's tables.
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
			for pos, it := range def.Select {
				cr := it.Expr.(*ir.ColRef) // guaranteed by allBareOutputs
				oldToNew[t.Cols[pos]] = defToNew[cr.Col]
			}
			continue
		}
		attrs := make([]string, len(t.Cols))
		for pos, id := range t.Cols {
			attrs[pos] = q.Col(id).Attr
		}
		nt := n.AddTable(t.Source, t.Alias, attrs)
		for pos, id := range t.Cols {
			oldToNew[id] = n.Tables[nt].Cols[pos]
		}
	}

	remap := func(c ir.ColID) ir.ColID { return oldToNew[c] }
	for _, p := range q.Where {
		n.Where = append(n.Where, ir.MapPredCols(p, remap))
	}
	for _, it := range q.Select {
		n.Select = append(n.Select, ir.SelectItem{Expr: ir.MapExprCols(it.Expr, remap), Alias: it.Alias})
	}
	for _, g := range q.GroupBy {
		n.GroupBy = append(n.GroupBy, remap(g))
	}
	for _, h := range q.Having {
		n.Having = append(n.Having, ir.HPred{Op: h.Op, L: ir.MapExprCols(h.L, remap), R: ir.MapExprCols(h.R, remap)})
	}
	return n, true
}

// mergeable reports whether a view definition can splice into an outer
// block under multiset semantics.
func mergeable(def *ir.Query) bool {
	return !def.Distinct && !def.IsAggregationQuery()
}

// allBareOutputs reports whether every view output is a plain column
// (constants or expressions would need projection rewriting; the SQL
// subset here never produces them in conjunctive views, but a defensive
// check keeps Flatten total).
func allBareOutputs(def *ir.Query) bool {
	for _, it := range def.Select {
		if _, ok := it.Expr.(*ir.ColRef); !ok {
			return false
		}
	}
	return true
}
