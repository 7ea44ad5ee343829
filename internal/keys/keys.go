// Package keys implements Section 5 of the paper: deciding, from schema
// meta-information (keys, functional dependencies) and query structure,
// whether a query or view result is guaranteed to be a set rather than a
// multiset.
//
// The decision combines Propositions 5.1 and 5.2 with a functional-
// dependency closure over the query's core table: the retained SELECT
// columns form a key of the core table when their FD-closure — under the
// per-occurrence table FDs, the equalities of the WHERE clause, and
// constant pins — covers a candidate key of every table occurrence. The
// paper's foreign-key-join special case (the key of the leading table
// suffices) falls out of this closure automatically.
package keys

import (
	"slices"

	"aggview/internal/ir"
	"aggview/internal/schema"
)

// MetaSource supplies key and FD metadata for FROM-clause sources.
type MetaSource interface {
	// KeysOf returns candidate keys (as column-name sets) of a source;
	// nil means no key is known and the source may be a multiset.
	KeysOf(source string) [][]string
	// FDsOf returns additional functional dependencies of a source.
	FDsOf(source string) []schema.FD
}

// CatalogMeta adapts a schema catalog to MetaSource.
type CatalogMeta struct{ Catalog *schema.Catalog }

// KeysOf implements MetaSource.
func (c CatalogMeta) KeysOf(source string) [][]string {
	t, ok := c.Catalog.Table(source)
	if !ok {
		return nil
	}
	return t.Keys
}

// FDsOf implements MetaSource.
func (c CatalogMeta) FDsOf(source string) []schema.FD {
	t, ok := c.Catalog.Table(source)
	if !ok {
		return nil
	}
	return t.FDs
}

// ViewMeta layers view-derived metadata over a base MetaSource: a
// grouped view whose SELECT retains all grouping columns is keyed by
// them, and a conjunctive view that produces a set is keyed by its
// retained columns.
type ViewMeta struct {
	Base  MetaSource
	Views *ir.Registry
}

// KeysOf implements MetaSource.
func (v ViewMeta) KeysOf(source string) [][]string {
	if ks := v.Base.KeysOf(source); ks != nil {
		return ks
	}
	if v.Views == nil {
		return nil
	}
	def, ok := v.Views.Get(source)
	if !ok {
		return nil
	}
	return ResultKeys(def.Def, def.OutCols, v)
}

// FDsOf implements MetaSource.
func (v ViewMeta) FDsOf(source string) []schema.FD {
	return v.Base.FDsOf(source)
}

// IsSetResult reports whether the query's result is guaranteed to be a
// set on every database instance, given the metadata.
func IsSetResult(q *ir.Query, meta MetaSource) bool {
	if q.Distinct {
		return true
	}
	if q.IsAggregationQuery() {
		// One output row per group; rows are distinct iff the grouping
		// columns are all visible in the SELECT list.
		return groupsRetained(q)
	}
	// Conjunctive query: Prop 5.2 (core table is a set iff every FROM
	// source is) plus Prop 5.1 (SELECT retains a key of the core table).
	sel := map[ir.ColID]bool{}
	for _, c := range q.ColSel() {
		sel[c] = true
	}
	if len(sel) == 0 {
		// No retained columns: a set only when the core table has at
		// most one row, which we cannot guarantee.
		return false
	}
	closure := CoreClosure(q, q.ColSel(), meta)
	return coversAllKeys(q, closure, meta)
}

// groupsRetained reports whether every GROUP BY column appears in the
// SELECT list. An aggregation query without GROUP BY has a single output
// row, which is trivially a set.
func groupsRetained(q *ir.Query) bool {
	sel := map[ir.ColID]bool{}
	for _, c := range q.ColSel() {
		sel[c] = true
	}
	for _, g := range q.GroupBy {
		if !sel[g] {
			return false
		}
	}
	return true
}

// CoreClosure computes the FD-closure of a set of columns over the
// query's core table: per-occurrence table FDs (including keys), WHERE
// equalities (bidirectional FDs), and constant pins (columns equal to a
// constant are determined by anything).
func CoreClosure(q *ir.Query, start []ir.ColID, meta MetaSource) map[ir.ColID]bool {
	closure := map[ir.ColID]bool{}
	for _, c := range start {
		closure[c] = true
	}
	// Constant pins seed the closure.
	for _, p := range q.Where {
		if p.Op != ir.OpEq {
			continue
		}
		if !p.L.IsConst && p.R.IsConst {
			closure[p.L.Col] = true
		}
		if p.L.IsConst && !p.R.IsConst {
			closure[p.R.Col] = true
		}
	}

	// Build FD rules over ColIDs.
	type rule struct {
		from []ir.ColID
		to   []ir.ColID
	}
	var rules []rule
	for ti, t := range q.Tables {
		for _, k := range meta.KeysOf(t.Source) {
			if from, ok := ColsByAttr(q, ti, k); ok {
				rules = append(rules, rule{from: from, to: t.Cols})
			}
		}
		for _, fd := range meta.FDsOf(t.Source) {
			from, okFrom := ColsByAttr(q, ti, fd.From)
			to, okTo := ColsByAttr(q, ti, fd.To)
			if okFrom && okTo {
				rules = append(rules, rule{from: from, to: to})
			}
		}
	}
	for _, p := range q.Where {
		if p.Op == ir.OpEq && !p.L.IsConst && !p.R.IsConst {
			rules = append(rules, rule{from: []ir.ColID{p.L.Col}, to: []ir.ColID{p.R.Col}})
			rules = append(rules, rule{from: []ir.ColID{p.R.Col}, to: []ir.ColID{p.L.Col}})
		}
	}

	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			all := true
			for _, f := range r.from {
				if !closure[f] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			for _, t := range r.to {
				if !closure[t] {
					closure[t] = true
					changed = true
				}
			}
		}
	}
	return closure
}

// coversAllKeys reports whether the closure contains a candidate key of
// every table occurrence (so the closure determines a full core-table
// row). A source without known keys fails: its extension may already be
// a multiset (Prop 5.2).
func coversAllKeys(q *ir.Query, closure map[ir.ColID]bool, meta MetaSource) bool {
	for ti, t := range q.Tables {
		covered := func(k []string) bool {
			cols, ok := ColsByAttr(q, ti, k)
			return ok && !slices.ContainsFunc(cols, func(c ir.ColID) bool { return !closure[c] })
		}
		if !slices.ContainsFunc(meta.KeysOf(t.Source), covered) {
			return false
		}
	}
	return true
}

// ColsByAttr returns the columns of q's table occurrence ti named attrs,
// and whether it has each. Names compare exactly: ir.Build binds columns,
// and the catalog stores key and FD columns, by their declared names.
func ColsByAttr(q *ir.Query, ti int, attrs []string) ([]ir.ColID, bool) {
	out := make([]ir.ColID, len(attrs))
	for i, attr := range attrs {
		j := slices.IndexFunc(q.Tables[ti].Cols, func(id ir.ColID) bool { return q.Col(id).Attr == attr })
		if j < 0 {
			return nil, false
		}
		out[i] = q.Tables[ti].Cols[j]
	}
	return out, true
}

// ResultKeys derives candidate keys of a query's result, expressed as
// output column names. A grouped query retaining all its grouping
// columns is keyed by them; a conjunctive set-result query is keyed by
// its retained columns. nil means no key is known.
func ResultKeys(q *ir.Query, outCols []string, meta MetaSource) [][]string {
	if q.IsAggregationQuery() {
		if !groupsRetained(q) {
			return nil
		}
		group := map[ir.ColID]bool{}
		for _, g := range q.GroupBy {
			group[g] = true
		}
		var key []string
		for i, it := range q.Select {
			if c, ok := it.Expr.(*ir.ColRef); ok && group[c.Col] {
				key = append(key, outCols[i])
			}
		}
		if len(key) == 0 {
			// Global aggregate: single row, any output column is a key.
			return [][]string{append([]string{}, outCols...)}
		}
		return [][]string{key}
	}
	if !IsSetResult(q, meta) {
		return nil
	}
	var key []string
	for i, it := range q.Select {
		if _, ok := it.Expr.(*ir.ColRef); ok {
			key = append(key, outCols[i])
		}
	}
	if len(key) == 0 {
		return nil
	}
	return [][]string{key}
}
