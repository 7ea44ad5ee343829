// Package core implements the paper's contribution: rewriting SQL
// queries with grouping and aggregation to use materialized views, under
// multiset semantics.
//
// The entry point is Rewriter. For a query Q and each registered view V
// it enumerates the column mappings of Definition 2.1, checks the
// usability conditions (C1-C4 for conjunctive views, Section 3; C1 and
// C2'-C4' for aggregation views, Section 4; the HAVING extensions of
// Sections 3.3 and 4.3; the set-semantics relaxation of Section 5), and
// applies the rewriting steps (S1-S4 and S1'-S5').
//
// Where the paper's published S4'(1b)/S5' construction is unsound (see
// DESIGN.md), the default strategy uses aggregates over scaled arguments
// — SUM(N*A) — which the paper's "+ and x" extension sanctions; the
// literal Va construction is available with Options.NoArithmetic and is
// emitted only under a guard that makes it provably correct.
package core

import (
	"aggview/internal/ir"
)

// mapping is a column mapping sigma from a view's query to the target
// query (Definition 2.1): tableMap assigns each view table occurrence a
// query table occurrence with the same source, and colMap follows
// positionally.
type mapping struct {
	tableMap []int      // view table index -> query table index
	colMap   []ir.ColID // view ColID -> query ColID
	oneToOne bool
}

// sigma maps a view column to its image in the query.
func (m *mapping) sigma(c ir.ColID) ir.ColID { return m.colMap[c] }

// enumerateMappings lists the column mappings from v to q. With
// manyToOne false only 1-1 mappings (distinct view tables to distinct
// query tables) are produced — the multiset-semantics requirement of
// condition C1. With manyToOne true, repeated targets are allowed
// (Section 5.2, usable when both results are known to be sets).
func enumerateMappings(v, q *ir.Query, manyToOne bool) []mapping {
	n := len(v.Tables)
	if n == 0 {
		return nil
	}
	// Candidate targets per view table.
	cands := make([][]int, n)
	for i, vt := range v.Tables {
		for j, qt := range q.Tables {
			if vt.Source == qt.Source {
				cands[i] = append(cands[i], j)
			}
		}
		if len(cands[i]) == 0 {
			return nil
		}
	}
	var out []mapping
	assign := make([]int, n)
	used := map[int]bool{}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			m := mapping{tableMap: append([]int{}, assign...), colMap: make([]ir.ColID, v.NumCols())}
			m.oneToOne = true
			seen := map[int]bool{}
			for _, qi := range m.tableMap {
				if seen[qi] {
					m.oneToOne = false
				}
				seen[qi] = true
			}
			for vi, qi := range m.tableMap {
				for pos, vc := range v.Tables[vi].Cols {
					m.colMap[vc] = q.Tables[qi].Cols[pos]
				}
			}
			out = append(out, m)
			return
		}
		for _, qi := range cands[i] {
			if !manyToOne && used[qi] {
				continue
			}
			assign[i] = qi
			used[qi] = true
			rec(i + 1)
			used[qi] = false
		}
	}
	rec(0)
	return out
}
