// Package cost provides a simple cardinality-based cost model for
// ranking rewritings, in the spirit of the paper's Section 6 discussion
// of integrating view usability into a cost-based optimizer [CKPS95].
//
// The model is deliberately System-R-coarse: per-predicate default
// selectivities over base cardinalities. Its purpose is to prefer small
// materialized summary tables over huge base tables (the orders-of-
// magnitude effect of Example 1.1), not to be a precise optimizer.
package cost

import "aggview/internal/ir"

// Default selectivities.
const (
	selEqCol   = 0.05 // column = column
	selEqConst = 0.10 // column = constant
	selIneq    = 0.30 // ordering predicates
	selNeq     = 0.90 // disequalities
	groupRatio = 0.10 // output groups per joined row
)

// Estimator estimates query costs. Rows reports the stored row count of
// a source (a table or a materialized view) and whether the store holds
// it — engine.DB.NumRows; a source it does not hold is estimated
// through its definition in Views, else at a neutral default.
type Estimator struct {
	Rows  func(name string) (int, bool)
	Views *ir.Registry
}

// sourceCard estimates the cardinality of one FROM source.
func (e *Estimator) sourceCard(name string, depth int) float64 {
	if n, ok := e.Rows(name); ok {
		return float64(n)
	}
	if e.Views != nil && depth < 8 {
		if v, ok := e.Views.Get(name); ok {
			return e.outputRows(v.Def, depth+1)
		}
	}
	return 1000 // unknown source: a neutral default
}

// OutputRows estimates the number of result rows of a query.
func (e *Estimator) OutputRows(q *ir.Query) float64 { return e.outputRows(q, 0) }

func (e *Estimator) outputRows(q *ir.Query, depth int) float64 {
	rows := e.joinRows(q, depth)
	if q.IsAggregationQuery() {
		if len(q.GroupBy) == 0 {
			return 1
		}
		rows *= groupRatio
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// joinRows estimates the joined, filtered row count of FROM x WHERE.
func (e *Estimator) joinRows(q *ir.Query, depth int) float64 {
	rows := 1.0
	for _, t := range q.Tables {
		rows *= e.sourceCard(t.Source, depth)
	}
	for _, p := range q.Where {
		switch {
		case p.Op == ir.OpEq && !p.L.IsConst && !p.R.IsConst:
			rows *= selEqCol
		case p.Op == ir.OpEq:
			rows *= selEqConst
		case p.Op == ir.OpNeq:
			rows *= selNeq
		default:
			rows *= selIneq
		}
	}
	return rows
}

// Estimate returns the modeled cost of evaluating q: the scan volume of
// its sources plus the joined row volume that grouping and projection
// must process.
func (e *Estimator) Estimate(q *ir.Query) float64 {
	scan := 0.0
	for _, t := range q.Tables {
		scan += e.sourceCard(t.Source, 0)
	}
	return scan + e.joinRows(q, 0)
}
