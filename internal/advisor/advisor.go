// Package advisor recommends which views to materialize for a query
// workload — the "strategies for determining which views to cache" the
// paper's conclusion names as future work.
//
// Candidate views are derived from the workload's aggregation queries:
// for each query, a view over the same tables that keeps the join
// predicates, exposes the query's grouping columns plus the columns of
// any dropped selection predicates (so condition C3' can re-impose them
// as residuals), and carries the query's aggregates plus a COUNT column
// (so condition C4' can recover multiplicities and coarser queries can
// coalesce). Pairs of candidates over the same tables merge into
// coarser-grained shared candidates.
//
// Selection is greedy benefit-per-row under a space budget: a
// candidate's benefit is the modeled cost saved across the workload
// when the rewriter can actually use it (each benefit is computed by
// running the real rewriter, not a heuristic match).
package advisor

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"aggview/internal/core"
	"aggview/internal/cost"
	"aggview/internal/ir"
	"aggview/internal/keys"
)

// WeightedQuery is one workload entry.
type WeightedQuery struct {
	Query  *ir.Query
	Weight float64 // relative frequency; 0 means 1
}

// Workload is a set of queries with frequencies.
type Workload []WeightedQuery

// Recommendation is one selected view.
type Recommendation struct {
	View    *ir.ViewDef
	EstRows float64
	Benefit float64 // modeled cost saved across the workload
	Helps   []int   // workload indices this view improves
}

// Advisor recommends materializations.
type Advisor struct {
	Meta keys.MetaSource
	// Rows reports a source's stored row count for the cost model
	// (cost.Estimator.Rows).
	Rows func(name string) (int, bool)
	Opts core.Options
}

// RecommendContext returns a set of views whose estimated total size
// fits budgetRows, chosen greedily by benefit per row. A budget of 0
// means unlimited. Every rewrite search the benefit model runs honors
// ctx's cancellation, deadline and budget. On cancellation it returns
// ctx's error and the (possibly partial) picks made so far.
func (a *Advisor) RecommendContext(ctx context.Context, w Workload, budgetRows float64) ([]Recommendation, error) {
	cands := a.candidates(w)
	if len(cands) == 0 {
		return nil, nil
	}
	est := &cost.Estimator{Rows: a.Rows}

	baseCost := make([]float64, len(w))
	for i, wq := range w {
		baseCost[i] = weight(wq) * est.Estimate(wq.Query)
	}

	var picked []Recommendation
	usedRows := 0.0
	remaining := append([]*ir.ViewDef{}, cands...)
	// current best cost per query given the picked views.
	current := append([]float64{}, baseCost...)

	for len(remaining) > 0 {
		bestIdx := -1
		var bestRec Recommendation
		bestScore := 0.0
		for ci, cand := range remaining {
			rec, ok, err := a.evaluate(ctx, cand, w, current, picked)
			if err != nil {
				return picked, err
			}
			if !ok || rec.Benefit <= 0 {
				continue
			}
			if budgetRows > 0 && usedRows+rec.EstRows > budgetRows {
				continue
			}
			score := rec.Benefit / (1 + rec.EstRows)
			if score > bestScore {
				bestScore, bestIdx, bestRec = score, ci, rec
			}
		}
		if bestIdx < 0 {
			break
		}
		picked = append(picked, bestRec)
		usedRows += bestRec.EstRows
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		// Update the per-query costs the next round competes against.
		next, err := a.workloadCosts(ctx, w, picked, current)
		if err != nil {
			return picked, err
		}
		current = next
	}
	return picked, nil
}

func weight(wq WeightedQuery) float64 {
	if wq.Weight <= 0 {
		return 1
	}
	return wq.Weight
}

// evaluate computes a candidate's marginal benefit over the current
// picks. A non-nil error means ctx ended the rewrite search and the
// whole recommendation round should stop.
func (a *Advisor) evaluate(ctx context.Context, cand *ir.ViewDef, w Workload, current []float64, picked []Recommendation) (Recommendation, bool, error) {
	reg := ir.NewRegistry()
	for _, p := range picked {
		if err := reg.Add(p.View); err != nil {
			return Recommendation{}, false, nil
		}
	}
	if err := reg.Add(cand); err != nil {
		return Recommendation{}, false, nil
	}
	est := &cost.Estimator{Rows: a.Rows, Views: reg}
	rw := &core.Rewriter{Views: reg, Meta: a.Meta, Opts: a.Opts}

	rec := Recommendation{View: cand, EstRows: est.OutputRows(cand.Def)}
	for i, wq := range w {
		best := current[i]
		rws, err := rw.RewritingsContext(ctx, wq.Query)
		if err != nil {
			return Recommendation{}, false, err
		}
		for _, r := range rws {
			if !slices.Contains(r.Used, cand.Name) {
				continue
			}
			if c := weight(wq) * est.Estimate(r.Query); c < best {
				best = c
			}
		}
		if best < current[i] {
			rec.Benefit += current[i] - best
			rec.Helps = append(rec.Helps, i)
		}
	}
	return rec, true, nil
}

// workloadCosts recomputes each query's best cost given the picked
// views.
func (a *Advisor) workloadCosts(ctx context.Context, w Workload, picked []Recommendation, prev []float64) ([]float64, error) {
	reg := ir.NewRegistry()
	for _, p := range picked {
		if err := reg.Add(p.View); err != nil {
			return prev, nil
		}
	}
	est := &cost.Estimator{Rows: a.Rows, Views: reg}
	rw := &core.Rewriter{Views: reg, Meta: a.Meta, Opts: a.Opts}
	out := append([]float64{}, prev...)
	for i, wq := range w {
		rws, err := rw.RewritingsContext(ctx, wq.Query)
		if err != nil {
			return prev, err
		}
		for _, r := range rws {
			if c := weight(wq) * est.Estimate(r.Query); c < out[i] {
				out[i] = c
			}
		}
	}
	return out, nil
}

// candidates derives candidate view definitions from the workload.
func (a *Advisor) candidates(w Workload) []*ir.ViewDef {
	var out []*ir.ViewDef
	seen := map[string]bool{}
	add := func(def *ir.Query) {
		if def == nil {
			return
		}
		v, err := ir.NewViewDef(fmt.Sprintf("adv_%d", len(out)+1), def)
		if err != nil {
			return
		}
		key := canonicalViewKey(v)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, v)
	}

	var singles []*ir.Query
	for _, wq := range w {
		def := candidateFor(wq.Query)
		if def != nil {
			singles = append(singles, def)
			add(def)
		}
	}
	// Merged candidates for query pairs over the same table multiset.
	for i := 0; i < len(singles); i++ {
		for j := i + 1; j < len(singles); j++ {
			add(mergeCandidates(singles[i], singles[j]))
		}
	}
	return out
}

// candidateFor builds the canonical candidate for one aggregation
// query: join predicates kept, selection columns exposed and grouped,
// aggregates plus COUNT carried.
func candidateFor(q *ir.Query) *ir.Query {
	if !q.IsAggregationQuery() || len(q.Tables) == 0 {
		return nil
	}
	def := &ir.Query{}
	oldToNew := make([]ir.ColID, q.NumCols())
	for _, t := range q.Tables {
		attrs := make([]string, len(t.Cols))
		for pos, id := range t.Cols {
			attrs[pos] = q.Col(id).Attr
		}
		nt := def.AddTable(t.Source, "", attrs)
		for pos, id := range t.Cols {
			oldToNew[id] = def.Tables[nt].Cols[pos]
		}
	}
	remap := func(c ir.ColID) ir.ColID { return oldToNew[c] }

	groupSet := map[ir.ColID]bool{}
	for _, g := range q.GroupBy {
		groupSet[remap(g)] = true
	}
	for _, p := range q.Where {
		if p.Op == ir.OpEq && !p.L.IsConst && !p.R.IsConst {
			// Join predicates are enforced inside the view.
			def.Where = append(def.Where, ir.MapPredCols(p, remap))
			continue
		}
		// Selection predicates are dropped; their columns must be exposed
		// and grouped so they survive as residuals.
		if !p.L.IsConst {
			groupSet[remap(p.L.Col)] = true
		}
		if !p.R.IsConst {
			groupSet[remap(p.R.Col)] = true
		}
	}
	groups := make([]ir.ColID, 0, len(groupSet))
	for c := range groupSet {
		groups = append(groups, c)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	def.GroupBy = groups
	for _, g := range groups {
		def.Select = append(def.Select, ir.SelectItem{Expr: &ir.ColRef{Col: g}})
	}

	aggSeen := map[string]bool{}
	addAgg := func(fn ir.AggFunc, col ir.ColID) {
		key := fmt.Sprintf("%d:%d", fn, col)
		if aggSeen[key] {
			return
		}
		aggSeen[key] = true
		def.Select = append(def.Select, ir.SelectItem{Expr: &ir.Agg{Func: fn, Arg: &ir.ColRef{Col: col}}})
	}
	collect := func(e ir.Expr) {
		var walk func(e ir.Expr)
		walk = func(e ir.Expr) {
			switch x := e.(type) {
			case *ir.Agg:
				if c, ok := x.Arg.(*ir.ColRef); ok {
					fn := x.Func
					if fn == ir.AggAvg {
						// AVG is reconstructed from SUM and COUNT.
						addAgg(ir.AggSum, remap(c.Col))
						return
					}
					if fn == ir.AggCount {
						return // the shared COUNT below covers it
					}
					addAgg(fn, remap(c.Col))
				}
			case *ir.Arith:
				walk(x.L)
				walk(x.R)
			}
		}
		walk(e)
	}
	for _, it := range q.Select {
		collect(it.Expr)
	}
	for _, h := range q.Having {
		collect(h.L)
		collect(h.R)
	}
	// Always carry multiplicities.
	def.Select = append(def.Select, ir.SelectItem{Expr: &ir.Agg{Func: ir.AggCount, Arg: &ir.ColRef{Col: def.Tables[0].Cols[0]}}})
	return def
}

// mergeCandidates unions two candidates over the same table multiset
// into a coarser shared view; nil when the shapes differ.
func mergeCandidates(x, y *ir.Query) *ir.Query {
	if !slices.EqualFunc(x.Tables, y.Tables, func(a, b ir.TableInstance) bool { return a.Source == b.Source }) {
		return nil
	}
	// Join predicates must agree (same canonical rendering).
	if renderPreds(x) != renderPreds(y) {
		return nil
	}
	merged := x.Clone()
	// Union group columns (positionally: same tables means same ColIDs).
	gset := map[ir.ColID]bool{}
	for _, g := range x.GroupBy {
		gset[g] = true
	}
	for _, g := range y.GroupBy {
		gset[g] = true
	}
	groups := make([]ir.ColID, 0, len(gset))
	for c := range gset {
		groups = append(groups, c)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	merged.GroupBy = groups
	// Rebuild select: groups, union of aggregates, one COUNT.
	merged.Select = nil
	for _, g := range groups {
		merged.Select = append(merged.Select, ir.SelectItem{Expr: &ir.ColRef{Col: g}})
	}
	aggSeen := map[string]bool{}
	var countCol ir.ColID = -1
	for _, src := range []*ir.Query{x, y} {
		for _, it := range src.Select {
			a, ok := it.Expr.(*ir.Agg)
			if !ok {
				continue
			}
			c := a.Arg.(*ir.ColRef)
			if a.Func == ir.AggCount {
				countCol = c.Col
				continue
			}
			key := fmt.Sprintf("%d:%d", a.Func, c.Col)
			if aggSeen[key] {
				continue
			}
			aggSeen[key] = true
			merged.Select = append(merged.Select, ir.SelectItem{Expr: &ir.Agg{Func: a.Func, Arg: &ir.ColRef{Col: c.Col}}})
		}
	}
	if countCol < 0 {
		countCol = merged.Tables[0].Cols[0]
	}
	merged.Select = append(merged.Select, ir.SelectItem{Expr: &ir.Agg{Func: ir.AggCount, Arg: &ir.ColRef{Col: countCol}}})
	return merged
}

func renderPreds(q *ir.Query) string {
	parts := make([]string, 0, len(q.Where))
	for _, p := range q.Where {
		parts = append(parts, q.PredSQL(p))
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// canonicalViewKey fingerprints a candidate for deduplication.
func canonicalViewKey(v *ir.ViewDef) string {
	return v.Def.SQL()
}
