package oracle

import "context"

// Shrinking: greedily remove structure — views, clauses, rows, tables —
// keeping each reduction only when the case still fails. The strategy
// is a fixpoint of cheap passes rather than delta debugging: cases are
// small (tens of rows, a handful of clauses), so O(parts · checks)
// converges in well under the default budget.

// shrinkBudget is the default bound on the number of CheckContext calls
// one ShrinkContext may spend (Options.ShrinkBudget overrides it).
const shrinkBudget = 400

// ShrinkContext reduces a failing case to a smaller one that still fails
// under the same options. The input is not mutated; the result is the
// smallest failing variant found within the budget (at worst the
// original). A case that did not fail is returned unchanged.
//
// The budget is monotone: because the pass order and each pass's
// candidate order are deterministic, a run with budget b2 > b1 replays
// b1's accept/reject sequence exactly and then keeps reducing, and
// every accepted candidate only removes structure — so a larger budget
// never yields a larger repro.
//
// Every candidate check runs under ctx, and once ctx ends no further
// reductions are attempted — the smallest failing variant found so far
// is returned.
func ShrinkContext(ctx context.Context, c *Case, opt Options) *Case {
	budget := opt.ShrinkBudget
	if budget <= 0 {
		budget = shrinkBudget
	}
	fails := func(cand *Case) bool {
		if budget <= 0 || ctx.Err() != nil {
			return false
		}
		budget--
		out, err := CheckContext(ctx, cand, opt)
		// A candidate the system rejects outright is not a smaller
		// repro of the same failure; discard it.
		return err == nil && !out.OK()
	}
	cur := c.Clone()
	if !fails(cur) {
		return c
	}
	for changed := true; changed && budget > 0; {
		changed = false
		if next, ok := shrinkViews(cur, fails); ok {
			cur, changed = next, true
		}
		if next, ok := shrinkQueryClauses(cur, fails); ok {
			cur, changed = next, true
		}
		if next, ok := shrinkViewClauses(cur, fails); ok {
			cur, changed = next, true
		}
		if next, ok := shrinkRows(cur, fails); ok {
			cur, changed = next, true
		}
		if next, ok := shrinkTables(cur, fails); ok {
			cur, changed = next, true
		}
	}
	return cur
}

// shrinkViews tries dropping whole views.
func shrinkViews(c *Case, fails func(*Case) bool) (*Case, bool) {
	shrunk := false
	for i := 0; i < len(c.Views); {
		cand := c.Clone()
		cand.Views = append(cand.Views[:i], cand.Views[i+1:]...)
		if fails(cand) {
			c, shrunk = cand, true
		} else {
			i++
		}
	}
	return c, shrunk
}

// shrinkQueryClauses tries dropping WHERE/HAVING conjuncts, DISTINCT,
// select items, and GROUP BY columns (together with the bare select
// item referencing them) from the query under test.
func shrinkQueryClauses(c *Case, fails func(*Case) bool) (*Case, bool) {
	shrunk := false
	c, ok := shrinkSpec(c, fails, func(cand *Case) *QuerySpec { return &cand.Query })
	shrunk = shrunk || ok
	return c, shrunk
}

// shrinkViewClauses applies the same clause reduction to each view
// definition.
func shrinkViewClauses(c *Case, fails func(*Case) bool) (*Case, bool) {
	shrunk := false
	for vi := range c.Views {
		vi := vi
		next, ok := shrinkSpec(c, fails, func(cand *Case) *QuerySpec { return &cand.Views[vi].Def })
		if ok {
			c, shrunk = next, true
		}
	}
	return c, shrunk
}

// shrinkSpec reduces one QuerySpec reachable through sel inside a case
// clone.
func shrinkSpec(c *Case, fails func(*Case) bool, sel func(*Case) *QuerySpec) (*Case, bool) {
	shrunk := false
	// Drop WHERE conjuncts one at a time.
	for i := 0; i < len(sel(c).Where); {
		cand := c.Clone()
		q := sel(cand)
		q.Where = append(q.Where[:i], q.Where[i+1:]...)
		if fails(cand) {
			c, shrunk = cand, true
		} else {
			i++
		}
	}
	if sel(c).Distinct {
		cand := c.Clone()
		sel(cand).Distinct = false
		if fails(cand) {
			c, shrunk = cand, true
		}
	}
	// Drop HAVING conjuncts.
	for i := 0; i < len(sel(c).Having); {
		cand := c.Clone()
		q := sel(cand)
		q.Having = append(q.Having[:i], q.Having[i+1:]...)
		if fails(cand) {
			c, shrunk = cand, true
		} else {
			i++
		}
	}
	// Drop select items (keep at least one).
	for i := 0; i < len(sel(c).Select); {
		cand := c.Clone()
		q := sel(cand)
		if len(q.Select) <= 1 {
			break
		}
		dropped := q.Select[i]
		q.Select = append(q.Select[:i], q.Select[i+1:]...)
		// A bare grouping column leaves GROUP BY too, keeping the
		// query well-formed.
		for gi, g := range q.GroupBy {
			if g == dropped {
				q.GroupBy = append(q.GroupBy[:gi], q.GroupBy[gi+1:]...)
				break
			}
		}
		if fails(cand) {
			c, shrunk = cand, true
		} else {
			i++
		}
	}
	return c, shrunk
}

// shrinkRows reduces table contents: first by halves, then row by row.
func shrinkRows(c *Case, fails func(*Case) bool) (*Case, bool) {
	shrunk := false
	for ti := range c.Tables {
		// Halving passes.
		for {
			n := len(c.Tables[ti].Rows)
			if n < 2 {
				break
			}
			half := c.Clone()
			half.Tables[ti].Rows = half.Tables[ti].Rows[:n/2]
			if fails(half) {
				c, shrunk = half, true
				continue
			}
			half = c.Clone()
			half.Tables[ti].Rows = half.Tables[ti].Rows[n/2:]
			if fails(half) {
				c, shrunk = half, true
				continue
			}
			break
		}
		// Single-row passes.
		for i := 0; i < len(c.Tables[ti].Rows); {
			cand := c.Clone()
			t := cand.Tables[ti]
			t.Rows = append(t.Rows[:i], t.Rows[i+1:]...)
			if fails(cand) {
				c, shrunk = cand, true
			} else {
				i++
			}
		}
	}
	return c, shrunk
}

// shrinkTables drops tables the query and views no longer mention.
func shrinkTables(c *Case, fails func(*Case) bool) (*Case, bool) {
	shrunk := false
	for i := 0; i < len(c.Tables); {
		name := c.Tables[i].Name
		if mentionsTable(c, name) {
			i++
			continue
		}
		cand := c.Clone()
		cand.Tables = append(cand.Tables[:i], cand.Tables[i+1:]...)
		if fails(cand) {
			c, shrunk = cand, true
		} else {
			i++
		}
	}
	return c, shrunk
}

func mentionsTable(c *Case, name string) bool {
	for _, f := range c.Query.From {
		if f == name {
			return true
		}
	}
	for _, v := range c.Views {
		for _, f := range v.Def.From {
			if f == name {
				return true
			}
		}
	}
	return false
}
