package oracle

import (
	"context"
	"slices"
	"strings"
)

// Shrinking: greedily remove structure — steps, views, clauses, rows,
// tables — keeping each reduction only when the case still fails. The
// strategy is a fixpoint of cheap passes rather than delta debugging:
// cases are small (tens of rows, a handful of clauses, a few dozen
// steps), so O(parts · checks) converges in well under the default
// budget.

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
// Each candidate is checked as Replay reads its Script, so the result's
// script fails under -replay by construction (a case Script renders
// ambiguously, such as an insert step into an empty table right behind
// its CREATE TABLE, is checked in the form it replays as).
//
// Every candidate check runs under ctx, and once ctx ends no further
// reductions are attempted — the smallest failing variant found so far
// is returned.
func ShrinkContext(ctx context.Context, c *Case, opt Options) *Case {
	budget := opt.ShrinkBudget
	if budget <= 0 {
		budget = shrinkBudget
	}
	check := func(cand *Case) *Outcome {
		if budget <= 0 || ctx.Err() != nil {
			return nil
		}
		budget--
		back, err := Replay(cand.Script())
		if err != nil {
			return nil
		}
		out, err := CheckContext(ctx, back, opt)
		// A candidate the system rejects outright is not a smaller
		// repro of the same failure; discard it.
		if err != nil || out.OK() {
			return nil
		}
		return out
	}
	cur := c.Clone()
	first := check(cur)
	if first == nil {
		return c
	}
	// Nor is one whose query no longer executes directly after its
	// mutations, unless that is the failure being shrunk.
	direct := func(v Violation) bool { return strings.HasPrefix(v.Fault, directTag+":") }
	keepDirect := slices.ContainsFunc(first.Violations, direct)
	fails := func(cand *Case) bool {
		out := check(cand)
		return out != nil && (keepDirect || !slices.ContainsFunc(out.Violations, direct))
	}
	for changed := true; changed && budget > 0; {
		changed = false
		for _, pass := range []func(*Case, func(*Case) bool) (*Case, bool){
			shrinkSteps, shrinkViews, shrinkClauses, shrinkRows, shrinkTables,
		} {
			if next, ok := pass(cur, fails); ok {
				cur, changed = next, true
			}
		}
	}
	return cur
}

// shrinkSteps tries dropping whole steps.
func shrinkSteps(c *Case, fails func(*Case) bool) (*Case, bool) {
	return shrinkList(c, fails, func(c *Case) int { return len(c.Steps) },
		func(c *Case, i int) { c.Steps = append(c.Steps[:i], c.Steps[i+1:]...) })
}

// shrinkViews tries dropping whole views.
func shrinkViews(c *Case, fails func(*Case) bool) (*Case, bool) {
	return shrinkList(c, fails, func(c *Case) int { return len(c.Views) },
		func(c *Case, i int) { c.Views = append(c.Views[:i], c.Views[i+1:]...) })
}

// shrinkList tries dropping each element of one of the case's lists,
// measured by n and cut from a clone by drop.
func shrinkList(c *Case, fails func(*Case) bool, n func(*Case) int, drop func(*Case, int)) (*Case, bool) {
	shrunk := false
	for i := 0; i < n(c); {
		cand := c.Clone()
		drop(cand, i)
		if fails(cand) {
			c, shrunk = cand, true
		} else {
			i++
		}
	}
	return c, shrunk
}

// shrinkClauses tries dropping WHERE/HAVING conjuncts, DISTINCT, select
// items, and GROUP BY columns (together with the bare select item
// referencing them) from each query step, then from each view
// definition.
func shrinkClauses(c *Case, fails func(*Case) bool) (*Case, bool) {
	var sels []func(*Case) *QuerySpec
	for si := range c.Steps {
		if c.Steps[si].Kind == StepQuery {
			sels = append(sels, func(cand *Case) *QuerySpec { return cand.Steps[si].Query })
		}
	}
	for vi := range c.Views {
		sels = append(sels, func(cand *Case) *QuerySpec { return &cand.Views[vi].Def })
	}
	shrunk := false
	for _, sel := range sels {
		if next, ok := shrinkSpec(c, fails, sel); ok {
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

// shrinkRows reduces table contents, first by halves, then row by row,
// and the rows of insert steps (keeping one: shrinkSteps drops the
// whole step).
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
		next, ok := shrinkList(c, fails, func(c *Case) int { return len(c.Tables[ti].Rows) },
			func(c *Case, i int) { c.Tables[ti].Rows = append(c.Tables[ti].Rows[:i], c.Tables[ti].Rows[i+1:]...) })
		c, shrunk = next, shrunk || ok
	}
	for si := range c.Steps {
		if c.Steps[si].Kind != StepInsert {
			continue
		}
		n := func(c *Case) int {
			if rows := len(c.Steps[si].Rows); rows > 1 {
				return rows
			}
			return 0
		}
		next, ok := shrinkList(c, fails, n,
			func(c *Case, i int) { c.Steps[si].Rows = append(c.Steps[si].Rows[:i], c.Steps[si].Rows[i+1:]...) })
		c, shrunk = next, shrunk || ok
	}
	return c, shrunk
}

// shrinkTables drops tables no view or step mentions anymore.
func shrinkTables(c *Case, fails func(*Case) bool) (*Case, bool) {
	shrunk := false
	for i := 0; i < len(c.Tables); {
		if mentionsTable(c, c.Tables[i].Name) {
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

// mentionsTable reports whether a view or a step reads or writes the
// table, under its own name or an alias.
func mentionsTable(c *Case, name string) bool {
	from := func(q *QuerySpec) bool {
		return slices.ContainsFunc(q.From, func(f string) bool { return f == name || strings.HasPrefix(f, name+" ") })
	}
	for _, v := range c.Views {
		if from(&v.Def) {
			return true
		}
	}
	for _, st := range c.Steps {
		if st.Table == name || st.Query != nil && from(st.Query) {
			return true
		}
	}
	return false
}
