package engine

// The row-at-a-time references the kernel property tests hold the
// vectorized engine to: one predicate on one boxed row, one row folded
// into one boxed accumulator, one nested loop over two tables.
// Production folds through vagg.go and joins through vjoin.go only.

import (
	"aggview/internal/ir"
	"aggview/internal/value"
)

// predHolds evaluates a WHERE predicate on a full-width row. It is the
// row-at-a-time reference semantics of the vectorized filter kernel
// (see TestFilterKernelMatchesReference).
func predHolds(p ir.Pred, row []value.Value) (bool, error) {
	l := termValue(p.L, row)
	r := termValue(p.R, row)
	return compare(p.Op, l, r)
}

func termValue(t ir.Term, row []value.Value) value.Value {
	if t.IsConst {
		return t.Val
	}
	return row[t.Col]
}

// fold absorbs one row into the accumulator: the row-at-a-time
// reference semantics of the vectorized fold (see
// TestAggKernelMatchesReference).
func (ac *accum) fold(row []value.Value) error {
	if ac.arg == nil {
		ac.rows++
		return nil
	}
	if ac.fn == ir.AggCount {
		// No NULLs: COUNT(arg) counts rows. The argument is still
		// evaluated once to surface reference errors.
		ac.rows++
		if !ac.seen {
			if _, err := evalScalar(ac.arg, row); err != nil {
				return err
			}
			ac.seen = true
		}
		return nil
	}
	v, err := evalScalar(ac.arg, row)
	if err != nil {
		return err
	}
	return ac.absorb(v)
}

// newAccs builds the accumulator bank for one group.
func newAccs(aggs []*ir.Agg) []accum {
	accs := make([]accum, len(aggs))
	for i, a := range aggs {
		accs[i].fn = a.Func
		if !a.Star {
			accs[i].arg = a.Arg
		}
	}
	return accs
}

func newGroup(rep []value.Value, aggs []*ir.Agg, first int) *group {
	return &group{rep: rep, accs: newAccs(aggs), first: first}
}

// fold absorbs one row into every accumulator of the group.
func (g *group) fold(row []value.Value) error {
	for i := range g.accs {
		if err := g.accs[i].fold(row); err != nil {
			return err
		}
	}
	return nil
}

// nestedLoopJoin is the reference of a two-table equi-join on a's columns
// ka and b's columns kb, pairwise: the index pairs (row of a, row of b)
// of the rows whose keys are equal, in the engine's pair order. That
// order is probe-major: the outer loop walks the larger table in row
// order — a on a tie, the first in FROM — and the inner loop the other,
// so each walked row meets its matches in their row order.
func nestedLoopJoin(a, b [][]value.Value, ka, kb []int) [][2]int {
	match := func(ra, rb []value.Value) bool {
		for k := range ka {
			if !value.Equal(ra[ka[k]], rb[kb[k]]) {
				return false
			}
		}
		return true
	}
	var pairs [][2]int
	if len(a) >= len(b) {
		for i, ra := range a {
			for j, rb := range b {
				if match(ra, rb) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		return pairs
	}
	for j, rb := range b {
		for i, ra := range a {
			if match(ra, rb) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}
