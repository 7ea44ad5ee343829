package engine

import "slices"

// ResultsEqualBag reports whether two results are equal as multisets of
// tuples — the paper's multiset equivalence of query results, and the one
// bag equality the oracles, the benchmark's gate and the test suites
// call. Two tuples are equal when their cells are value.KeyEqual, the
// order value.Compare decides: exactly, with no tolerance, so an answer
// that drifts in its last bit is a different answer. Only the tuples are
// compared, cell by cell: not the attributes' names, nor the width an
// empty result declares. A nil relation is an empty one.
func ResultsEqualBag(a, b *Relation) bool {
	return slices.Equal(sortedKeys(a), sortedKeys(b))
}

// sortedKeys returns the tuple keys of r (tupleKey) in sorted order; a
// nil r has none.
func sortedKeys(r *Relation) []string {
	if r == nil {
		return nil
	}
	ks := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		ks[i] = tupleKey(t)
	}
	slices.Sort(ks)
	return ks
}
