package engine

import (
	"testing"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// The two rows below spell the same bytes when their cells' keys are
// joined with a NUL separator ('x' NUL 's' 'y' NUL 's' NUL), so a tuple
// key that is not self-delimiting calls them one tuple.
var (
	nulRowL = []value.Value{sv("x\x00sy"), sv("")}
	nulRowR = []value.Value{sv("x"), sv("y\x00s")}
)

// TestTupleKeysDoNotCollide runs the two rows through every operator
// that keys on more than one column — a two-column string join,
// DISTINCT and GROUP BY over a float and two strings (the byte-keyed
// path) — and through the bag comparators: each must tell them apart.
func TestTupleKeysDoNotCollide(t *testing.T) {
	db := NewDB()
	l, r := NewRelation("A", "B"), NewRelation("A", "B")
	l.Add(nulRowL...)
	r.Add(nulRowR...)
	db.Put("L", l)
	db.Put("R", r)
	fab := NewRelation("F", "A", "B")
	fab.Add(append([]value.Value{value.Float(1.5)}, nulRowL...)...)
	fab.Add(append([]value.Value{value.Float(1.5)}, nulRowR...)...)
	db.Put("T", fab)
	source := ir.MapSource{"L": {"A", "B"}, "R": {"A", "B"}, "T": {"F", "A", "B"}}

	if got := exec(t, db, nil, "SELECT L.A FROM L, R WHERE L.A = R.A AND L.B = R.B", source); got.Len() != 0 {
		t.Errorf("two-column string join: %d rows, want 0:\n%s", got.Len(), got)
	}
	if got := exec(t, db, nil, "SELECT DISTINCT F, A, B FROM T", source); got.Len() != 2 {
		t.Errorf("DISTINCT: %d rows, want 2:\n%s", got.Len(), got)
	}
	if got := exec(t, db, nil, "SELECT F, A, B, COUNT(F) FROM T GROUP BY F, A, B", source); got.Len() != 2 {
		t.Errorf("GROUP BY: %d groups, want 2:\n%s", got.Len(), got)
	}
	if ResultsEqualBag(l, r) {
		t.Error("ResultsEqualBag calls the two one-tuple bags equal")
	}
}
