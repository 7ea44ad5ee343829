package engine

import (
	"math"
	"testing"

	"aggview/internal/value"
)

func bagRel(attrs []string, rows ...[]value.Value) *Relation {
	r := NewRelation(attrs...)
	for _, row := range rows {
		r.Add(row...)
	}
	return r
}

func TestResultsEqualBag(t *testing.T) {
	iv := func(i int64) value.Value { return value.Int(i) }
	fv := func(f float64) value.Value { return value.Float(f) }

	t.Run("order insensitive", func(t *testing.T) {
		a := bagRel([]string{"X", "Y"}, []value.Value{iv(1), iv(2)}, []value.Value{iv(3), iv(4)})
		b := bagRel([]string{"X", "Y"}, []value.Value{iv(3), iv(4)}, []value.Value{iv(1), iv(2)})
		if !ResultsEqualBag(a, b) {
			t.Error("row order must not matter")
		}
	})

	t.Run("multiplicity matters", func(t *testing.T) {
		a := bagRel([]string{"X"}, []value.Value{iv(1)}, []value.Value{iv(1)})
		b := bagRel([]string{"X"}, []value.Value{iv(1)})
		if ResultsEqualBag(a, b) {
			t.Error("duplicate counts must be compared")
		}
	})

	t.Run("int float unify", func(t *testing.T) {
		a := bagRel([]string{"S"}, []value.Value{iv(6)})
		b := bagRel([]string{"S"}, []value.Value{fv(6.0)})
		if !ResultsEqualBag(a, b) {
			t.Error("6 and 6.0 are the same aggregate result")
		}
	})

	t.Run("relative epsilon", func(t *testing.T) {
		// No tolerance: a drift in the last bits is a different answer,
		// at any magnitude.
		a := bagRel([]string{"S"}, []value.Value{fv(1e12)})
		b := bagRel([]string{"S"}, []value.Value{fv(1e12 + 1e2)})
		if ResultsEqualBag(a, b) {
			t.Error("1e12 vs 1e12+100 is a different answer")
		}
		c := bagRel([]string{"S"}, []value.Value{fv(29)})
		d := bagRel([]string{"S"}, []value.Value{fv(math.Nextafter(29, 30))})
		if ResultsEqualBag(c, d) {
			t.Error("29 vs its next float is a different answer")
		}
	})

	t.Run("same size other multiset", func(t *testing.T) {
		a := bagRel([]string{"X"}, []value.Value{iv(1)}, []value.Value{iv(2)}, []value.Value{iv(1)})
		b := bagRel([]string{"X"}, []value.Value{iv(1)}, []value.Value{iv(2)}, []value.Value{iv(2)})
		if ResultsEqualBag(a, b) {
			t.Error("{1,2,1} vs {1,2,2}")
		}
	})

	t.Run("strings exact", func(t *testing.T) {
		a := bagRel([]string{"N"}, []value.Value{value.Str("x")})
		b := bagRel([]string{"N"}, []value.Value{value.Str("y")})
		if ResultsEqualBag(a, b) {
			t.Error("distinct strings must not match")
		}
		if !ResultsEqualBag(a, bagRel([]string{"N"}, []value.Value{value.Str("x")})) {
			t.Error("identical strings must match")
		}
	})

	t.Run("mixed kinds never match", func(t *testing.T) {
		a := bagRel([]string{"N"}, []value.Value{value.Str("1")})
		b := bagRel([]string{"N"}, []value.Value{iv(1)})
		if ResultsEqualBag(a, b) {
			t.Error("string '1' is not the number 1")
		}
	})

	t.Run("nil means empty", func(t *testing.T) {
		if !ResultsEqualBag(nil, nil) {
			t.Error("nil vs nil")
		}
		if !ResultsEqualBag(nil, bagRel([]string{"X"})) {
			t.Error("nil vs empty relation")
		}
		if ResultsEqualBag(nil, bagRel([]string{"X"}, []value.Value{iv(1)})) {
			t.Error("nil vs non-empty")
		}
	})

	t.Run("width mismatch", func(t *testing.T) {
		a := bagRel([]string{"X"}, []value.Value{iv(1)})
		b := bagRel([]string{"X", "Y"}, []value.Value{iv(1), iv(2)})
		if ResultsEqualBag(a, b) {
			t.Error("different arities cannot be equal")
		}
	})

	t.Run("attribute names ignored", func(t *testing.T) {
		a := bagRel([]string{"X"}, []value.Value{iv(1)})
		b := bagRel([]string{"renamed"}, []value.Value{iv(1)})
		if !ResultsEqualBag(a, b) {
			t.Error("only positions and values matter")
		}
	})

	t.Run("near floats across rows", func(t *testing.T) {
		// Two rows whose float results drift in opposite directions by
		// 1e-12 are two other rows.
		a := bagRel([]string{"G", "A"},
			[]value.Value{iv(1), fv(2.0)},
			[]value.Value{iv(2), fv(3.0)})
		b := bagRel([]string{"G", "A"},
			[]value.Value{iv(2), fv(3.0 + 1e-12)},
			[]value.Value{iv(1), fv(2.0 - 1e-12)})
		if ResultsEqualBag(a, b) {
			t.Error("per-row drift must be rejected")
		}
		if !ResultsEqualBag(a, bagRel([]string{"G", "A"}, []value.Value{iv(2), fv(3.0)}, []value.Value{iv(1), iv(2)})) {
			t.Error("the same rows in another order, 2 for 2.0, are the same bag")
		}
	})
}
