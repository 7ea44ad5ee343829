// Package floatfix is the floateq fixture: exact float and value.Value
// comparisons in flagged and allowlisted flavours.
package floatfix

import "aggview/internal/value"

// ExactFloat compares two float64 values bitwise.
func ExactFloat(a, b float64) bool {
	return a == b // want `exact == on float operands`
}

// ExactFloatNeq uses != against a float literal.
func ExactFloatNeq(a float64) bool {
	return a != 0.5 // want `exact != on float operands`
}

// NamedFloat compares a defined type whose underlying type is float64.
type Score float64

// ExactNamed compares named float types.
func ExactNamed(a, b Score) bool {
	return a == b // want `exact == on float operands`
}

// StructEq compares value.Value structs with ==: 1 and 1.0 differ.
func StructEq(a, b value.Value) bool {
	return a == b // want `value.Value compares structs`
}

// Guarded justifies an exact comparison with a directive.
func Guarded(a float64) bool {
	//aggvet:floateq division-by-zero guard, exact zero intended
	return a == 0
}

// IntEq compares integers: out of scope.
func IntEq(a, b int64) bool {
	return a == b
}

// StrEq compares strings: out of scope.
func StrEq(a, b string) bool {
	return a == b
}

// ValueEqual uses the sanctioned comparison: out of scope.
func ValueEqual(a, b value.Value) bool {
	return value.KeyEqual(a, b)
}

// FloatLess orders floats; only ==/!= are hazards.
func FloatLess(a, b float64) bool {
	return a < b
}
