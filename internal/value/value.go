// Package value defines the scalar values that flow through the query
// engine: 64-bit integers, double-precision floats, strings and booleans.
//
// The paper's data model is purely relational with atomic values and no
// NULLs; Value mirrors that. One rule decides equality and order for
// every consumer — filters, chunk ranges, joins, grouping, DISTINCT,
// MIN/MAX, sorting, the maintainer's groups and the closure's constants:
// Compare, a total order whose 0 is KeyEqual and whose key bytes are
// AppendKey's. Integers and floats compare by value, exactly (as SQL
// does), so a view materialized with integer sums can be compared
// against float constants in a rewritten query; -0 equals 0, and NaN
// equals NaN and orders above +Inf, as PostgreSQL has it. Where the
// engine or the maintainer chooses among, or folds, values the rule
// calls equal, it emits the canonical member (CanonFloat).
package value

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Kind discriminates the runtime type of a Value.
type Kind uint8

// The supported scalar kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a scalar database value. The zero Value is the integer 0.
type Value struct {
	kind Kind
	i    int64 // also carries the bool (0/1)
	f    float64
	s    string
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNumeric reports whether the value is an integer or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsInt returns the integer payload; it panics on non-integer values.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("value: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsFloat returns the value as a float64, converting integers.
// It panics on non-numeric values.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic("value: AsFloat on " + v.kind.String())
	}
}

// AsString returns the string payload; it panics on non-string values.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("value: AsString on " + v.kind.String())
	}
	return v.s
}

// AsBool returns the boolean payload; it panics on non-bool values.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("value: AsBool on " + v.kind.String())
	}
	return v.i != 0
}

// String renders the value as a SQL literal that the parser reads back
// as the same value: a string doubles its quotes, and a float always has
// a float form (1.0, 2.5, 1e+16), so it never reads back as an integer.
// NaN and ±Inf render as NaN, +Inf and -Inf, which an INSERT reads back
// and a predicate does not; math.MinInt64 has no literal in the dialect.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eIN") {
			s += ".0"
		}
		return s
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// Comparable reports whether two values can be ordered against each other:
// numerics compare with numerics, otherwise the kinds must match.
func Comparable(a, b Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		return true
	}
	return a.kind == b.kind
}

// Compare orders a against b, returning -1, 0 or +1. It is a total order
// whose 0 is exactly KeyEqual: numerics order by value across int and
// float, exactly (no rounding through float64), -0 equals 0, and every
// NaN equals every NaN and orders above +Inf, as PostgreSQL orders them.
// Values of incomparable kinds order by kind, which keeps the order total
// for sorting heterogeneous columns but has no SQL meaning.
func Compare(a, b Value) int {
	switch {
	case a.kind == KindFloat && b.kind == KindFloat:
		return CompareFloats(a.f, b.f)
	case a.kind == KindInt && b.kind == KindFloat:
		return CompareIntFloat(a.i, b.f)
	case a.kind == KindFloat && b.kind == KindInt:
		return -CompareIntFloat(b.i, a.f)
	case a.kind != b.kind:
		return cmp.Compare(a.kind, b.kind)
	case a.kind == KindString:
		return strings.Compare(a.s, b.s)
	}
	return cmp.Compare(a.i, b.i)
}

// CompareFloats is Compare over two floats.
func CompareFloats(a, b float64) int {
	if math.IsNaN(a) || math.IsNaN(b) {
		return cmp.Compare(b, a) // cmp puts NaN below every number, the rule above: swap
	}
	return cmp.Compare(a, b)
}

// CompareIntFloat is Compare of Int(i) against Float(f): the integer
// against f's integral part in int64, then against its fraction.
func CompareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f) || f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

// CanonFloat returns the member of f's class under the rule that the
// engine and the maintainer emit wherever they choose among, or fold,
// values the rule calls equal: 0 for -0, math.NaN() for every NaN, f
// itself otherwise.
func CanonFloat(f float64) float64 {
	switch {
	case math.IsNaN(f):
		return math.NaN()
	case math.Float64bits(f) == 1<<63: // -0
		return 0
	}
	return f
}

// Canon is CanonFloat over a value: a float's canonical member, any other
// value as it is.
func (v Value) Canon() Value {
	if v.kind == KindFloat {
		v.f = CanonFloat(v.f)
	}
	return v
}

// Add returns a+b for numeric values. The result is an integer when both
// operands are integers, a float otherwise.
func Add(a, b Value) (Value, error) {
	return arith(a, b, '+')
}

// Sub returns a-b for numeric values.
func Sub(a, b Value) (Value, error) {
	return arith(a, b, '-')
}

// Mul returns a*b for numeric values.
func Mul(a, b Value) (Value, error) {
	return arith(a, b, '*')
}

// Div returns a/b for numeric values. Division always yields a float, as
// the only divisions the rewriter emits reconstruct AVG from SUM/COUNT.
func Div(a, b Value) (Value, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return Value{}, fmt.Errorf("value: cannot divide %s by %s", a.kind, b.kind)
	}
	bf := b.AsFloat()
	//aggvet:floateq division-by-zero guard: only an exactly-zero divisor is an error, near-zero must divide
	if bf == 0 {
		return Value{}, fmt.Errorf("value: division by zero")
	}
	return Float(a.AsFloat() / bf), nil
}

// OverflowError is the error of an int +, - or × whose exact result
// int64 cannot hold, an int SUM or AVG total among them: no answer is a
// wrapped int.
type OverflowError struct {
	Op byte // '+', '-' or '*'
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("value: integer overflow in %c", e.Op)
}

// AddWide returns the low word of a+b, wrapping, and the signed count of
// 2^64 wraps that took it there (-1, 0 or +1): the sum's sign differs
// from both addends' only when it wraps, upwards for b >= 0. The exact
// sum is the low word plus the count times 2^64.
func AddWide(a, b int64) (lo, carry int64) {
	lo = a + b
	return lo, ((lo ^ a) & (lo ^ b)) >> 63 & (b>>63 | 1)
}

// SubWide is AddWide for a-b, which wraps only when a and b differ in
// sign and the difference's sign differs from a's, upwards for b < 0.
func SubWide(a, b int64) (lo, carry int64) {
	lo = a - b
	return lo, -(((a ^ b) & (a ^ lo)) >> 63 & (b>>63 | 1))
}

// MulHi returns the high word of the 128-bit product of a and b, whose
// low word is a*b (wrapped): the product fits int64 exactly when the high
// word equals the low word's sign, a*b>>63.
func MulHi(a, b int64) int64 {
	hi, _ := bits.Mul64(uint64(a), uint64(b))
	return int64(hi) - (a>>63)&b - (b>>63)&a
}

func arith(a, b Value, op byte) (Value, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return Value{}, fmt.Errorf("value: cannot apply %c to %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		var r, carry int64
		switch op {
		case '+':
			r, carry = AddWide(a.i, b.i)
		case '-':
			r, carry = SubWide(a.i, b.i)
		default:
			r = a.i * b.i
			carry = MulHi(a.i, b.i) ^ r>>63
		}
		if carry != 0 {
			return Value{}, &OverflowError{Op: op}
		}
		return Int(r), nil
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case '+':
		return Float(af + bf), nil
	case '-':
		return Float(af - bf), nil
	default:
		return Float(af * bf), nil
	}
}

// Key returns the value's canonical key as a string: identical for values
// that are KeyEqual and distinct otherwise. Like AppendKey's bytes it is
// self-delimiting, so concatenated keys never collide.
func (v Value) Key() string {
	return string(v.AppendKey(nil))
}

// AppendKey appends the value's canonical key to dst, the one rule by
// which values become key bytes (DESIGN.md section 3); the bytes are
// equal exactly when KeyEqual holds. A number that is an int64 beyond
// ±2^53 is 'i' and its int64 bits, any other numeric 'n' and its
// canonical float64 bits (CanonFloat: one pattern for ±0, one for every
// NaN), a string 's', a uvarint length and its bytes, a bool 'b' and a
// byte. Keys are self-delimiting, so concatenated keys never collide: two
// tuples' keys are equal exactly when the tuples are KeyEqual cell by
// cell.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindFloat:
		return AppendFloatKey(dst, v.f)
	case KindString:
		return AppendStrKey(dst, v.s)
	case KindBool:
		return AppendBoolKey(dst, v.i != 0)
	}
	return AppendIntKey(dst, v.i)
}

// AppendIntKey appends the canonical key of Int(i) to dst.
func AppendIntKey(dst []byte, i int64) []byte {
	if i >= -(1<<53) && i <= 1<<53 {
		return binary.LittleEndian.AppendUint64(append(dst, 'n'), math.Float64bits(float64(i)))
	}
	return binary.LittleEndian.AppendUint64(append(dst, 'i'), uint64(i))
}

// AppendFloatKey appends the canonical key of Float(f) to dst.
func AppendFloatKey(dst []byte, f float64) []byte {
	if i := int64(f); CompareIntFloat(i, f) == 0 {
		return AppendIntKey(dst, i)
	}
	return binary.LittleEndian.AppendUint64(append(dst, 'n'), math.Float64bits(CanonFloat(f)))
}

// AppendStrKey appends the canonical key of Str(s) to dst.
func AppendStrKey(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(append(dst, 's'), uint64(len(s))), s...)
}

// AppendBoolKey appends the canonical key of Bool(b) to dst.
func AppendBoolKey(dst []byte, b bool) []byte {
	if b {
		return append(dst, 'b', 1)
	}
	return append(dst, 'b', 0)
}

// KeyEqual reports whether a.Key() == b.Key() without building either
// string: whether Compare(a, b) is 0. It is SQL's = wherever the kinds
// compare (1 = 1.0, -0 = 0, and here every NaN = every NaN), and false
// across kinds that do not.
func KeyEqual(a, b Value) bool {
	return Compare(a, b) == 0
}
