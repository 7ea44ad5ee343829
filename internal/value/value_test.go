package value

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "STRING",
		KindBool:   "BOOL",
		Kind(9):    "Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("Int accessor")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float accessor")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("Int AsFloat")
	}
	if Str("x").AsString() != "x" {
		t.Error("Str accessor")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool accessor")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on string", func() { Str("x").AsInt() })
	mustPanic("AsFloat on string", func() { Str("x").AsFloat() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
	mustPanic("AsBool on int", func() { Int(1).AsBool() })
}

func TestCompareNumericCross(t *testing.T) {
	if !KeyEqual(Int(1), Float(1.0)) {
		t.Error("1 should equal 1.0")
	}
	if Compare(Int(1), Float(1.5)) != -1 {
		t.Error("1 < 1.5")
	}
	if Compare(Float(2.5), Int(2)) != 1 {
		t.Error("2.5 > 2")
	}
	// Large int64 values must compare exactly, not through float64.
	big := int64(1<<62 + 1)
	if Compare(Int(big), Int(big-1)) != 1 {
		t.Error("large int compare must be exact")
	}
}

// TestCompareRule pins the rule's cases: -0 is 0, NaN is NaN and above
// +Inf, and an int meets a float exactly, past 2^53 and at the ends of
// int64.
func TestCompareRule(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		a, b Value
		want int
	}{
		{Float(math.Copysign(0, -1)), Float(0), 0},
		{Float(math.Copysign(0, -1)), Int(0), 0},
		{Float(nan), Float(math.Float64frombits(0x7ff0000000000002)), 0},
		{Float(nan), Float(inf), 1},
		{Float(nan), Int(math.MaxInt64), 1},
		{Float(-inf), Float(nan), -1},
		{Float(-inf), Int(math.MinInt64), -1},
		{Int(1<<53 + 1), Float(1 << 53), 1},
		{Int(1<<53 + 1), Float(1<<53 + 2), -1},
		{Int(1 << 53), Float(1 << 53), 0},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-(1 << 63)), 0},
		{Int(math.MinInt64 + 1), Float(-(1 << 63)), 1},
		{Int(3), Float(2.5), 1},
		{Int(-3), Float(-2.5), -1},
		{Int(-2), Float(-2.5), 1},
		{Int(0), Float(-0.5), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
	if got := Float(math.Copysign(0, -1)).Canon(); math.Signbit(got.AsFloat()) {
		t.Errorf("Canon(-0) = %v, want 0", got)
	}
	if got := Float(math.Float64frombits(0xfff0000000000001)).Canon(); math.Float64bits(got.AsFloat()) != math.Float64bits(nan) {
		t.Errorf("Canon of a NaN has bits %x, want math.NaN's", math.Float64bits(got.AsFloat()))
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if Compare(Str("a"), Str("b")) != -1 || Compare(Str("b"), Str("a")) != 1 || Compare(Str("a"), Str("a")) != 0 {
		t.Error("string ordering")
	}
	if Compare(Bool(false), Bool(true)) != -1 || Compare(Bool(true), Bool(true)) != 0 {
		t.Error("bool ordering")
	}
}

func TestComparable(t *testing.T) {
	if Comparable(Int(1), Str("x")) {
		t.Error("int and string are not comparable")
	}
	if !Comparable(Int(1), Float(1)) {
		t.Error("int and float are comparable")
	}
	if KeyEqual(Int(0), Str("")) {
		t.Error("cross-kind KeyEqual must be false")
	}
}

func TestCrossKindOrderingIsStable(t *testing.T) {
	// The ordering across incomparable kinds is arbitrary but must be a
	// strict total order for sorting.
	vals := []Value{Int(1), Float(2), Str("a"), Bool(true)}
	for _, a := range vals {
		for _, b := range vals {
			ab, ba := Compare(a, b), Compare(b, a)
			if ab != -ba {
				t.Errorf("Compare(%v,%v)=%d but Compare(%v,%v)=%d", a, b, ab, b, a, ba)
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !KeyEqual(got, want) || got.Kind() != want.Kind() {
			t.Fatalf("got %v (%v), want %v (%v)", got, got.Kind(), want, want.Kind())
		}
	}
	v, err := Add(Int(2), Int(3))
	check(v, err, Int(5))
	v, err = Sub(Int(2), Int(3))
	check(v, err, Int(-1))
	v, err = Mul(Int(2), Int(3))
	check(v, err, Int(6))
	v, err = Add(Int(2), Float(0.5))
	check(v, err, Float(2.5))
	v, err = Mul(Float(2), Float(3))
	check(v, err, Float(6))
	v, err = Div(Int(7), Int(2))
	check(v, err, Float(3.5))
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Error("Add on string should fail")
	}
	if _, err := Mul(Int(1), Bool(true)); err == nil {
		t.Error("Mul on bool should fail")
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("division by zero should fail")
	}
	if _, err := Div(Str("a"), Int(1)); err == nil {
		t.Error("Div on string should fail")
	}
}

func TestKeyConsistentWithEqual(t *testing.T) {
	pairs := []struct {
		a, b Value
	}{
		{Int(1), Float(1.0)},
		{Int(0), Float(0)},
		{Int(-3), Float(-3)},
		{Float(0), Float(math.Copysign(0, -1))},
		{Int(0), Float(math.Copysign(0, -1))},
		{Float(math.NaN()), Float(math.Float64frombits(0xfff0000000000001))},
		{Int(1<<53 + 2), Float(1<<53 + 2)},
		{Int(math.MinInt64), Float(-(1 << 63))},
	}
	for _, p := range pairs {
		if p.a.Key() != p.b.Key() {
			t.Errorf("Key mismatch for equal values %v and %v", p.a, p.b)
		}
	}
	distinct := []Value{Int(1), Int(2), Float(1.5), Str("1"), Bool(true), Bool(false), Str(""),
		Int(1<<53 + 1), Float(1 << 53), Int(math.MaxInt64), Float(1 << 63), Float(math.Inf(1)), Float(math.NaN())}
	seen := map[string]Value{}
	for _, v := range distinct {
		if prev, ok := seen[v.Key()]; ok {
			t.Errorf("Key collision between %v and %v", prev, v)
		}
		seen[v.Key()] = v
	}
}

func TestKeyLargeInts(t *testing.T) {
	a, b := Int(1<<60), Int(1<<60+1)
	if a.Key() == b.Key() {
		t.Error("large ints beyond 2^53 must keep distinct keys")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("hi"), "'hi'"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{Str("it's"), "'it''s'"},
		{Str("''"), "''''''"},
		{Float(1), "1.0"},
		{Float(-3), "-3.0"},
		{Float(math.Copysign(0, -1)), "-0.0"},
		{Float(1e16), "1e+16"},
		{Float(1e-7), "1e-07"},
		{Float(123456789), "1.23456789e+08"},
		{Int(1e16), "10000000000000000"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Property: Key equality coincides with Compare's 0 for int/float values, and
// concatenated keys are equal exactly when tuples are KeyEqual cell by
// cell. The tuple half is exhaustive: every tuple of up to two cells over
// numerics with KeyEqual twins and strings spelled from a delimiter-heavy
// alphabet, where a separator-joined or length-blind key would collide.
func TestQuickKeyMatchesEqual(t *testing.T) {
	f := func(a, b int32, useFloatA, useFloatB bool) bool {
		va, vb := Int(int64(a)), Int(int64(b))
		if useFloatA {
			va = Float(float64(a))
		}
		if useFloatB {
			vb = Float(float64(b))
		}
		return (va.Key() == vb.Key()) == (Compare(va, vb) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	cells := []Value{Int(1), Float(1), Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()),
		Float(math.Float64frombits(0x7ff8000000000001)), Int(1 << 53), Float(1 << 53), Int(1<<53 + 1),
		Int(-(1<<53 + 1)), Bool(true), Bool(false)}
	// Every string of up to three pieces of the alphabet.
	for level, n := []string{""}, 0; n <= 3; n++ {
		var next []string
		for _, s := range level {
			cells = append(cells, Str(s))
			for _, p := range []string{"\x00", "s", "n", "|", ";"} {
				next = append(next, s+p)
			}
		}
		level = next
	}
	// class[i] names cell i's KeyEqual class: the first cell equal to it.
	class := make([]int, len(cells))
	for i := range cells {
		for !KeyEqual(cells[i], cells[class[i]]) {
			class[i]++
		}
	}
	tuples := [][]int{{}}
	for i := range cells {
		tuples = append(tuples, []int{i})
		for j := range cells {
			tuples = append(tuples, []int{i, j})
		}
	}
	byKey, byClass := map[string]string{}, map[string]string{}
	for _, tup := range tuples {
		var key []byte
		cls := ""
		for _, i := range tup {
			key = cells[i].AppendKey(key)
			cls += fmt.Sprint(class[i], ",")
		}
		if c, ok := byKey[string(key)]; ok && c != cls {
			t.Fatalf("tuples of classes %s and %s share the key %q", c, cls, key)
		}
		if k, ok := byClass[cls]; ok && k != string(key) {
			t.Fatalf("KeyEqual tuples of classes %s have keys %q and %q", cls, k, key)
		}
		byKey[string(key)], byClass[cls] = cls, string(key)
	}
}

// Property: Compare is antisymmetric and consistent with KeyEqual.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return Compare(va, vb) == -Compare(vb, va) &&
			(Compare(va, vb) == 0) == KeyEqual(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arithmetic on ints matches Go's int64 arithmetic.
func TestQuickIntArith(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := int64(a), int64(b)
		s, err1 := Add(Int(x), Int(y))
		d, err2 := Sub(Int(x), Int(y))
		p, err3 := Mul(Int(x), Int(y))
		return err1 == nil && err2 == nil && err3 == nil &&
			s.AsInt() == x+y && d.AsInt() == x-y && p.AsInt() == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntArithOverflows holds int +, - and × to the exact product in
// big.Int: the int64 result when it fits, an *OverflowError naming the
// operator otherwise, at the edges of int64 and over random operands;
// and AddWide and SubWide to low word + carry·2^64 = the exact result.
func TestIntArithOverflows(t *testing.T) {
	ops := []struct {
		op   byte
		fn   func(a, b Value) (Value, error)
		big  func(z, x, y *big.Int) *big.Int
		wide func(a, b int64) (int64, int64)
	}{{'+', Add, (*big.Int).Add, AddWide}, {'-', Sub, (*big.Int).Sub, SubWide}, {'*', Mul, (*big.Int).Mul, nil}}
	check := func(x, y int64) bool {
		for _, o := range ops {
			exact := o.big(new(big.Int), big.NewInt(x), big.NewInt(y))
			if o.wide != nil {
				lo, carry := o.wide(x, y)
				if w := new(big.Int).Add(big.NewInt(lo), new(big.Int).Lsh(big.NewInt(carry), 64)); w.Cmp(exact) != 0 {
					t.Errorf("%d %c %d: wide %d carry %d, want %s", x, o.op, y, lo, carry, exact)
					return false
				}
			}
			got, err := o.fn(Int(x), Int(y))
			var ov *OverflowError
			if exact.IsInt64() {
				if err != nil || got.AsInt() != exact.Int64() {
					t.Errorf("%d %c %d: %v, %v; want %s", x, o.op, y, got, err, exact)
					return false
				}
			} else if !errors.As(err, &ov) || ov.Op != o.op {
				t.Errorf("%d %c %d: %v, %v; want an overflow error", x, o.op, y, got, err)
				return false
			}
		}
		return true
	}
	edges := []int64{0, 1, -1, 2, -2, 3, 1 << 31, -1 << 31, 1 << 32, 3037000499, 3037000500, -3037000500, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64, math.MaxInt64 / 2, math.MinInt64 / 2}
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatKeyNonInteger(t *testing.T) {
	if Float(1.5).Key() == Float(2.5).Key() {
		t.Error("distinct float keys")
	}
	if Float(math.Pi).Key() != Float(math.Pi).Key() {
		t.Error("identical floats must share a key")
	}
}

// tupleKey concatenates the cells' canonical keys.
func tupleKey(t []Value) []byte {
	var b []byte
	for _, v := range t {
		b = v.AppendKey(b)
	}
	return b
}

// fuzzTuples decodes two tuples from b. Each cell is a tag byte and its
// payload: an int or a float reads 8 bytes of bits, a string a length
// byte (mod 16) and that many bytes, a bool one byte; a tag of 4 (mod 5)
// ends the first tuple. A truncated cell ends the input.
func fuzzTuples(b []byte) (ta, tb []Value) {
	cur := &ta
	for len(b) > 0 {
		tag := b[0] % 5
		b = b[1:]
		var v Value
		switch tag {
		case 0, 1:
			if len(b) < 8 {
				return ta, tb
			}
			bits := binary.LittleEndian.Uint64(b)
			v, b = Int(int64(bits)), b[8:]
			if tag == 1 {
				v = Float(math.Float64frombits(bits))
			}
		case 2:
			if len(b) < 1 || len(b) < 1+int(b[0]%16) {
				return ta, tb
			}
			n := 1 + int(b[0]%16)
			v, b = Str(string(b[1:n])), b[n:]
		case 3:
			if len(b) < 1 {
				return ta, tb
			}
			v, b = Bool(b[0]&1 == 1), b[1:]
		default:
			cur = &tb
			continue
		}
		*cur = append(*cur, v)
	}
	return ta, tb
}

// FuzzTupleKey holds the canonical key to its contract on tuples: two
// tuples' concatenated AppendKey bytes are equal exactly when the tuples
// have the same length and are KeyEqual cell by cell.
func FuzzTupleKey(f *testing.F) {
	str := func(s string) []byte { return append([]byte{2, byte(len(s))}, s...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	num := func(tag byte, bits uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{tag}, bits) }
	// ('x\x00sy', '') against ('x', 'y\x00s'): one key once NUL-joined.
	f.Add(cat(str("x\x00sy"), str(""), []byte{4}, str("x"), str("y\x00s")))
	// ('s') against ('', ''): one key if strings are not length-prefixed.
	f.Add(cat(str("s"), []byte{4}, str(""), str("")))
	// (1, 's') against (1.0, 's'): KeyEqual, so one key.
	f.Add(cat(num(0, 1), str("s"), []byte{4}, num(1, math.Float64bits(1)), str("s")))
	// -0 against 0, and two NaNs.
	f.Add(cat(num(1, 1<<63), []byte{4}, num(1, 0)))
	f.Add(cat(num(1, 0x7ff8000000000001), []byte{4}, num(1, 0x7ff0000000000002)))
	f.Fuzz(func(t *testing.T, b []byte) {
		ta, tb := fuzzTuples(b)
		same := len(ta) == len(tb)
		for i := 0; same && i < len(ta); i++ {
			same = KeyEqual(ta[i], tb[i])
		}
		if got := bytes.Equal(tupleKey(ta), tupleKey(tb)); got != same {
			t.Fatalf("%v and %v: keys equal %v, KeyEqual cell by cell %v", ta, tb, got, same)
		}
	})
}

// fuzzValue builds a value from a kind tag and 8 bytes of payload: an
// int or a float of those bits, a string of the bytes up to the tag's
// length (mod 9), a bool of the low bit.
func fuzzValue(tag byte, bits uint64) Value {
	switch tag % 4 {
	case 0:
		return Int(int64(bits))
	case 1:
		return Float(math.Float64frombits(bits))
	case 2:
		return Str(string(binary.LittleEndian.AppendUint64(nil, bits)[:int(tag/4)%9]))
	}
	return Bool(bits&1 == 1)
}

// exact returns a numeric value other than NaN as an exact big.Float.
func exact(v Value) *big.Float {
	if v.Kind() == KindInt {
		return new(big.Float).SetInt64(v.AsInt())
	}
	return big.NewFloat(v.AsFloat())
}

// FuzzCompare holds Compare to the rule: a total order (antisymmetric,
// transitive) whose 0 is KeyEqual and equal AppendKey bytes, and which
// orders two numbers other than NaN as their exact values do.
func FuzzCompare(f *testing.F) {
	fl := func(x float64) uint64 { return math.Float64bits(x) }
	i := func(x int64) uint64 { return uint64(x) }
	seeds := []struct {
		tag  byte
		bits uint64
	}{
		{1, fl(0)}, {1, 1 << 63}, {1, fl(math.NaN())}, {1, 0x7ff0000000000001}, {1, 0xfff8000000000000},
		{1, fl(math.Inf(1))}, {1, fl(math.Inf(-1))}, {1, fl(0.5)},
		{0, 0}, {0, i(1 << 53)}, {0, i(1<<53 + 1)}, {0, i(-(1<<53 + 1))}, {0, i(math.MaxInt64)}, {0, i(math.MinInt64)},
		{1, fl(1 << 53)}, {1, fl(1<<53 + 2)}, {1, fl(-(1 << 53))}, {1, fl(1 << 63)}, {1, fl(-(1 << 63))},
		{1, fl(math.Nextafter(1<<63, 0))}, {1, fl(-(1<<53 + 2))},
		{2 + 4*3, 0x616263}, {3, 1},
	}
	for k, a := range seeds {
		b, c := seeds[(k+1)%len(seeds)], seeds[(k*7+3)%len(seeds)]
		f.Add(a.tag, a.bits, b.tag, b.bits, c.tag, c.bits)
		f.Add(a.tag, a.bits, a.tag^1, a.bits, b.tag, b.bits)
	}
	f.Fuzz(func(t *testing.T, ta byte, a uint64, tb byte, b uint64, tc byte, c uint64) {
		va, vb, vc := fuzzValue(ta, a), fuzzValue(tb, b), fuzzValue(tc, c)
		ab, bc, ac := Compare(va, vb), Compare(vb, vc), Compare(va, vc)
		if ab != -Compare(vb, va) || Compare(va, va) != 0 {
			t.Fatalf("Compare(%v, %v) = %d, reversed %d: not antisymmetric", va, vb, ab, Compare(vb, va))
		}
		if ab <= 0 && bc <= 0 && (ac > 0 || (ab < 0 || bc < 0) && ac == 0) {
			t.Fatalf("%v <= %v <= %v (%d, %d) but Compare(a, c) = %d: not transitive", va, vb, vc, ab, bc, ac)
		}
		if ab >= 0 && bc >= 0 && (ac < 0 || (ab > 0 || bc > 0) && ac == 0) {
			t.Fatalf("%v >= %v >= %v (%d, %d) but Compare(a, c) = %d: not transitive", va, vb, vc, ab, bc, ac)
		}
		keys := bytes.Equal(va.AppendKey(nil), vb.AppendKey(nil))
		if (ab == 0) != KeyEqual(va, vb) || (ab == 0) != keys {
			t.Fatalf("%v and %v: Compare %d, KeyEqual %v, equal keys %v", va, vb, ab, KeyEqual(va, vb), keys)
		}
		if va.IsNumeric() && vb.IsNumeric() && !math.IsNaN(va.AsFloat()) && !math.IsNaN(vb.AsFloat()) {
			if want := exact(va).Cmp(exact(vb)); ab != want {
				t.Fatalf("Compare(%v, %v) = %d, exact order %d", va, vb, ab, want)
			}
		}
	})
}
