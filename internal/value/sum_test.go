package value

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// addend is one term of a reference sum: an int or a float, added or
// (neg) subtracted.
type addend struct {
	v   Value
	neg bool
}

// refSum is the reference total of the addends: exact in math/big over
// units of 2^-1074, non-finite floats counted apart, rounded by
// big.Float's nearest-even rule. It answers what Sum.Value must.
func refSum(as []addend) (Value, error) {
	total := new(big.Int)
	var nan, pinf, ninf int64
	isFloat := false
	for _, a := range as {
		sign := int64(1)
		if a.neg {
			sign = -1
		}
		if a.v.Kind() == KindInt {
			x := new(big.Int).Lsh(big.NewInt(a.v.AsInt()), 1074)
			if a.neg {
				x.Neg(x)
			}
			total.Add(total, x)
			continue
		}
		isFloat = true
		f := a.v.AsFloat()
		switch {
		case math.IsNaN(f):
			nan += sign
		case math.IsInf(f, 1):
			pinf += sign
		case math.IsInf(f, -1):
			ninf += sign
		default:
			x, _ := new(big.Float).SetMantExp(new(big.Float).SetFloat64(f), 1074).Int(nil)
			if a.neg {
				x.Neg(x)
			}
			total.Add(total, x)
		}
	}
	if !isFloat {
		i := new(big.Int).Rsh(total, 1074)
		if !i.IsInt64() {
			return Value{}, &OverflowError{Op: '+'}
		}
		return Int(i.Int64()), nil
	}
	switch {
	case nan > 0 || pinf > 0 && ninf > 0:
		return Float(math.NaN()), nil
	case pinf > 0:
		return Float(math.Inf(1)), nil
	case ninf > 0:
		return Float(math.Inf(-1)), nil
	}
	f, _ := new(big.Float).SetMantExp(new(big.Float).SetInt(total), -1074).Float64()
	return Float(CanonFloat(f)), nil
}

// fold adds the addends into one Sum, subtracting each subtracted one
// as a cell (SubInt, SubFloat).
func fold(as []addend) Sum {
	var s Sum
	for _, a := range as {
		switch {
		case a.v.Kind() == KindFloat && a.neg:
			s.SubFloat(a.v.AsFloat())
		case a.v.Kind() == KindFloat:
			s.AddFloat(a.v.AsFloat())
		case a.neg:
			s.SubInt(a.v.AsInt())
		default:
			s.AddInt(a.v.AsInt())
		}
	}
	return s
}

// foldApart folds the added addends and the subtracted ones into two
// Sums, each addend merged as a Sum of its own, and takes the second from
// the first (Sub).
func foldApart(as []addend) Sum {
	var s, d Sum
	for _, a := range as {
		x := fold([]addend{{v: a.v}})
		if a.neg {
			d.Merge(&x)
		} else {
			s.Merge(&x)
		}
	}
	s.Sub(&d)
	return s
}

// sameResult reports whether two rounded totals agree bit for bit, or
// are both an overflow.
func sameResult(a Value, aerr error, b Value, berr error) bool {
	var ao, bo *OverflowError
	if errors.As(aerr, &ao) || errors.As(berr, &bo) {
		return errors.As(aerr, &ao) && errors.As(berr, &bo)
	}
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.AsInt() == b.AsInt()
}

// drawFloat returns a float from one of the shapes where rounding is
// hard: any bit pattern, a subnormal, an extreme, a value near 1e16 or a
// small one beside it.
func drawFloat(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return math.Float64frombits(r.Uint64())
	case 1:
		return math.Float64frombits(r.Uint64() & (1<<52 - 1)) // subnormal
	case 2:
		return []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022}[r.Intn(5)]
	case 3:
		return []float64{1e16, -1e16, 1, -1, 0.5, -0.5, 2, 3}[r.Intn(8)]
	case 4:
		return math.Copysign(0, float64(r.Intn(2)*2-1))
	case 5:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	default:
		return math.Ldexp(r.Float64()*2-1, r.Intn(200)-100)
	}
}

func drawInt(r *rand.Rand) int64 {
	switch r.Intn(3) {
	case 0:
		return []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 1 << 53, -(1 << 53) - 1}[r.Intn(6)]
	case 1:
		return int64(r.Uint64())
	}
	return r.Int63n(2001) - 1000
}

func TestSumMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 4000; trial++ {
		n := 1 + r.Intn(12)
		floats := r.Intn(4) > 0
		as := make([]addend, n)
		for i := range as {
			if floats && r.Intn(3) > 0 {
				as[i].v = Float(drawFloat(r))
			} else {
				as[i].v = Int(drawInt(r))
			}
			as[i].neg = r.Intn(4) == 0
		}
		s := fold(as)
		got, gerr := s.Value()
		want, werr := refSum(as)
		if !sameResult(got, gerr, want, werr) {
			t.Fatalf("trial %d: %v: got %v (%v), want %v (%v)", trial, as, got, gerr, want, werr)
		}
		// Subtracting the subtracted addends' own total equals taking
		// them out one cell at a time.
		ap := foldApart(as)
		if got, err := ap.Value(); !sameResult(got, err, want, werr) {
			t.Fatalf("trial %d: %v apart: got %v (%v), want %v (%v)", trial, as, got, err, want, werr)
		}
		// Merging the totals of any split equals folding every addend in one.
		k := r.Intn(n + 1)
		a, b := fold(as[:k]), fold(as[k:])
		a.Merge(&b)
		mg, merr := a.Value()
		if !sameResult(mg, merr, want, werr) {
			t.Fatalf("trial %d: merged at %d: got %v (%v), want %v (%v)", trial, k, mg, merr, want, werr)
		}
	}
}

func TestSumCases(t *testing.T) {
	f := func(xs ...float64) []addend {
		as := make([]addend, len(xs))
		for i, x := range xs {
			as[i].v = Float(x)
		}
		return as
	}
	cases := []struct {
		name string
		as   []addend
		want uint64 // float bits
	}{
		{"1e16 + 1 + 1 is 1e16 + 2", f(1e16, 1, 1), 0x4341c37937e08001},
		{"1e16 + 1 ties to even", f(1e16, 1), 0x4341c37937e08000},
		{"1e16 + 3 ties to even upwards", f(1e16, 1, 1, 1), 0x4341c37937e08002},
		{"MaxFloat64 cancels", f(math.MaxFloat64, 0.5, -math.MaxFloat64), math.Float64bits(0.5)},
		{"past MaxFloat64 is +Inf", f(math.MaxFloat64, math.MaxFloat64), math.Float64bits(math.Inf(1))},
		{"back under MaxFloat64", f(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64), math.Float64bits(math.MaxFloat64)},
		{"subnormals add exactly", f(math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64), 2},
		{"-0 sums to +0", f(math.Copysign(0, -1)), 0},
		{"cancelling to 0 is +0", f(-1, 1), 0},
		{"NaN", f(1, math.NaN()), math.Float64bits(math.NaN())},
		{"both infinities", f(math.Inf(1), math.Inf(-1)), math.Float64bits(math.NaN())},
		{"-Inf", f(math.Inf(-1), 1e300), math.Float64bits(math.Inf(-1))},
	}
	for _, c := range cases {
		s := fold(c.as)
		if got := math.Float64bits(s.Float()); got != c.want {
			t.Errorf("%s: got %#x, want %#x", c.name, got, c.want)
		}
	}

	// Ints that pass int64 part-way and come back are exact.
	var s Sum
	s.AddInt(math.MaxInt64)
	s.AddInt(math.MaxInt64)
	if _, err := s.Value(); err == nil {
		t.Fatal("2 × MaxInt64 read as an int")
	}
	s.AddInt(-math.MaxInt64)
	if v, err := s.Value(); err != nil || v.AsInt() != math.MaxInt64 {
		t.Fatalf("back to MaxInt64: %v, %v", v, err)
	}
	// An int total read as a float is rounded once, wraps included.
	s.AddInt(math.MaxInt64)
	if got := s.Float(); got != 0x1p64 {
		t.Fatalf("2 × MaxInt64 as a float: %v", got)
	}

	// A NaN and an infinity added and then subtracted leave the finite
	// part, which they never touched.
	var x, d Sum
	x.AddFloat(2.5)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x.AddFloat(v)
		d.AddFloat(v)
	}
	x.Sub(&d)
	if got := x.Float(); got != 2.5 {
		t.Fatalf("after taking NaN and ±Inf back: %v", got)
	}

	// A total whose digits are due a carry pass adds on exactly: the pass
	// runs before the next addition, and before a merge that would pass
	// the bound.
	var due, more Sum
	due.AddFloat(-1e16)
	due.AddFloat(0.75)
	due.f.adds = carryEvery
	due.AddFloat(1e16)
	more.AddFloat(0.25)
	more.f.adds = carryEvery
	due.Merge(&more)
	if got := due.Float(); got != 1 {
		t.Fatalf("across carry passes: %v, want 1", got)
	}

	// A clone shares nothing: the original goes on unchanged.
	c := x.Clone()
	c.AddFloat(1)
	if x.Float() != 2.5 || c.Float() != 3.5 {
		t.Fatalf("clone: %v and %v", x.Float(), c.Float())
	}
}

// TestSubtractingACellTakesItBackOut: adding a cell to a total and then
// subtracting it (SubInt, SubFloat) leaves the total bit for bit what it
// was, read as a Value and as a Float, over an int, a float and a
// non-finite base: MinInt64, whose negation int64 cannot hold, and a
// NaN or an infinity, which a negated cell would count once more rather
// than take back out.
func TestSubtractingACellTakesItBackOut(t *testing.T) {
	bases := []struct {
		name string
		add  func(*Sum)
	}{
		{"int 7", func(s *Sum) { s.AddInt(7) }},
		{"int MinInt64", func(s *Sum) { s.AddInt(math.MinInt64) }},
		{"float 0.5 and 1", func(s *Sum) { s.AddFloat(0.5); s.AddFloat(1) }},
		{"float 1e16 and 3", func(s *Sum) { s.AddFloat(1e16); s.AddInt(3) }},
		{"+Inf", func(s *Sum) { s.AddFloat(math.Inf(1)) }},
	}
	cells := []Value{Int(math.MinInt64), Int(math.MaxInt64), Float(math.NaN()), Float(math.Inf(1)),
		Float(math.Inf(-1)), Float(math.Copysign(0, -1)), Float(1e16), Float(0.5), Float(1)}
	for _, b := range bases {
		for _, c := range cells {
			var want, got Sum
			b.add(&want)
			b.add(&got)
			if c.Kind() == KindInt {
				got.AddInt(c.AsInt())
				got.SubInt(c.AsInt())
			} else {
				// A float cell makes the total float: so does the float
				// part it leaves behind, empty.
				want.float()
				got.AddFloat(c.AsFloat())
				got.SubFloat(c.AsFloat())
			}
			wv, werr := want.Value()
			gv, gerr := got.Value()
			if !sameResult(gv, gerr, wv, werr) || math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
				t.Errorf("%s, %v added and subtracted: %v (%v) and %#x, want %v (%v) and %#x", b.name, c,
					gv, gerr, math.Float64bits(got.Float()), wv, werr, math.Float64bits(want.Float()))
			}
		}
	}
}

// FuzzSum holds Sum to math/big: the fuzzed bytes are a sequence of
// addends (a tag byte, then 8 bytes: an int, a float's bits, or either
// subtracted), and the total, and the merge of the totals of its two
// halves, must round as the exact sum does.
func FuzzSum(f *testing.F) {
	seed := func(tags []byte, xs ...uint64) []byte {
		var b []byte
		for i, x := range xs {
			b = binary.LittleEndian.AppendUint64(append(b, tags[i]), x)
		}
		return b
	}
	f.Add(seed([]byte{1, 1, 1}, math.Float64bits(1e16), math.Float64bits(1), math.Float64bits(1)))
	f.Add(seed([]byte{0, 0, 2}, math.MaxInt64, math.MaxInt64, math.MaxInt64))
	f.Add(seed([]byte{1, 1, 3}, math.Float64bits(math.NaN()), math.Float64bits(1.5), math.Float64bits(math.NaN())))
	f.Add(seed([]byte{1, 1, 3}, math.Float64bits(math.MaxFloat64), 1, math.Float64bits(math.MaxFloat64)))
	f.Fuzz(func(t *testing.T, b []byte) {
		var as []addend
		for ; len(b) >= 9; b = b[9:] {
			x := binary.LittleEndian.Uint64(b[1:])
			a := addend{neg: b[0]&2 != 0}
			if b[0]&1 == 0 {
				a.v = Int(int64(x))
			} else {
				a.v = Float(math.Float64frombits(x))
			}
			as = append(as, a)
		}
		want, werr := refSum(as)
		s := fold(as)
		if got, err := s.Value(); !sameResult(got, err, want, werr) {
			t.Fatalf("%v: got %v (%v), want %v (%v)", as, got, err, want, werr)
		}
		h := len(as) / 2
		x, y := fold(as[:h]), fold(as[h:])
		x.Merge(&y)
		if got, err := x.Value(); !sameResult(got, err, want, werr) {
			t.Fatalf("%v merged at %d: got %v (%v), want %v (%v)", as, h, got, err, want, werr)
		}
	})
}
