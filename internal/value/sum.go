package value

import (
	"math"
	"math/bits"
)

// Sum is the exact total of any int64 and float64 addends, rounded once
// when read: the one accumulator of a SUM or an AVG, in the engine's fold
// and merge and in the maintainer's group state. The zero Sum is the int
// total 0.
//
// The int addends are kept as lo plus wraps times 2^64, lo the low word
// (wrapping) and wraps the signed count of 2^64 wraps that took it there,
// as value.AddWide counts them. The float addends live in a small
// superaccumulator (Neal, "Fast exact summation using small and large
// superaccumulators", arXiv:1505.05571), allocated on the first float
// added: the finite ones as one fixed-point integer cut into 32-bit
// digits, each held in an int64 so that many additions pass before a
// carry must propagate, and NaN, +Inf and -Inf as counts beside it, so
// subtracting one takes it back out. Adding, merging and subtracting are
// exact; Value and Float round once.
type Sum struct {
	lo, wraps int64
	f         *floatSum // nil until a float is added
}

// floatSum is a Sum's float part. The finite addends total
// Σ digit[i]·2^(32i-1074): digit 0's unit is the least subnormal, and
// the 66 digits reach past the greatest finite float with room for
// carries. adds bounds every digit below the top one by adds·2^32, so a
// carry pass (carry) is due only when adds reaches carryEvery.
type floatSum struct {
	digit           [sumDigits]int64
	adds            int64
	nan, pinf, ninf int64
}

const (
	// sumDigits covers bit positions 0 to 2111 over 2^-1074: a finite
	// float's top bit sits at most at 2097, and the top digit is signed
	// and 64 bits wide.
	sumDigits  = 66
	carryEvery = 1 << 30
	// intPos is the bit position of 2^0: where the int addends go when a
	// total is rounded.
	intPos = 1074
	digit  = 1<<32 - 1
)

// floatSumBytes is the size of a Sum's float part, which a float total
// allocates once.
const floatSumBytes = (sumDigits + 4) * 8

// AddInt adds the int x exactly.
func (s *Sum) AddInt(x int64) {
	var k int64
	s.lo, k = AddWide(s.lo, x)
	s.wraps += k
}

// SubInt subtracts the int x exactly, MinInt64 too: -x is never formed.
func (s *Sum) SubInt(x int64) {
	var k int64
	s.lo, k = SubWide(s.lo, x)
	s.wraps += k
}

// AddFloat adds the float x exactly: a finite x into the digits, a NaN
// or an infinity into its count.
func (s *Sum) AddFloat(x float64) { s.addFloat(x, 1) }

// SubFloat subtracts the float x exactly: a finite x from the digits, a
// NaN or an infinity from its own count, which a negated x would not do
// (-NaN is a NaN, and -Inf counts apart from +Inf).
func (s *Sum) SubFloat(x float64) { s.addFloat(x, -1) }

// addFloat adds x to s once for sign 1, or subtracts it for sign -1.
func (s *Sum) addFloat(x float64, sign int64) {
	f := s.f
	if f == nil {
		f = s.float()
	}
	b := math.Float64bits(x)
	e := uint(b>>52) & 0x7ff
	m := b & (1<<52 - 1)
	switch {
	case e == 0x7ff:
		f.addNonFinite(b, sign)
		return
	case e == 0:
		e = 1 // a subnormal: the least exponent, no implicit bit
	default:
		m |= 1 << 52
	}
	if f.adds == carryEvery {
		f.carry()
	}
	f.adds++
	f.addBits(int(e-1), m, b>>63 != 0 != (sign < 0))
}

// addNonFinite adds sign to the count of the NaN or infinity whose bits
// are b.
func (f *floatSum) addNonFinite(b uint64, sign int64) {
	switch {
	case b&(1<<52-1) != 0:
		f.nan += sign
	case b>>63 == 0:
		f.pinf += sign
	default:
		f.ninf += sign
	}
}

// Merge adds the total o to s exactly.
func (s *Sum) Merge(o *Sum) { s.merge(o, 1) }

// Sub subtracts the total o from s exactly: each NaN or infinity o holds
// leaves s's counts, whatever s's finite part.
func (s *Sum) Sub(o *Sum) { s.merge(o, -1) }

func (s *Sum) merge(o *Sum, sign int64) {
	var k int64
	if sign > 0 {
		s.lo, k = AddWide(s.lo, o.lo)
	} else {
		s.lo, k = SubWide(s.lo, o.lo)
	}
	s.wraps += k + sign*o.wraps
	if o.f == nil {
		return
	}
	f, of := s.float(), o.f
	if f.adds+of.adds > carryEvery {
		f.carry()
	}
	f.adds += of.adds
	for i, d := range of.digit {
		f.digit[i] += sign * d
	}
	f.nan += sign * of.nan
	f.pinf += sign * of.pinf
	f.ninf += sign * of.ninf
}

// float returns s's float part, allocating it on first use.
func (s *Sum) float() *floatSum {
	if s.f == nil {
		s.f = new(floatSum)
	}
	return s.f
}

// Clone returns a copy of s that shares no storage with it.
func (s *Sum) Clone() Sum {
	c := *s
	if c.f != nil {
		f := *c.f
		c.f = &f
	}
	return c
}

// Reset empties s for reuse, keeping its float part's storage: a float
// total stays a float total, now 0.
func (s *Sum) Reset() {
	s.lo, s.wraps = 0, 0
	if s.f != nil {
		*s.f = floatSum{}
	}
}

// Bytes is the storage s holds beyond its own three words: what a memory
// budget charges for a float total.
func (s *Sum) Bytes() int64 {
	if s.f == nil {
		return 0
	}
	return floatSumBytes
}

// Value rounds the total once: an all-int total is an Int when int64
// holds it and a *OverflowError when it does not; any other is
// Float(s.Float()).
func (s *Sum) Value() (Value, error) {
	if s.f != nil {
		return Float(s.Float()), nil
	}
	if s.wraps != 0 {
		return Value{}, &OverflowError{Op: '+'}
	}
	return Int(s.lo), nil
}

// Float returns the total correctly rounded to a float64, ties to even,
// in canonical form (CanonFloat): 0 is +0, and the total is NaN when a
// NaN was added, or both infinities were; otherwise an infinity added
// makes it that infinity, and a finite total past the float range rounds
// to ±Inf.
func (s *Sum) Float() float64 {
	var t floatSum
	if f := s.f; f != nil {
		switch {
		case f.nan > 0 || f.pinf > 0 && f.ninf > 0:
			return math.NaN()
		case f.pinf > 0:
			return math.Inf(1)
		case f.ninf > 0:
			return math.Inf(-1)
		}
		t.digit = f.digit
	}
	t.addInt(intPos, s.lo)
	t.addInt(intPos+64, s.wraps)
	return t.round()
}

// addBits adds (or, when neg, subtracts) m·2^pos to the digits: m shifted
// into place spans three digits.
func (f *floatSum) addBits(pos int, m uint64, neg bool) {
	sh := uint(pos & 31)
	lo, hi := m<<sh, m>>(64-sh) // m·2^sh in 128 bits; sh = 0 leaves hi 0
	d0, d1, d2 := int64(lo&digit), int64(lo>>32), int64(hi)
	if neg {
		d0, d1, d2 = -d0, -d1, -d2
	}
	d := f.digit[pos>>5 : pos>>5+3 : pos>>5+3]
	d[0] += d0
	d[1] += d1
	d[2] += d2
}

// addInt adds x·2^pos to the digits.
func (f *floatSum) addInt(pos int, x int64) {
	if x < 0 {
		f.addBits(pos, -uint64(x), true)
	} else {
		f.addBits(pos, uint64(x), false)
	}
}

// carry propagates carries upwards, leaving every digit but the top one
// in [0, 2^32): the top one holds the sign.
func (f *floatSum) carry() {
	for i := range sumDigits - 1 {
		c := f.digit[i] >> 32
		f.digit[i] -= c << 32
		f.digit[i+1] += c
	}
	f.adds = 1
}

// round returns the finite digits' total correctly rounded to a float64,
// ties to even, 0 as +0.
func (f *floatSum) round() float64 {
	f.carry()
	neg := f.digit[sumDigits-1] < 0
	if neg {
		for i := range f.digit {
			f.digit[i] = -f.digit[i]
		}
		f.carry()
	}
	h := sumDigits - 1
	for h >= 0 && f.digit[h] == 0 {
		h--
	}
	if h < 0 {
		return 0
	}
	// n is the total over 2^-1074, a natural number of n bits.
	n := 32*h + bits.Len64(uint64(f.digit[h]))
	var r float64
	if n <= 53 {
		// Exact: n fits a float64's significand, and so does every
		// subnormal.
		r = math.Ldexp(float64(uint64(f.digit[0])|uint64(f.digit[1])<<32), -intPos)
	} else {
		// Keep the top 53 bits, then round on the next bit and whether any
		// lower one is set. The result is at least 2^-1021, a normal
		// float, so Ldexp scales it exactly (or overflows to ±Inf, as
		// rounding to nearest does past the greatest finite float).
		sh := n - 53
		var m uint64
		for b := n - 1; b >= sh; b-- {
			m = m<<1 | f.bit(b)
		}
		if f.bit(sh-1) == 1 && (m&1 == 1 || f.anyBelow(sh-1)) {
			if m++; m == 1<<53 {
				m, sh = m>>1, sh+1
			}
		}
		r = math.Ldexp(float64(m), sh-intPos)
	}
	if neg {
		return -r
	}
	return r
}

// bit returns bit b of the carried, non-negative digits.
func (f *floatSum) bit(b int) uint64 {
	i := min(b>>5, sumDigits-1)
	return uint64(f.digit[i]) >> uint(b-32*i) & 1
}

// anyBelow reports whether any bit below b is set.
func (f *floatSum) anyBelow(b int) bool {
	i := min(b>>5, sumDigits-1)
	for _, d := range f.digit[:i] {
		if d != 0 {
			return true
		}
	}
	return uint64(f.digit[i])&(1<<uint(b-32*i)-1) != 0
}
