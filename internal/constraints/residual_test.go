package constraints

import (
	"math"
	"math/rand"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// residualByClosure is Residual as it reads with no literal decisions:
// one closure to verify the candidate and one per atom to minimize it.
// It is the reference TestResidualMatchesClosureReference holds
// Residual to.
func residualByClosure(tc *Closure, given Conj, allowed func(Var) bool) (Conj, bool) {
	target := tc.conj
	if !tc.Sat() {
		falseAtom := Atom{Op: ir.OpLt, L: C(value.Int(0)), R: C(value.Int(0))}
		return Conj{falseAtom}, true
	}
	if !tc.ImpliesAll(given) {
		return nil, false
	}
	atoms := tc.Atoms()
	candidate := make(Conj, 0, len(atoms))
	for _, a := range atoms {
		ok := true
		for _, t := range [2]Term{a.L, a.R} {
			if !t.IsConst && !allowed(t.V) {
				ok = false
			}
		}
		if ok {
			candidate = append(candidate, a)
		}
	}
	combined := make(Conj, 0, len(given)+len(candidate))
	combined = append(append(combined, given...), candidate...)
	if !ImpliesAll(combined, target) {
		return nil, false
	}
	out := candidate
	for i := 0; i < len(out); {
		trial := append(append(combined[:len(given)], out[:i]...), out[i+1:]...)
		if Close(trial).Implies(out[i]) {
			out = append(out[:i], out[i+1:]...)
		} else {
			i++
		}
	}
	return out, true
}

// residualConsts is the constant pool of the residual property test:
// ints, floats equal to ints, a float between them, NaN, -0, ±Inf, ints
// on both sides of 2^53 and the float equal to one of them, a string.
var residualConsts = []value.Value{
	value.Int(0), value.Int(1), value.Int(2), value.Int(3),
	value.Float(1), value.Float(0.5), value.Float(math.NaN()), value.Float(math.Copysign(0, -1)),
	value.Int(1 << 53), value.Int(1<<53 + 1), value.Float(1 << 53), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
	value.Str("a"),
}

// randomResidualCase draws a target, a given conjunction and an allowed
// set. Targets mix pins, equalities, orders and disequalities, with
// tautologies (x = x, x <= x) and repeated atoms; given is empty, a
// subset of the target or of its closure's atoms, random atoms (which
// the target rarely entails), or a mix, again with tautologies and
// repeats.
func randomResidualCase(r *rand.Rand) (target, given Conj, allowed []bool) {
	const nVars = 5
	ops := []ir.Op{ir.OpEq, ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq}
	term := func(constShare int) Term {
		if r.Intn(10) < constShare {
			return C(residualConsts[r.Intn(len(residualConsts))])
		}
		return V(Var(r.Intn(nVars)))
	}
	randomAtom := func() Atom {
		return Atom{Op: ops[r.Intn(len(ops))], L: term(1), R: term(4)}
	}
	extras := func(c Conj) Conj {
		if len(c) > 0 && r.Intn(4) == 0 {
			c = append(c, c[r.Intn(len(c))])
		}
		if r.Intn(5) == 0 {
			x := V(Var(r.Intn(nVars)))
			c = append(c, Atom{Op: []ir.Op{ir.OpEq, ir.OpLeq, ir.OpGeq}[r.Intn(3)], L: x, R: x})
		}
		return c
	}
	for i, n := 0, 1+r.Intn(5); i < n; i++ {
		target = append(target, randomAtom())
	}
	target = extras(target)
	subset := func(c Conj) Conj {
		var out Conj
		for _, a := range c {
			if r.Intn(2) == 0 {
				out = append(out, a)
			}
		}
		return out
	}
	switch r.Intn(5) {
	case 0: // empty
	case 1:
		given = subset(target)
	case 2:
		given = subset(Close(target).Atoms())
	case 3:
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			given = append(given, randomAtom())
		}
	default:
		given = append(subset(target), subset(Close(target).Atoms())...)
		if r.Intn(3) == 0 {
			given = append(given, randomAtom())
		}
	}
	given = extras(given)
	allowed = make([]bool, nVars)
	for v := range allowed {
		allowed[v] = r.Intn(3) > 0
	}
	return target, given, allowed
}

// sameConj reports whether two residuals are identical: both nil or
// neither, and atom for atom the same operator, variables and constants
// of the same kind and rendering.
func sameConj(a, b Conj) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || !identicalTerm(a[i].L, b[i].L) || !identicalTerm(a[i].R, b[i].R) {
			return false
		}
	}
	return true
}

func identicalTerm(s, t Term) bool {
	if s.IsConst != t.IsConst {
		return false
	}
	if !s.IsConst {
		return s.V == t.V
	}
	return s.C.Kind() == t.C.Kind() && s.C.String() == t.C.String()
}

// TestResidualMatchesClosureReference holds Residual to the
// closure-only reference on seeded random cases: the same residual, atom
// for atom, and the same verdict. It also checks the cases reach both
// verdicts and the literal decisions on both sides.
func TestResidualMatchesClosureReference(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	const cases = 12000
	var found, refused, emptyGiven int
	for i := 0; i < cases; i++ {
		target, given, allowed := randomResidualCase(r)
		allow := func(v Var) bool { return allowed[v] }
		tc := Close(target)
		want, wantOK := residualByClosure(tc, append(Conj{}, given...), allow)
		got, gotOK := Residual(tc, append(Conj{}, given...), allow)
		if gotOK != wantOK || !sameConj(got, want) {
			t.Fatalf("case %d: target %s, given %s, allowed %v:\n Residual  %s, %v\n reference %s, %v",
				i, target, given, allowed, got, gotOK, want, wantOK)
		}
		if gotOK {
			found++
		} else {
			refused++
		}
		if len(given) == 0 {
			emptyGiven++
		}
	}
	t.Logf("%d cases: %d residuals, %d refusals, %d with empty given", cases, found, refused, emptyGiven)
	if found < cases/10 || refused < cases/10 || emptyGiven < cases/10 {
		t.Fatalf("cases too one-sided: %d residuals, %d refusals, %d with empty given", found, refused, emptyGiven)
	}
}
