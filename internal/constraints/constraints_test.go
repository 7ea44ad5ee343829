package constraints

import (
	"math/rand"
	"slices"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// atom is a test shorthand.
func atom(l Term, op ir.Op, r Term) Atom { return Atom{Op: op, L: l, R: r} }

func vi(v int) Term       { return V(Var(v)) }
func ci(n int64) Term     { return C(value.Int(n)) }
func cs(s string) Term    { return C(value.Str(s)) }
func eq(l, r Term) Atom   { return atom(l, ir.OpEq, r) }
func neqA(l, r Term) Atom { return atom(l, ir.OpNeq, r) }
func lt(l, r Term) Atom   { return atom(l, ir.OpLt, r) }
func leq(l, r Term) Atom  { return atom(l, ir.OpLeq, r) }
func gt(l, r Term) Atom   { return atom(l, ir.OpGt, r) }
func geqA(l, r Term) Atom { return atom(l, ir.OpGeq, r) }

func TestSatisfiabilityBasics(t *testing.T) {
	cases := []struct {
		name string
		c    Conj
		sat  bool
	}{
		{"empty", Conj{}, true},
		{"x=1", Conj{eq(vi(0), ci(1))}, true},
		{"x=1,x=2", Conj{eq(vi(0), ci(1)), eq(vi(0), ci(2))}, false},
		{"x=1,x=1.0", Conj{eq(vi(0), ci(1)), eq(vi(0), C(value.Float(1)))}, true},
		{"x<y,y<x", Conj{lt(vi(0), vi(1)), lt(vi(1), vi(0))}, false},
		{"x<=y,y<=x", Conj{leq(vi(0), vi(1)), leq(vi(1), vi(0))}, true},
		{"x<=y,y<=x,x<>y", Conj{leq(vi(0), vi(1)), leq(vi(1), vi(0)), neqA(vi(0), vi(1))}, false},
		{"x<x", Conj{lt(vi(0), vi(0))}, false},
		{"x<>x", Conj{neqA(vi(0), vi(0))}, false},
		{"x<y,y<z,z<x", Conj{lt(vi(0), vi(1)), lt(vi(1), vi(2)), lt(vi(2), vi(0))}, false},
		{"x<=y,y<=z,z<=x eq-cycle", Conj{leq(vi(0), vi(1)), leq(vi(1), vi(2)), leq(vi(2), vi(0))}, true},
		{"cycle with neq", Conj{leq(vi(0), vi(1)), leq(vi(1), vi(2)), leq(vi(2), vi(0)), neqA(vi(0), vi(2))}, false},
		{"x>5,x<3", Conj{gt(vi(0), ci(5)), lt(vi(0), ci(3))}, false},
		{"x>=5,x<=5", Conj{geqA(vi(0), ci(5)), leq(vi(0), ci(5))}, true},
		{"x>=5,x<=5,x<>5", Conj{geqA(vi(0), ci(5)), leq(vi(0), ci(5)), neqA(vi(0), ci(5))}, false},
		{"x='a',x='b'", Conj{eq(vi(0), cs("a")), eq(vi(0), cs("b"))}, false},
		{"x='a',y='b',x=y", Conj{eq(vi(0), cs("a")), eq(vi(1), cs("b")), eq(vi(0), vi(1))}, false},
		{"x=1,x='a'", Conj{eq(vi(0), ci(1)), eq(vi(0), cs("a"))}, false},
		{"strings ordered", Conj{eq(vi(0), cs("a")), lt(vi(0), cs("b"))}, true},
		{"strings misordered", Conj{eq(vi(0), cs("b")), lt(vi(0), cs("a"))}, false},
		{"1<2 const fact", Conj{leq(vi(0), ci(1)), geqA(vi(1), ci(2)), eq(vi(0), vi(1))}, false},
	}
	for _, tc := range cases {
		if got := Satisfiable(tc.c); got != tc.sat {
			t.Errorf("%s: Satisfiable=%v, want %v", tc.name, got, tc.sat)
		}
	}
}

func TestImpliesBasics(t *testing.T) {
	cases := []struct {
		name string
		c    Conj
		a    Atom
		want bool
	}{
		{"refl eq", Conj{}, eq(vi(0), vi(0)), true},
		{"refl leq", Conj{}, leq(vi(0), vi(0)), true},
		{"refl lt", Conj{}, lt(vi(0), vi(0)), false},
		{"eq sym", Conj{eq(vi(0), vi(1))}, eq(vi(1), vi(0)), true},
		{"eq trans", Conj{eq(vi(0), vi(1)), eq(vi(1), vi(2))}, eq(vi(0), vi(2)), true},
		{"order trans", Conj{lt(vi(0), vi(1)), leq(vi(1), vi(2))}, lt(vi(0), vi(2)), true},
		{"order not conv", Conj{leq(vi(0), vi(1)), leq(vi(1), vi(2))}, lt(vi(0), vi(2)), false},
		{"lt implies leq", Conj{lt(vi(0), vi(1))}, leq(vi(0), vi(1)), true},
		{"lt implies neq", Conj{lt(vi(0), vi(1))}, neqA(vi(0), vi(1)), true},
		{"lt implies neq flipped", Conj{lt(vi(0), vi(1))}, neqA(vi(1), vi(0)), true},
		{"pin implies bound", Conj{eq(vi(0), ci(5))}, lt(vi(0), ci(7)), true},
		{"pin implies neq const", Conj{eq(vi(0), ci(5))}, neqA(vi(0), ci(3)), true},
		{"unseen const bound", Conj{gt(vi(0), ci(5))}, gt(vi(0), ci(3)), true},
		{"unseen const bound strict edge", Conj{geqA(vi(0), ci(5))}, gt(vi(0), ci(3)), true},
		{"unseen const equal edge", Conj{geqA(vi(0), ci(5))}, geqA(vi(0), ci(5)), true},
		{"not implied", Conj{geqA(vi(0), ci(5))}, gt(vi(0), ci(5)), false},
		{"neq via distinct pins", Conj{eq(vi(0), ci(1)), eq(vi(1), ci(2))}, neqA(vi(0), vi(1)), true},
		{"neq via incomparable pins", Conj{eq(vi(0), ci(1)), eq(vi(1), cs("a"))}, neqA(vi(0), vi(1)), true},
		{"bounds squeeze to eq", Conj{leq(vi(0), ci(5)), geqA(vi(0), ci(5))}, eq(vi(0), ci(5)), true},
		{"squeeze via var", Conj{leq(vi(0), vi(1)), leq(vi(1), vi(0))}, eq(vi(0), vi(1)), true},
		{"neq strengthens", Conj{leq(vi(0), vi(1)), neqA(vi(0), vi(1))}, lt(vi(0), vi(1)), true},
		{"unsat implies anything", Conj{lt(vi(0), vi(0))}, eq(vi(5), ci(9)), true},
		{"chain with consts", Conj{leq(vi(0), ci(3)), leq(ci(3), vi(1))}, leq(vi(0), vi(1)), true},
		{"unrelated", Conj{eq(vi(0), ci(1))}, eq(vi(1), ci(1)), false},
	}
	for _, tc := range cases {
		if got := Implies(tc.c, tc.a); got != tc.want {
			t.Errorf("%s: Implies(%s, %s)=%v, want %v", tc.name, tc.c, tc.a, got, tc.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	// Example 3.1 of the paper: (A=C & B=6 & D=6) equivalent to
	// ((A=C & B=D) & D=6).
	a, b, c, d := vi(0), vi(1), vi(2), vi(3)
	lhs := Conj{eq(a, c), eq(b, ci(6)), eq(d, ci(6))}
	rhs := Conj{eq(a, c), eq(b, d), eq(d, ci(6))}
	if !Equivalent(lhs, rhs) {
		t.Error("Example 3.1 equivalence not detected")
	}
	if Equivalent(lhs, Conj{eq(a, c)}) {
		t.Error("non-equivalent conjunctions reported equivalent")
	}
	if !Equivalent(Conj{}, Conj{leq(a, a)}) {
		t.Error("tautology equals empty")
	}
}

func TestResidualExample31(t *testing.T) {
	// Conds(Q): A1=C1 & B1=6 & D1=6; sigma(Conds(V)): A1=C1 & B1=D1.
	// The residual over {D1 and view outputs} is D1=6.
	a, b, c, d := vi(0), vi(1), vi(2), vi(3)
	target := Conj{eq(a, c), eq(b, ci(6)), eq(d, ci(6))}
	given := Conj{eq(a, c), eq(b, d)}
	// Allowed: only C and D survive the view's projection (Sel(V)={C,D}).
	allowed := func(v Var) bool { return v == 2 || v == 3 }
	res, ok := Residual(Close(target), given, allowed)
	if !ok {
		t.Fatal("residual should exist")
	}
	// given & res must be equivalent to target.
	if !Equivalent(append(append(Conj{}, given...), res...), target) {
		t.Errorf("residual %s does not reconstruct target", res)
	}
	for _, at := range res {
		for _, tm := range []Term{at.L, at.R} {
			if !tm.IsConst && !allowed(tm.V) {
				t.Errorf("residual uses disallowed variable: %s", at)
			}
		}
	}
}

func TestResidualFailsWhenViewTooStrict(t *testing.T) {
	// View enforces B=7 but query needs B=6: no residual.
	b := vi(1)
	target := Conj{eq(b, ci(6))}
	given := Conj{eq(b, ci(7))}
	if _, ok := Residual(Close(target), given, func(Var) bool { return true }); ok {
		t.Error("residual should not exist when the view filters needed tuples")
	}
}

func TestResidualFailsWhenColumnProjectedOut(t *testing.T) {
	// Query constrains B, the view projects B out and does not enforce it.
	b := vi(1)
	target := Conj{eq(b, ci(6))}
	given := Conj{}
	if _, ok := Residual(Close(target), given, func(v Var) bool { return v != 1 }); ok {
		t.Error("residual over allowed vars cannot express B=6")
	}
}

func TestResidualEqualityChainThroughView(t *testing.T) {
	// Query: A=B & B=5. View enforces A=B and exports A only.
	// Residual must express B=5 as A=5 via the equality.
	a, b := vi(0), vi(1)
	target := Conj{eq(a, b), eq(b, ci(5))}
	given := Conj{eq(a, b)}
	res, ok := Residual(Close(target), given, func(v Var) bool { return v == 0 })
	if !ok {
		t.Fatal("residual should exist via A=5")
	}
	if !Equivalent(append(append(Conj{}, given...), res...), target) {
		t.Errorf("residual %s wrong", res)
	}
}

func TestResidualUnsatTarget(t *testing.T) {
	target := Conj{lt(vi(0), vi(0))}
	res, ok := Residual(Close(target), Conj{}, func(Var) bool { return false })
	if !ok {
		t.Fatal("unsat target should admit a trivially false residual")
	}
	if Satisfiable(append(Conj{}, res...)) {
		t.Error("residual for unsat target should be unsatisfiable")
	}
}

func TestResidualMinimization(t *testing.T) {
	// target: A=B & B=C. given: A=B. residual should be a single atom.
	a, b, c := vi(0), vi(1), vi(2)
	target := Conj{eq(a, b), eq(b, c)}
	res, ok := Residual(Close(target), Conj{eq(a, b)}, func(Var) bool { return true })
	if !ok {
		t.Fatal("residual should exist")
	}
	if len(res) != 1 {
		t.Errorf("residual not minimized: %s", res)
	}
}

func TestAtomsSoundness(t *testing.T) {
	c := Conj{eq(vi(0), vi(1)), lt(vi(1), vi(2)), leq(vi(2), ci(10)), neqA(vi(0), ci(0))}
	cl := Close(c)
	if !cl.Sat() {
		t.Fatal("should be satisfiable")
	}
	for _, a := range cl.Atoms() {
		if !Implies(c, a) {
			t.Errorf("Atoms() emitted non-entailed atom %s", a)
		}
	}
}

func TestAtomsOfUnsat(t *testing.T) {
	cl := Close(Conj{lt(vi(0), vi(0))})
	atoms := cl.Atoms()
	if Satisfiable(atoms) {
		t.Error("Atoms of an unsat closure should be unsatisfiable")
	}
}

// TestVarsSorted: Close lists the variables it mentions once each, in
// order, since node finds a variable's node by binary search.
func TestVarsSorted(t *testing.T) {
	cl := Close(Conj{eq(vi(5), vi(1)), lt(vi(3), ci(0)), eq(vi(1), vi(3))})
	if want := []Var{1, 3, 5}; !slices.Equal(cl.vars, want) {
		t.Fatalf("vars = %v, want %v", cl.vars, want)
	}
}

func TestStringRendering(t *testing.T) {
	c := Conj{eq(vi(0), ci(1))}
	if got := c.String(); got != "v0 = 1" {
		t.Errorf("Conj.String() = %q", got)
	}
	if got := (Conj{}).String(); got != "TRUE" {
		t.Errorf("empty Conj.String() = %q", got)
	}
}

// ---- randomized soundness / completeness probes ----

// randomConj builds a random conjunction over nVars variables with small
// integer constants.
func randomConj(r *rand.Rand, nVars, nAtoms int) Conj {
	term := func() Term {
		if r.Intn(3) == 0 {
			return ci(int64(r.Intn(5)))
		}
		return vi(r.Intn(nVars))
	}
	ops := []ir.Op{ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq}
	c := make(Conj, nAtoms)
	for i := range c {
		c[i] = Atom{Op: ops[r.Intn(len(ops))], L: term(), R: term()}
	}
	return c
}

// evalAtom evaluates an atom under an assignment (floats).
func evalAtom(a Atom, asg map[Var]float64) bool {
	val := func(t Term) float64 {
		if t.IsConst {
			return t.C.AsFloat()
		}
		return asg[t.V]
	}
	l, r := val(a.L), val(a.R)
	switch a.Op {
	case ir.OpEq:
		return l == r
	case ir.OpNeq:
		return l != r
	case ir.OpLt:
		return l < r
	case ir.OpLeq:
		return l <= r
	case ir.OpGt:
		return l > r
	case ir.OpGeq:
		return l >= r
	}
	return false
}

// TestRandomSoundness: any assignment satisfying a conjunction must
// satisfy every atom the closure claims is implied.
func TestRandomSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const nVars = 4
	for trial := 0; trial < 400; trial++ {
		c := randomConj(r, nVars, 1+r.Intn(4))
		cl := Close(c)
		// Random assignments over a small grid (including halves so strict
		// inequalities can be separated).
		for probe := 0; probe < 200; probe++ {
			asg := map[Var]float64{}
			for v := 0; v < nVars; v++ {
				asg[Var(v)] = float64(r.Intn(11)) / 2.0
			}
			holds := true
			for _, a := range c {
				if !evalAtom(a, asg) {
					holds = false
					break
				}
			}
			if !holds {
				continue
			}
			// The conjunction has a model, so it must be satisfiable.
			if !cl.Sat() {
				t.Fatalf("conjunction %s has model %v but closure says unsat", c, asg)
			}
			// Every implied atom must hold in the model.
			for _, a := range cl.Atoms() {
				if !evalAtom(a, asg) {
					t.Fatalf("closure of %s claims %s but model %v violates it", c, a, asg)
				}
			}
		}
	}
}

// TestRandomImpliesSound: Implies(c, a) means every model of c satisfies a.
func TestRandomImpliesSound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const nVars = 3
	for trial := 0; trial < 400; trial++ {
		c := randomConj(r, nVars, 1+r.Intn(3))
		probeAtoms := randomConj(r, nVars, 3)
		cl := Close(c)
		for _, a := range probeAtoms {
			if !cl.Implies(a) {
				continue
			}
			for probe := 0; probe < 150; probe++ {
				asg := map[Var]float64{}
				for v := 0; v < nVars; v++ {
					asg[Var(v)] = float64(r.Intn(9)) / 2.0
				}
				holds := true
				for _, at := range c {
					if !evalAtom(at, asg) {
						holds = false
						break
					}
				}
				if holds && !evalAtom(a, asg) {
					t.Fatalf("Implies(%s, %s) but model %v is a counterexample", c, a, asg)
				}
			}
		}
	}
}

// TestRandomResidualSound: whenever a residual is found, given AND
// residual must be equivalent to target.
func TestRandomResidualSound(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const nVars = 4
	for trial := 0; trial < 300; trial++ {
		target := randomConj(r, nVars, 1+r.Intn(4))
		if !Satisfiable(target) {
			continue
		}
		// given: a random subset of target's atoms.
		var given Conj
		for _, a := range target {
			if r.Intn(2) == 0 {
				given = append(given, a)
			}
		}
		allowedSet := map[Var]bool{}
		for v := 0; v < nVars; v++ {
			if r.Intn(2) == 0 {
				allowedSet[Var(v)] = true
			}
		}
		res, ok := Residual(Close(target), given, func(v Var) bool { return allowedSet[v] })
		if !ok {
			continue
		}
		combined := append(append(Conj{}, given...), res...)
		if !Equivalent(combined, target) {
			t.Fatalf("residual unsound:\n target=%s\n given=%s\n res=%s", target, given, res)
		}
		for _, a := range res {
			for _, tm := range []Term{a.L, a.R} {
				if !tm.IsConst && !allowedSet[tm.V] {
					t.Fatalf("residual %s uses disallowed var", res)
				}
			}
		}
	}
}
