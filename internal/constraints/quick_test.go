package constraints

// testing/quick properties over the constraint engine's algebraic laws.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// conjFromSeed derives a small conjunction deterministically from quick's
// generated values.
func conjFromSeed(seed uint64, nAtoms uint8) Conj {
	s := seed*2654435761 + 97
	next := func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
	ops := []ir.Op{ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq}
	n := int(nAtoms%6) + 1
	c := make(Conj, 0, n)
	for i := 0; i < n; i++ {
		l := V(Var(next(4)))
		var r Term
		if next(3) == 0 {
			r = C(value.Int(int64(next(4))))
		} else {
			r = V(Var(next(4)))
		}
		c = append(c, Atom{Op: ops[next(len(ops))], L: l, R: r})
	}
	return c
}

// Property: every atom of the original conjunction is implied by its
// own closure (extensivity).
func TestQuickClosureExtensive(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		c := conjFromSeed(seed, n)
		cl := Close(c)
		for _, a := range c {
			if !cl.Implies(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Implies is monotone — adding atoms never loses entailments.
func TestQuickImpliesMonotone(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		c := conjFromSeed(seed, n)
		probe := Atom{Op: ir.OpLeq, L: V(0), R: V(1)}
		if !Implies(c, probe) {
			return true // nothing to preserve
		}
		extended := append(append(Conj{}, c...), Atom{Op: ir.OpLeq, L: V(2), R: V(3)})
		return Implies(extended, probe)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equivalent is reflexive and invariant under atom
// permutation and duplication.
func TestQuickEquivalentReflexiveStable(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		c := conjFromSeed(seed, n)
		if !Equivalent(c, c) {
			return false
		}
		shuffled := append(Conj{}, c...)
		for i := len(shuffled) - 1; i > 0; i-- {
			shuffled[i], shuffled[0] = shuffled[0], shuffled[i]
		}
		doubled := append(append(Conj{}, shuffled...), c...)
		return Equivalent(c, doubled)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: closure is idempotent — closing the emitted atoms yields an
// equivalent conjunction (for satisfiable inputs).
func TestQuickClosureIdempotent(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		c := conjFromSeed(seed, n)
		cl := Close(c)
		if !cl.Sat() {
			return true
		}
		atoms := cl.Atoms()
		// c entails its closure atoms by soundness; the closure atoms
		// must entail every var-to-var and var-to-const fact of c that
		// the closure itself can state. Equivalence of c and atoms holds
		// whenever c only mentions terms the closure re-emits.
		return Close(atoms).Sat() && ImpliesAll(c, atoms)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an atom and its negation are never both implied by a
// satisfiable conjunction.
func TestQuickNoContradictoryEntailment(t *testing.T) {
	f := func(seed uint64, n uint8, op uint8, l, r uint8) bool {
		c := conjFromSeed(seed, n)
		cl := Close(c)
		if !cl.Sat() {
			return true
		}
		probe := Atom{Op: ir.Op(op % 6), L: V(Var(l % 5)), R: V(Var(r % 5))}
		return !(cl.Implies(probe) && cl.Implies(probe.Negate()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randConj draws a conjunction over variables v0..v4 with equalities,
// orders and disequalities against each other and against int, float
// and string constants (1 and 1.0 share a value key on purpose). About
// a fifth of the draws are unsatisfiable.
func randConj(rng *rand.Rand) Conj {
	ops := []ir.Op{ir.OpEq, ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq}
	n := 1 + rng.Intn(7)
	c := make(Conj, 0, n)
	for i := 0; i < n; i++ {
		a := Atom{Op: ops[rng.Intn(len(ops))], L: V(Var(rng.Intn(5)))}
		if rng.Intn(3) == 0 {
			a.R = C(mentionedConsts[rng.Intn(len(mentionedConsts))])
		} else {
			a.R = V(Var(rng.Intn(5)))
		}
		if rng.Intn(4) == 0 {
			a.L, a.R, a.Op = a.R, a.L, a.Op.Flip()
		}
		c = append(c, a)
	}
	return c
}

var (
	mentionedConsts = []value.Value{
		value.Int(0), value.Int(1), value.Float(1), value.Int(2), value.Int(3),
		value.Float(0.5), value.Float(2.5), value.Str("a"), value.Str("b"),
	}
	// probeConsts adds constants no conjunction mentions: they exercise
	// the refutation path Implies keeps for unmentioned constants.
	probeConsts = append([]value.Value{value.Int(9), value.Float(-1.5), value.Float(1.5), value.Str("zz")}, mentionedConsts...)
)

// randProbe draws an atom over v0..v7 (v5..v7 are never mentioned) and
// the probe constants.
func randProbe(rng *rand.Rand) Atom {
	term := func() Term {
		if rng.Intn(3) == 0 {
			return C(probeConsts[rng.Intn(len(probeConsts))])
		}
		return V(Var(rng.Intn(8)))
	}
	a := Atom{Op: ir.Op(rng.Intn(6)), L: term(), R: term()}
	if rng.Intn(8) == 0 {
		a.R = a.L // reflexive atoms, over unmentioned variables too
	}
	return a
}

// checkClosureAgainstDefinition compares everything a finalized closure
// answers directly with its definition: Implies with refutation, the
// exposed classes with pairwise Implies(x = y), the pins with Atoms.
func checkClosureAgainstDefinition(conj Conj, cl *Closure, rng *rand.Rand) error {
	for i := 0; i < 40; i++ {
		a := randProbe(rng)
		want := !Close(append(append(Conj{}, conj...), a.Negate())).Sat()
		if got := cl.Implies(a); got != want {
			return fmt.Errorf("%s: Implies(%s) = %v, refutation says %v", conj, a, got, want)
		}
	}
	if !cl.Sat() {
		return nil // entails everything; classes and pins are unspecified
	}
	pins := map[Var]value.Value{}
	for _, a := range cl.Atoms() {
		if a.Op == ir.OpEq && !a.L.IsConst && a.R.IsConst {
			pins[a.L.V] = a.R.C
		}
	}
	for x := Var(0); x < 8; x++ {
		least := x
		for y := x - 1; y >= 0; y-- {
			if cl.Implies(Atom{Op: ir.OpEq, L: V(x), R: V(y)}) {
				least = y
			}
		}
		if got := cl.LeastEqual(x); got != least {
			return fmt.Errorf("%s: LeastEqual(v%d) = v%d, pairwise Implies says v%d", conj, x, got, least)
		}
		pin, ok := cl.Pin(x)
		want, wantOK := pins[x]
		if ok != wantOK || (ok && !value.KeyEqual(pin, want)) {
			return fmt.Errorf("%s: Pin(v%d) = %v,%v, Atoms says %v,%v", conj, x, pin, ok, want, wantOK)
		}
	}
	return nil
}

// Property: what the closure decides directly — atoms over mentioned
// terms from the matrix, atoms over unmentioned variables by the
// reflexivity rule — equals the definition !Close(conj AND NOT a).Sat(),
// and the exposed classes and pins equal what pairwise Implies and
// Atoms give. Each closure is read by several goroutines at once, so
// -race checks that a finalized closure is read-only (the first Atoms
// call included).
func TestImpliesMatchesRefutation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	unsat := 0
	for trial := 0; trial < 400; trial++ {
		conj := randConj(rng)
		cl := Close(conj)
		if !cl.Sat() {
			unsat++
		}
		const readers = 4
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int, seed int64) {
				defer wg.Done()
				errs[r] = checkClosureAgainstDefinition(conj, cl, rand.New(rand.NewSource(seed)))
			}(r, rng.Int63())
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if unsat == 0 || unsat == 400 {
		t.Fatalf("generator drew %d unsatisfiable conjunctions of 400; want a mix", unsat)
	}
}

// Property: Sat agrees with exhaustive model search. Over a dense order
// a conjunction of v0..v2 and the constants 0..3 has a model iff it has
// one on the quarter-step grid from -1 to 4 (three variables never need
// more than three distinct points inside one gap), so the grid search
// is an exact oracle for the fixpoint, independent of its code.
func TestSatMatchesExhaustiveSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []ir.Op{ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq}
	var grid []float64
	for x := -1.0; x <= 4; x += 0.25 {
		grid = append(grid, x)
	}
	holds := func(a Atom, asg [3]float64) bool {
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
		default:
			return l >= r
		}
	}
	for trial := 0; trial < 300; trial++ {
		conj := make(Conj, 2+rng.Intn(5))
		for i := range conj {
			conj[i] = Atom{Op: ops[rng.Intn(len(ops))], L: V(Var(rng.Intn(3))), R: V(Var(rng.Intn(3)))}
			if rng.Intn(3) == 0 {
				conj[i].R = C(value.Int(int64(rng.Intn(4))))
			}
		}
		want := false
	search:
		for _, x := range grid {
			for _, y := range grid {
			next:
				for _, z := range grid {
					for _, a := range conj {
						if !holds(a, [3]float64{x, y, z}) {
							continue next
						}
					}
					want = true
					break search
				}
			}
		}
		if got := Close(conj).Sat(); got != want {
			t.Fatalf("%s: Sat() = %v, exhaustive search says %v", conj, got, want)
		}
	}
}
