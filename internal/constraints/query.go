package constraints

import (
	"sort"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// Implies reports whether the conjunction entails the atom. An
// unsatisfiable conjunction entails everything. Atoms over mentioned
// terms are read off the relation matrix. A variable the conjunction
// never mentions is unconstrained, so the only atoms over it that hold
// are the reflexive x = x, x <= x and x >= x. An unmentioned constant
// still orders against the mentioned ones; that case alone is decided by
// refutation.
func (cl *Closure) Implies(a Atom) bool {
	if !cl.sat {
		return true
	}
	li, okL := cl.lookup(a.L)
	ri, okR := cl.lookup(a.R)
	if okL && okR {
		return cl.impliesRep(li, a.Op, ri)
	}
	if (!okL && !a.L.IsConst) || (!okR && !a.R.IsConst) {
		return !a.L.IsConst && !a.R.IsConst && a.L.V == a.R.V && reflexive(a.Op)
	}
	// Refutation: conj AND NOT(a) unsatisfiable iff conj implies a.
	return !Close(append(append(Conj{}, cl.conj...), a.Negate())).Sat()
}

func reflexive(op ir.Op) bool { return op == ir.OpEq || op == ir.OpLeq || op == ir.OpGeq }

// lookup finds the class representative of a term, if it was mentioned.
func (cl *Closure) lookup(t Term) (int, bool) {
	n, ok := cl.node(t)
	if !ok {
		return 0, false
	}
	return int(cl.parent[n]), true
}

func (cl *Closure) impliesRep(li int, op ir.Op, ri int) bool {
	if li == ri {
		return reflexive(op)
	}
	switch op {
	case ir.OpNeq:
		return cl.neqRep(li, ri)
	case ir.OpLt:
		return cl.m[li*cl.n+ri] == relLt
	case ir.OpLeq:
		return cl.m[li*cl.n+ri] != relNone
	case ir.OpGt:
		return cl.m[ri*cl.n+li] == relLt
	case ir.OpGeq:
		return cl.m[ri*cl.n+li] != relNone
	default: // OpEq: distinct representatives after the fixpoint
		return false
	}
}

// neqRep reports a derivable disequality between two classes.
func (cl *Closure) neqRep(li, ri int) bool {
	return cl.neq[li*cl.n+ri] || cl.m[li*cl.n+ri] == relLt || cl.m[ri*cl.n+li] == relLt
}

// ImpliesAll reports whether the closure entails every atom of d.
func (cl *Closure) ImpliesAll(d Conj) bool {
	for _, a := range d {
		if !cl.Implies(a) {
			return false
		}
	}
	return true
}

// LeastEqual returns the least variable the conjunction proves equal to
// v — v itself when it is the least of its class or is never mentioned.
// It is the class structure Implies(x = y) would reveal pair by pair;
// on an unsatisfiable closure (which entails every equality) it reports
// the classes built before the contradiction surfaced.
func (cl *Closure) LeastEqual(v Var) Var {
	n, ok := cl.node(V(v))
	if !ok {
		return v
	}
	return cl.least[cl.parent[n]]
}

// Pin returns the constant the conjunction pins v to, if any: exactly
// the v = c atoms Atoms reports (none on an unsatisfiable closure).
func (cl *Closure) Pin(v Var) (value.Value, bool) {
	if !cl.sat {
		return value.Value{}, false
	}
	n, ok := cl.node(V(v))
	if !ok {
		return value.Value{}, false
	}
	return cl.classConst(int(cl.parent[n]))
}

// classConst returns the constant a class is pinned to, if any: union
// keeps a constant as the representative of any class that holds one.
func (cl *Closure) classConst(rep int) (value.Value, bool) {
	if cl.isConst(rep) {
		return cl.consts[rep-len(cl.vars)], true
	}
	return value.Value{}, false
}

// Atoms returns the entailed atoms between the mentioned terms — the
// paper's closure of Conds. For each variable pair the strongest order
// or equality fact is emitted; for each variable its pin or tightest
// constant bounds and disequalities. The result is sound (every atom is
// entailed) and complete for residual computation over this fragment.
// It is computed once per closure and shared: callers must not modify
// the returned slice.
func (cl *Closure) Atoms() Conj {
	cl.atomsOnce.Do(func() { cl.atoms = cl.buildAtoms() })
	return cl.atoms
}

func (cl *Closure) buildAtoms() Conj {
	if !cl.sat {
		return Conj{{Op: ir.OpLt, L: C(value.Int(0)), R: C(value.Int(0))}}
	}
	n, m := cl.n, cl.m
	var out Conj
	// Variable-variable facts.
	for i, u := range cl.vars {
		ui := int(cl.parent[i])
		for j := i + 1; j < len(cl.vars); j++ {
			w, wi := cl.vars[j], int(cl.parent[j])
			if ui == wi {
				out = append(out, Atom{Op: ir.OpEq, L: V(u), R: V(w)})
				continue
			}
			uw, wu := m[ui*n+wi], m[wi*n+ui]
			switch {
			case uw == relLt:
				out = append(out, Atom{Op: ir.OpLt, L: V(u), R: V(w)})
			case uw == relLeq:
				out = append(out, Atom{Op: ir.OpLeq, L: V(u), R: V(w)})
			case wu == relLt:
				out = append(out, Atom{Op: ir.OpGt, L: V(u), R: V(w)})
			case wu == relLeq:
				out = append(out, Atom{Op: ir.OpGeq, L: V(u), R: V(w)})
			}
			if uw != relLt && wu != relLt && cl.neq[ui*n+wi] {
				out = append(out, Atom{Op: ir.OpNeq, L: V(u), R: V(w)})
			}
		}
	}
	// Variable-constant facts, constants in key order.
	consts := cl.constantsByKey()
	for i, u := range cl.vars {
		ui := int(cl.parent[i])
		if pin, ok := cl.classConst(ui); ok {
			out = append(out, Atom{Op: ir.OpEq, L: V(u), R: C(pin)})
			continue
		}
		if lo, strict, ok := cl.bound(ui, consts, false); ok {
			op := ir.OpGeq
			if strict {
				op = ir.OpGt
			}
			out = append(out, Atom{Op: op, L: V(u), R: C(lo)})
		}
		if hi, strict, ok := cl.bound(ui, consts, true); ok {
			op := ir.OpLeq
			if strict {
				op = ir.OpLt
			}
			out = append(out, Atom{Op: op, L: V(u), R: C(hi)})
		}
		// Disequalities against constants not already covered by strict
		// bounds.
		for _, c := range consts {
			ci := int(cl.parent[c])
			if ci == ui || m[ui*n+ci] == relLt || m[ci*n+ui] == relLt {
				continue
			}
			if cl.neq[ui*n+ci] {
				out = append(out, Atom{Op: ir.OpNeq, L: V(u), R: C(cl.consts[c-len(cl.vars)])})
			}
		}
	}
	return out
}

// constantsByKey lists the constant nodes in the order of their value
// keys, the deterministic order Atoms reports constants in.
func (cl *Closure) constantsByKey() []int {
	keys := make([]string, len(cl.consts))
	nodes := make([]int, len(cl.consts))
	for i, c := range cl.consts {
		keys[i], nodes[i] = c.Key(), len(cl.vars)+i
	}
	sort.Slice(nodes, func(i, j int) bool { return keys[nodes[i]-len(cl.vars)] < keys[nodes[j]-len(cl.vars)] })
	return nodes
}

// bound finds the tightest constant bound of a class among the given
// constant nodes: upper when hi is true, lower otherwise. It returns the
// bounding constant, whether the bound is strict, and whether one
// exists.
func (cl *Closure) bound(ui int, consts []int, hi bool) (value.Value, bool, bool) {
	var best value.Value
	bestStrict, found := false, false
	for _, cn := range consts {
		c, ci := cl.consts[cn-len(cl.vars)], int(cl.parent[cn])
		r := cl.m[ci*cl.n+ui]
		if hi {
			r = cl.m[ui*cl.n+ci]
		}
		if r == relNone {
			continue
		}
		strict := r == relLt
		if !found {
			best, bestStrict, found = c, strict, true
			continue
		}
		cmp := value.Compare(c, best)
		if !hi {
			cmp = -cmp
		}
		if cmp < 0 || (cmp == 0 && strict && !bestStrict) {
			best, bestStrict = c, strict
		}
	}
	return best, bestStrict, found
}

// Satisfiable reports whether the conjunction has a model.
func Satisfiable(c Conj) bool { return Close(c).Sat() }

// Implies reports whether conjunction c entails atom a.
func Implies(c Conj, a Atom) bool { return Close(c).Implies(a) }

// ImpliesAll reports whether c entails every atom of d.
func ImpliesAll(c, d Conj) bool { return Close(c).ImpliesAll(d) }

// Equivalent reports whether two conjunctions entail each other.
func Equivalent(c, d Conj) bool {
	return Close(c).ImpliesAll(d) && Close(d).ImpliesAll(c)
}

// Residual implements the heart of conditions C3/C3': find Conds' such
// that the target — given as its closure tc, which the rewrite search
// computes once per query and shares across every candidate — is
// equivalent to given AND Conds', where Conds' mentions only variables
// accepted by allowed. It returns the residual and whether one exists.
// For equality-only conjunctions the construction is complete (Theorem
// 3.1); in general it is sound.
//
// Every conjunction it verifies or minimizes against is a subset of
// given AND the candidate, whose atoms all follow from the satisfiable
// target, so each is satisfiable and an atom it lists as-is, or one over
// a variable it never mentions, is decided without closing it (see
// literally); only the other atoms pay for a closure.
func Residual(tc *Closure, given Conj, allowed func(Var) bool) (Conj, bool) {
	if !tc.Sat() {
		// An unsatisfiable target is equivalent to anything unsatisfiable;
		// the empty-result query can use any view. Use a trivially false
		// residual over no variables.
		falseAtom := Atom{Op: ir.OpLt, L: C(value.Int(0)), R: C(value.Int(0))}
		return Conj{falseAtom}, true
	}
	// target must entail given, or the view discards needed tuples.
	if !tc.ImpliesAll(given) {
		return nil, false
	}
	// Candidate: the projection of target's closure onto allowed vars.
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
	// Verify: given AND candidate must entail target.
	combined := make(Conj, 0, len(given)+len(candidate))
	combined = append(append(combined, given...), candidate...)
	var open Conj
	for _, a := range tc.conj {
		holds, decided := rest{xs: combined, skip: -1}.literally(a)
		if !decided {
			open = append(open, a)
		} else if !holds {
			return nil, false
		}
	}
	if len(open) > 0 && !Close(combined).ImpliesAll(open) {
		return nil, false
	}
	// Minimize: drop atoms that stay implied by given and the rest. The
	// closures are transient, so every trial reuses combined's storage:
	// given stays in place as its prefix and the rest is rewritten.
	out := candidate
	for i := 0; i < len(out); {
		implied, decided := rest{given, out, i}.literally(out[i])
		if !decided {
			trial := append(append(combined[:len(given)], out[:i]...), out[i+1:]...)
			implied = Close(trial).Implies(out[i])
		}
		if implied {
			out = append(out[:i], out[i+1:]...)
		} else {
			i++
		}
	}
	return out, true
}

// rest is the conjunction xs followed by ys less ys[skip] (skip < 0
// leaves nothing out): a minimize trial, read without copying it.
type rest struct {
	xs, ys Conj
	skip   int
}

func (c rest) atoms(yield func(Atom) bool) {
	for _, a := range c.xs {
		if !yield(a) {
			return
		}
	}
	for j, a := range c.ys {
		if j != c.skip && !yield(a) {
			return
		}
	}
}

// literally answers Close(c).Implies(a), for a satisfiable conjunction
// c, where the answer needs no closure, and reports whether it could.
// Each case is what Closure.Implies answers:
//   - a variable of a that no atom of c mentions is unconstrained, so a
//     holds only as the reflexive x = x, x <= x or x >= x;
//   - an atom c lists as-is holds.
func (c rest) literally(a Atom) (holds, decided bool) {
	for _, t := range [2]Term{a.L, a.R} {
		if !t.IsConst && !c.mentions(t.V) {
			return !a.L.IsConst && !a.R.IsConst && a.L.V == a.R.V && reflexive(a.Op), true
		}
	}
	for b := range c.atoms {
		if sameAtom(a, b) {
			return true, true
		}
	}
	return false, false
}

// mentions reports whether an atom of c mentions v.
func (c rest) mentions(v Var) bool {
	for b := range c.atoms {
		if (!b.L.IsConst && b.L.V == v) || (!b.R.IsConst && b.R.V == v) {
			return true
		}
	}
	return false
}

// sameAtom reports whether two atoms are one atom of a closure: same
// operator, and terms the closure interns as one node.
func sameAtom(a, b Atom) bool {
	return a.Op == b.Op && sameTerm(a.L, b.L) && sameTerm(a.R, b.R)
}

func sameTerm(s, t Term) bool {
	if s.IsConst != t.IsConst {
		return false
	}
	if s.IsConst {
		return value.KeyEqual(s.C, t.C)
	}
	return s.V == t.V
}
