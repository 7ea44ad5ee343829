// Package constraints implements reasoning over conjunctions of built-in
// predicates of the paper's language: atoms A op B where A, B are
// variables (columns) or constants and op is one of =, <>, <, <=, >, >=.
//
// It provides the closure computation the paper relies on (footnote 2 of
// Section 3): satisfiability, entailment (Implies), equivalence, the full
// set of entailed atoms (Atoms), and the residual computation that
// conditions C3/C3' need — given Conds(Q) and sigma(Conds(V)), find
// Conds' over an allowed column set with
// Conds(Q) == sigma(Conds(V)) AND Conds'.
//
// The decision procedure treats the ordered domain as dense (standard for
// this predicate class): it combines union-find over equalities, a
// strongest-relation matrix closed transitively (Floyd-Warshall over
// {<=, <}), disequality strengthening (x<=y and x<>y give x<y), and
// equality derivation (x<=y and y<=x merge classes), iterated to a
// fixpoint. For the point-algebra fragment this propagation decides
// satisfiability, so entailment by refutation is complete. Constants are
// interned by value.KeyEqual and ordered by value.Compare, whose 0 it is:
// two constant nodes are two values the rule orders strictly, as the
// engine's filters do, NaN, -0 and integers past 2^53 included.
package constraints

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// Var is an abstract variable; the rewriter maps column IDs to Vars.
type Var int32

// Term is a variable or a constant.
type Term struct {
	IsConst bool
	V       Var
	C       value.Value
}

// V builds a variable term.
func V(v Var) Term { return Term{V: v} }

// C builds a constant term.
func C(val value.Value) Term { return Term{IsConst: true, C: val} }

// Atom is one predicate: L op R.
type Atom struct {
	Op   ir.Op
	L, R Term
}

// Negate returns the complement atom (NOT a).
func (a Atom) Negate() Atom { return Atom{Op: a.Op.Negate(), L: a.L, R: a.R} }

// String renders the atom for debugging.
func (a Atom) String() string {
	return a.L.String() + " " + a.Op.String() + " " + a.R.String()
}

// String renders the term for debugging.
func (t Term) String() string {
	if t.IsConst {
		return t.C.String()
	}
	return fmt.Sprintf("v%d", t.V)
}

// Conj is a conjunction of atoms.
type Conj []Atom

// String renders the conjunction for debugging.
func (c Conj) String() string {
	if len(c) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, " AND ")
}

// rel is the strongest known order relation from one node to another.
type rel uint8

const (
	relNone rel = iota
	relLeq
	relLt
)

// noVar marks a class that holds no variable.
const noVar = Var(-1 << 31)

// Closure is the deductive closure of a conjunction. Its state is a
// handful of dense slices allocated once by Close: terms are interned
// as nodes (the mentioned variables in ascending order, then the
// distinct constants), classes are a union-find over nodes, and the
// strongest order relation and the disequalities between classes live
// in two n x n matrices indexed by class representative.
type Closure struct {
	conj Conj
	sat  bool

	vars   []Var         // mentioned variables, ascending; variable i is node i
	consts []value.Value // distinct constants (by value key); constant i is node len(vars)+i
	parent []int32       // union-find over nodes; every entry is its representative once finalized
	least  []Var         // representative -> least variable of its class, noVar for a bare constant

	n   int    // len(vars) + len(consts)
	m   []rel  // m[i*n+j]: strongest order relation from representative i to j
	neq []bool // neq[i*n+j]: representatives i and j are known unequal (symmetric)

	// The entailed atoms are rendered on first use and shared from then
	// on; the sync.Once keeps that safe for concurrent readers.
	atomsOnce sync.Once
	atoms     Conj
}

// Close computes the closure of the conjunction. The result is always
// non-nil; Sat reports whether the conjunction is satisfiable. A
// returned Closure is finalized: queries against it (Implies, Atoms,
// LeastEqual, Pin, Sat) never mutate its relations, so it is safe for
// concurrent readers — which is what lets CloseCached, and the rewrite
// search's per-query facts, share closures across goroutines.
func Close(c Conj) *Closure {
	cl := &Closure{conj: c, sat: true}
	cl.intern()
	cl.sat = cl.seed() && cl.fixpoint()
	cl.finalize()
	return cl
}

// intern assigns every term of the conjunction its node.
func (cl *Closure) intern() {
	cl.vars = make([]Var, 0, 2*len(cl.conj))
	for _, a := range cl.conj {
		for _, t := range [2]Term{a.L, a.R} {
			if !t.IsConst {
				cl.vars = append(cl.vars, t.V)
			} else if _, ok := cl.constNode(t.C); !ok {
				cl.consts = append(cl.consts, t.C)
			}
		}
	}
	slices.Sort(cl.vars)
	cl.vars = slices.Compact(cl.vars)
	cl.n = len(cl.vars) + len(cl.consts)
	cl.parent = make([]int32, cl.n)
	for i := range cl.parent {
		cl.parent[i] = int32(i)
	}
	cl.m = make([]rel, cl.n*cl.n)
	cl.neq = make([]bool, cl.n*cl.n)
}

// constNode finds the node offset of a constant among cl.consts;
// constants are few, and KeyEqual compares without building key strings.
func (cl *Closure) constNode(c value.Value) (int, bool) {
	for i := range cl.consts {
		if value.KeyEqual(cl.consts[i], c) {
			return i, true
		}
	}
	return 0, false
}

// node finds the node of a term, if the conjunction mentions it.
func (cl *Closure) node(t Term) (int, bool) {
	if t.IsConst {
		i, ok := cl.constNode(t.C)
		return len(cl.vars) + i, ok
	}
	return slices.BinarySearch(cl.vars, t.V)
}

func (cl *Closure) isConst(node int) bool { return node >= len(cl.vars) }

func (cl *Closure) find(n int) int {
	for int(cl.parent[n]) != n {
		cl.parent[n] = cl.parent[cl.parent[n]]
		n = int(cl.parent[n])
	}
	return n
}

// rep is the representative of a mentioned term's class.
func (cl *Closure) rep(t Term) int {
	n, _ := cl.node(t)
	return cl.find(n)
}

// union merges the classes of two representatives, folding the dropped
// representative's relations into the kept one's; it reports false when
// the merge is contradictory (two constants, which interning keeps
// apart only when value.Compare does, or classes known unequal).
func (cl *Closure) union(ra, rb int) bool {
	if ra == rb {
		return true
	}
	okA, okB := cl.isConst(ra), cl.isConst(rb)
	if okA && okB {
		return false
	}
	if cl.neq[ra*cl.n+rb] {
		return false
	}
	// Keep a constant-bearing node as the representative, so a pinned
	// class has a constant representative.
	if okB && !okA {
		ra, rb = rb, ra
	}
	cl.parent[rb] = int32(ra)
	n := cl.n
	for k := 0; k < n; k++ {
		cl.addRel(ra, k, cl.m[rb*n+k])
		cl.addRel(k, ra, cl.m[k*n+rb])
		if cl.neq[rb*n+k] {
			cl.neq[ra*n+k], cl.neq[k*n+ra] = true, true
		}
	}
	return true
}

func (cl *Closure) addRel(i, j int, r rel) {
	if r > cl.m[i*cl.n+j] {
		cl.m[i*cl.n+j] = r
	}
}

// seed enters the conjunction's own atoms and the facts between its
// constants; it reports false on an immediate contradiction.
func (cl *Closure) seed() bool {
	// Union explicit equalities first, so order atoms land on the merged
	// representatives.
	for _, a := range cl.conj {
		if a.Op == ir.OpEq && !cl.union(cl.rep(a.L), cl.rep(a.R)) {
			return false
		}
	}
	n := cl.n
	for _, a := range cl.conj {
		li, ri := cl.rep(a.L), cl.rep(a.R)
		switch a.Op {
		case ir.OpNeq:
			if li == ri {
				return false
			}
			cl.neq[li*n+ri], cl.neq[ri*n+li] = true, true
		case ir.OpLt:
			cl.addRel(li, ri, relLt)
		case ir.OpLeq:
			cl.addRel(li, ri, relLeq)
		case ir.OpGt:
			cl.addRel(ri, li, relLt)
		case ir.OpGeq:
			cl.addRel(ri, li, relLeq)
		}
	}
	// Distinct constant classes are unequal constants, ordered when
	// comparable.
	for i := len(cl.vars); i < n; i++ {
		if cl.find(i) != i {
			continue
		}
		for j := i + 1; j < n; j++ {
			if cl.find(j) != j {
				continue
			}
			cl.neq[i*n+j], cl.neq[j*n+i] = true, true
			ci, cj := cl.consts[i-len(cl.vars)], cl.consts[j-len(cl.vars)]
			if value.Comparable(ci, cj) {
				if value.Compare(ci, cj) < 0 {
					cl.addRel(i, j, relLt)
				} else {
					cl.addRel(j, i, relLt)
				}
			}
		}
	}
	return true
}

// fixpoint iterates transitive closure, disequality strengthening and
// class merging over the one matrix until nothing changes; it reports
// whether the conjunction is satisfiable.
func (cl *Closure) fixpoint() bool {
	n, m := cl.n, cl.m
	reps := make([]int, 0, n)
	for {
		reps = reps[:0]
		for i := 0; i < n; i++ {
			if int(cl.parent[i]) == i {
				reps = append(reps, i)
			}
		}
		// Transitive closure.
		for _, k := range reps {
			for _, i := range reps {
				ik := m[i*n+k]
				if ik == relNone {
					continue
				}
				for _, j := range reps {
					kj := m[k*n+j]
					if kj == relNone {
						continue
					}
					r := relLeq
					if ik == relLt || kj == relLt {
						r = relLt
					}
					if r > m[i*n+j] {
						m[i*n+j] = r
					}
				}
			}
		}
		// A strict self-loop is a contradiction.
		for _, i := range reps {
			if m[i*n+i] == relLt {
				return false
			}
		}
		changed := false
		for a, i := range reps {
			for _, j := range reps[a+1:] {
				ij, ji := &m[i*n+j], &m[j*n+i]
				if cl.neq[i*n+j] {
					// Strengthen: x<=y and x<>y imply x<y.
					if *ij == relLeq {
						*ij, changed = relLt, true
					}
					if *ji == relLeq {
						*ji, changed = relLt, true
					}
				}
			}
		}
		// Merge: x<=y and y<=x derive x=y. A pair strengthened above is
		// strict one way, so the next closure pass finds its self-loop.
		for a, i := range reps {
			for _, j := range reps[a+1:] {
				if m[i*n+j] != relLeq || m[j*n+i] != relLeq {
					continue
				}
				ri, rj := cl.find(i), cl.find(j)
				if ri != rj && !cl.union(ri, rj) {
					return false
				}
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
}

// finalize compresses the union-find so every parent pointer is its
// representative — after this no query writes to the closure — and
// records each class's least variable.
func (cl *Closure) finalize() {
	cl.least = make([]Var, cl.n)
	for i := range cl.least {
		cl.least[i] = noVar
	}
	for n := range cl.parent {
		r := cl.find(n)
		cl.parent[n] = int32(r)
		// Variables are nodes in ascending order: the first one seen is
		// the class's least.
		if !cl.isConst(n) && cl.least[r] == noVar {
			cl.least[r] = cl.vars[n]
		}
	}
}

// Sat reports whether the conjunction is satisfiable.
func (cl *Closure) Sat() bool { return cl.sat }
