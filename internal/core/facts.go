package core

import (
	"aggview/internal/aggreason"
	"aggview/internal/constraints"
	"aggview/internal/ir"
	"aggview/internal/keys"
)

// This file holds the two facts values the search is organized around.
// A usability analysis looks at a (query, view, mapping) triple, but
// most of what it needs depends on the query alone or on the view alone:
// queryFacts is built once per query the search holds, viewFacts once
// per registered view definition, and an analyzer only adds what the
// mapping contributes. A view's facts are finalized when built and never
// written afterwards, so concurrent searches can share them; a query's
// facts belong to one serial search and fill in as they are first read.

// queryFacts is everything the search derives from one query alone. It
// is made when the query enters the search — the root by rewritings,
// every accepted rewriting by rewriteOnce — and lives for that one
// search. Only the normalized form is built then; the closure-backed
// fields are built by close, which every analyzer of the query calls,
// the set-ness by isSetResult and the canonical key by key, so a
// rewriting no view maps into and no dedup compares costs neither a
// closure nor a key.
type queryFacts struct {
	rw    *Rewriter
	q     *ir.Query // the query as the search holds it: what key names and traces show
	qn    *ir.Query // its normalized form (q itself under NoNormalize or when nothing moves): what analyzers read
	isAgg bool

	closed bool                 // conds, cl, canon and pinned are built
	conds  constraints.Conj     // Conds(Q): the WHERE conjunction of qn
	cl     *constraints.Closure // its closure
	canon  []ir.ColID           // column -> least column provably equal to it under Conds(Q)
	pinned []bool               // column -> pinned to a constant by Conds(Q)

	set    int8   // isSetResult's answer: 0 until asked, then 1 or -1
	k      string // canonical key of q; "" until key derives it
	fromMS string // q's FROM multiset (fromKey); "" until from derives it
}

// newQueryFacts starts q's facts. key is q's canonical key when the
// caller already holds it (the root of a search the facade keyed), else
// empty and derived when first compared.
func (rw *Rewriter) newQueryFacts(q *ir.Query, key string) *queryFacts {
	qn := q
	if !rw.Opts.NoNormalize {
		qn = aggreason.Normalize(q)
	}
	return &queryFacts{rw: rw, q: q, qn: qn, isAgg: qn.IsAggregationQuery(), k: key}
}

// close builds Conds(Q), its closure and the column classes it induces.
func (f *queryFacts) close() {
	if f.closed {
		return
	}
	f.closed = true
	f.conds = aggreason.WhereConj(f.qn)
	// CloseCached: a served query's plan key was derived from this very
	// conjunction a moment ago, and BFS branches reach equal ones.
	f.cl = constraints.CloseCached(f.conds)
	n := f.qn.NumCols()
	f.canon = make([]ir.ColID, n)
	f.pinned = make([]bool, n)
	if f.cl.Sat() {
		for c := range f.canon {
			f.canon[c] = ir.ColID(f.cl.LeastEqual(constraints.Var(c)))
			_, f.pinned[c] = f.cl.Pin(constraints.Var(c))
		}
	} // else: an unsatisfiable WHERE equates every column with the first and pins none
}

// isSetResult reports whether the result is provably a set (Section 5);
// false when the rewriter has no Meta (the relaxation is off) or q
// aggregates.
func (f *queryFacts) isSetResult() bool {
	if f.set == 0 {
		f.set = -1
		if rw := f.rw; rw.Meta != nil && !f.isAgg && keys.IsSetResult(f.qn, rw.meta()) {
			f.set = 1
		}
	}
	return f.set > 0
}

// key returns q's canonical key.
func (f *queryFacts) key() string {
	if f.k == "" {
		// The key reads the closure of q's own WHERE: unless normalization
		// moved a HAVING conjunct, that of Conds(Q) once close has run.
		keyCl := f.cl
		if f.qn != f.q || !f.closed {
			keyCl = constraints.CloseCached(aggreason.WhereConj(f.q))
		}
		f.k = canonicalKeyOf(f.q, keyCl)
	}
	return f.k
}

// from returns q's FROM multiset as the canonical key lists it, so equal
// keys imply equal FROM multisets: dedup compares keys only between
// queries whose FROM multisets agree.
func (f *queryFacts) from() string {
	if f.fromMS == "" {
		f.fromMS = fromKey(f.q)
	}
	return f.fromMS
}

// sameQuery reports whether f and g are one query up to renaming and
// FROM-clause order: equal canonical keys.
func (f *queryFacts) sameQuery(g *queryFacts) bool {
	return f.from() == g.from() && f.key() == g.key()
}

// bareItem is one bare-column SELECT item of a view.
type bareItem struct {
	pos int
	col ir.ColID
}

// aggItem is one aggregate SELECT item of a view.
type aggItem struct {
	pos int
	fn  ir.AggFunc
	arg ir.ColID // view column aggregated upon
}

// viewFacts is everything the search derives from one view definition
// alone. It is built once per registered *ir.ViewDef — when the facade
// registers the view, else by the first search that meets it — stored
// on the ViewDef (ir.ViewDef.Derived) and dropped with it.
type viewFacts struct {
	def   *ir.ViewDef
	vn    *ir.Query // the definition as analyzed: normalized unless NoNormalize
	isAgg bool

	bare     []bareItem // bare-column SELECT items, in select order
	barePos  []int      // view column -> first bare select position, -1 when not exposed
	aggItems []aggItem  // aggregates over a bare column, in select order
	countPos int        // first COUNT(column) select position, -1 when none

	conds constraints.Conj // Conds(V) over the view's own columns, before sigma
}

// viewFactsPair holds a view's facts in both forms a Rewriter may ask
// for; they are one value unless normalization moves a HAVING conjunct
// of the definition.
type viewFactsPair struct{ normalized, raw *viewFacts }

// IndexView builds a view's facts. The facade calls it as it registers
// a view so that no search pays for them; for a view registered any
// other way the first search to meet it does. Either way they are built
// once per *ir.ViewDef.
func IndexView(v *ir.ViewDef) { viewFactsOf(v) }

func viewFactsOf(v *ir.ViewDef) *viewFactsPair {
	return v.Derived(func(v *ir.ViewDef) any {
		pair := &viewFactsPair{normalized: newViewFacts(v, aggreason.Normalize(v.Def))}
		pair.raw = pair.normalized
		if pair.normalized.vn != v.Def {
			pair.raw = newViewFacts(v, v.Def)
		}
		return pair
	}).(*viewFactsPair)
}

func (rw *Rewriter) viewFacts(v *ir.ViewDef) *viewFacts {
	if rw.Opts.NoNormalize {
		return viewFactsOf(v).raw
	}
	return viewFactsOf(v).normalized
}

func newViewFacts(v *ir.ViewDef, vn *ir.Query) *viewFacts {
	f := &viewFacts{def: v, vn: vn, isAgg: vn.IsAggregationQuery(), countPos: -1, conds: aggreason.WhereConj(vn)}
	f.barePos = make([]int, vn.NumCols())
	for c := range f.barePos {
		f.barePos[c] = -1
	}
	for pos, it := range vn.Select {
		switch x := it.Expr.(type) {
		case *ir.ColRef:
			f.bare = append(f.bare, bareItem{pos: pos, col: x.Col})
			if f.barePos[x.Col] < 0 {
				f.barePos[x.Col] = pos
			}
		case *ir.Agg:
			if c, ok := x.Arg.(*ir.ColRef); ok && !x.Star {
				f.aggItems = append(f.aggItems, aggItem{pos: pos, fn: x.Func, arg: c.Col})
				if x.Func == ir.AggCount && f.countPos < 0 {
					f.countPos = pos
				}
			}
		}
	}
	return f
}
