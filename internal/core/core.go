package core

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"strings"

	"aggview/internal/aggreason"
	"aggview/internal/budget"
	"aggview/internal/constraints"
	"aggview/internal/faultinject"
	"aggview/internal/ir"
	"aggview/internal/keys"
	"aggview/internal/obs"
)

// Options tunes the rewriter.
type Options struct {
	// PaperFaithful restricts the rewriter to the paper's original
	// operations: no arithmetic inside aggregates. Multiplicity recovery
	// then uses the auxiliary-view (Va) construction of steps S4'/S5',
	// guarded so it is only emitted when provably correct (see DESIGN.md
	// on the published construction's defect), and AVG rewrites that
	// need SUM/COUNT division are rejected.
	PaperFaithful bool
	// NoNormalize disables the Section 3.3 pre-processing that moves
	// HAVING conditions into WHERE. It exists for ablation: usability
	// detection weakens without it (experiment E10).
	NoNormalize bool
	// MaxRewritings caps the number of rewritings enumerated by
	// RewritingsContext; 0 means the default of 128.
	MaxRewritings int
	// Workers sizes the engine's morsel pool only (the facade copies it
	// onto each evaluator): 0 means GOMAXPROCS, 1 serial. Query results
	// are identical at every setting. The rewrite search is one serial
	// loop and does not read it.
	Workers int
}

// Rewriter rewrites queries to use materialized views.
type Rewriter struct {
	// Views holds the materialized view definitions.
	Views *ir.Registry
	// Meta supplies key/FD metadata enabling the Section 5 relaxations;
	// it may be nil.
	Meta keys.MetaSource
	// Opts tunes the rewriter.
	Opts Options
	// Kinds supplies the stored columns' kinds, which decide the float
	// half of condition C4' (analyzer.roundedSum); nil: no column is
	// float.
	Kinds Kinds
}

// Rewriting is one rewriting of a query that uses materialized views
// (Definition 2.2).
type Rewriting struct {
	// Query is the rewritten query; its FROM clause mentions at least
	// one view.
	Query *ir.Query
	// Aux lists auxiliary view definitions referenced by Query (the
	// paper's Va construction); they must be evaluated alongside it.
	Aux []*ir.ViewDef
	// Used lists the names of the views incorporated, in application
	// order.
	Used []string
	// SetOnly marks rewritings obtained under the Section 5 set
	// semantics: Query is multiset-equivalent to the original only
	// because both results are guaranteed to be sets.
	SetOnly bool
	// Notes explains the usability conditions that were established.
	Notes []string

	// groupPreserving marks a rewriting each of whose groups is exactly
	// one row of the view it reads (analyzer.groupPreserving): DropFold
	// may answer it by a select-project.
	groupPreserving bool
}

// SQL renders the rewriting (auxiliary views first).
func (r *Rewriting) SQL() string {
	out := ""
	for _, a := range r.Aux {
		out += a.SQL() + ";\n"
	}
	return out + r.Query.SQL()
}

// meta returns the effective metadata source, layering view-derived keys
// over the configured one.
func (rw *Rewriter) meta() keys.MetaSource {
	if rw.Meta == nil {
		return nil
	}
	return keys.ViewMeta{Base: rw.Meta, Views: rw.Views}
}

// searchTask is the per-search state threaded through candidate
// analysis: the caller's context, the candidate budget drawn from it
// (nil: unlimited) and the armed fault injector (nil outside the
// harness). Resolved once per public entry so the per-candidate poll
// never touches context.Value.
type searchTask struct {
	//aggvet:ctxflow per-search carrier resolved once at the public entry, never stored across calls.
	ctx   context.Context
	meter *budget.Meter
	inj   *faultinject.Injector
}

// newSearchTask resolves the search's budget state from the context:
// its meter (nil: unlimited) and its fault injector.
func (rw *Rewriter) newSearchTask(ctx context.Context) *searchTask {
	return &searchTask{ctx: ctx, meter: budget.MeterFrom(ctx), inj: faultinject.From(ctx)}
}

// candidate charges one analyzed (view, mapping) candidate: it feeds
// the fault injector, charges the candidate budget and polls the
// context.
func (st *searchTask) candidate() error {
	st.inj.Observe(faultinject.SiteCandidate, 1)
	if err := st.meter.AddCandidates("rewrite.candidate", 1); err != nil {
		return err
	}
	return budget.Check(st.ctx, "rewrite.candidate")
}

// RewriteOnceContext returns every single-step rewriting of q that uses
// view v: one per column mapping satisfying the usability conditions.
// A span on the context records every analyzed candidate (wave 0, since
// single-step rewrites are outside the BFS). Cancellation,
// deadline expiry and an exhausted candidate budget (a budget.Meter on
// the context) abort the analysis with a typed
// *budget.Canceled or *budget.Exceeded and no partial result. The
// context is polled once per analyzed candidate.
func (rw *Rewriter) RewriteOnceContext(ctx context.Context, q *ir.Query, v *ir.ViewDef) ([]*Rewriting, error) {
	sp := obs.SpanFrom(ctx)
	steps, events, err := rw.rewriteOnce(rw.newSearchTask(ctx), rw.newQueryFacts(q, ""), rw.viewFacts(v), eventsFor(sp))
	if err != nil {
		return nil, err
	}
	sp.AddCandidates(events...)
	return rewritingsOf(steps), nil
}

// step is one accepted single-step rewriting together with the facts of
// its query, built where the candidate was accepted so the next wave
// starts from them.
type step struct {
	r  *Rewriting
	qf *queryFacts
}

func rewritingsOf(steps []step) []*Rewriting {
	var out []*Rewriting
	for _, s := range steps {
		out = append(out, s.r)
	}
	return out
}

// eventDetail says how much rewriteOnce reports about each analyzed
// candidate.
type eventDetail uint8

const (
	// noEvents: nothing — an unobserved search pays no bookkeeping.
	noEvents eventDetail = iota
	// verdictEvents: the verdict alone, which is all a plain span counts
	// and all the commit loop's dedup retag and MaxRewritings cut read.
	verdictEvents
	// fullEvents: every field, SQL and mapping rendered.
	fullEvents
)

// eventsFor is the detail the span on a search's context asks for.
func eventsFor(sp *obs.Span) eventDetail {
	switch {
	case sp.RecordingCandidates():
		return fullEvents
	case sp.Enabled():
		return verdictEvents
	}
	return noEvents
}

// rewriteOnce is the body of RewriteOnceContext. Unless detail is
// noEvents it returns one obs.Candidate per analyzed (mapping,
// semantics) pair, in analysis order, plus one synthetic C1 rejection
// when the view is categorically unusable under multiset semantics
// (Section 4.5). Accept events correspond 1:1, in order, to the
// returned rewritings — the search relies on that to retag events that
// its global dedup or limit later discards.
func (rw *Rewriter) rewriteOnce(st *searchTask, qf *queryFacts, vf *viewFacts, detail eventDetail) ([]step, []obs.Candidate, error) {
	qn, vn := qf.qn, vf.vn
	var out []step
	var events []obs.Candidate
	qSQL := ""
	if detail == fullEvents {
		qSQL = qf.q.SQL()
	}
	record := func(m mapping, setSem bool, verdict obs.Verdict, condition, reason string, r *Rewriting) {
		switch detail {
		case noEvents:
			return
		case verdictEvents:
			events = append(events, obs.Candidate{Verdict: verdict})
			return
		}
		ev := obs.Candidate{
			Query: qSQL, View: vf.def.Name, Mapping: mappingString(vn, qn, m),
			SetSemantics: setSem, Verdict: verdict, Condition: condition, Reason: reason,
		}
		if r != nil {
			ev.Rewriting = r.Query.SQL()
			ev.Notes = append([]string{}, r.Notes...)
		}
		events = append(events, ev)
	}
	try := func(m mapping, setSem bool) error {
		if err := st.candidate(); err != nil {
			return err
		}
		r, err := newAnalyzer(rw, qf, vf, m, setSem).analyze()
		if err != nil {
			record(m, setSem, obs.VerdictReject, conditionOf(err.Error()), err.Error(), nil)
			return nil
		}
		rf := rw.newQueryFacts(r.Query, "")
		for _, prev := range out {
			if prev.qf.sameQuery(rf) {
				record(m, setSem, obs.VerdictDedup, "", "duplicate of an earlier mapping's rewriting (canonical key match)", r)
				return nil
			}
		}
		out = append(out, step{r, rf})
		record(m, setSem, obs.VerdictAccept, "", "", r)
		return nil
	}

	// Section 4.5: a view with grouping or aggregation loses tuple
	// multiplicities and cannot answer a conjunctive query under
	// multiset semantics. Similarly a DISTINCT view is already a set.
	multisetUsable := !vn.Distinct && (qf.isAgg || !vf.isAgg)

	if multisetUsable {
		for _, m := range enumerateMappings(vn, qn, false) {
			if err := try(m, false); err != nil {
				return nil, nil, err
			}
		}
	} else {
		reason := "aggregation view loses tuple multiplicities; a non-aggregate query cannot use it under multiset semantics (Section 4.5)"
		if vn.Distinct {
			reason = "DISTINCT view is already a set; tuple multiplicities are lost (Section 4.5)"
		}
		record(mapping{}, false, obs.VerdictReject, "C1", reason, nil)
	}

	// Section 5: when both results are provably sets, many-to-1 mappings
	// become admissible (conjunctive queries and views only, as in the
	// paper).
	if !vf.isAgg && qf.isSetResult() && keys.IsSetResult(vn, rw.meta()) {
		for _, m := range enumerateMappings(vn, qn, true) {
			if m.oneToOne && multisetUsable {
				record(m, true, obs.VerdictDedup, "", "1-1 mapping already analyzed under multiset semantics", nil)
				continue
			}
			if err := try(m, true); err != nil {
				return nil, nil, err
			}
		}
	}
	return out, events, nil
}

// conditionOf extracts the usability-condition label (C1, C2', C3,
// C4'...) from an analyzer failure message of the form
// "condition <label>[:(]...". Messages without the prefix — internal
// errors, set-semantics containment failures — yield "".
func conditionOf(msg string) string {
	const prefix = "condition "
	if !strings.HasPrefix(msg, prefix) {
		return ""
	}
	rest := msg[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == ':' || rest[i] == ' ' || rest[i] == '(' {
			return rest[:i]
		}
	}
	return rest
}

// mappingString renders a column mapping sigma for trace events:
// each view column's image by name, plus the many-to-1 marker.
func mappingString(vn, qn *ir.Query, m mapping) string {
	if len(m.colMap) == 0 {
		return ""
	}
	parts := make([]string, len(m.colMap))
	for vc, qc := range m.colMap {
		parts[vc] = vn.Col(ir.ColID(vc)).Name + "->" + qn.Col(qc).Name
	}
	s := strings.Join(parts, ", ")
	if !m.oneToOne {
		s += " (many-to-1)"
	}
	return s
}

// RewritingsContext enumerates the rewritings of q reachable by
// iteratively incorporating registered views (Theorem 3.2: for
// conjunctive views with equality predicates, iterative application in
// any order is sound, Church-Rosser and complete). Results are
// deduplicated up to renaming and FROM-clause order.
//
// The search runs breadth-first in waves: every (candidate, view) pair
// of the current frontier is analyzed, then the outcomes are committed
// to seen/results in (frontier, view-registration, mapping) order, which
// is also the order MaxRewritings cuts in.
//
// Cancellation, deadline expiry and an exhausted candidate budget (a
// budget.Meter on the context) abort the search
// with a typed *budget.Canceled or *budget.Exceeded and no partial
// result. The context is polled once per analyzed candidate.
func (rw *Rewriter) RewritingsContext(ctx context.Context, q *ir.Query) ([]*Rewriting, error) {
	return rw.rewritings(rw.newSearchTask(ctx), q, "")
}

// SearchContext is RewritingsContext for a caller that already holds
// q's canonical key (key == CanonicalKey(q)), like the facade preparing
// a plan it keyed for the cache: the search seeds its dedup set with
// key instead of rendering it again.
func (rw *Rewriter) SearchContext(ctx context.Context, q *ir.Query, key string) ([]*Rewriting, error) {
	return rw.rewritings(rw.newSearchTask(ctx), q, key)
}

// rewritings returns q's rewritings; key is q's canonical key, or empty
// to derive it.
func (rw *Rewriter) rewritings(st *searchTask, q *ir.Query, key string) ([]*Rewriting, error) {
	limit := rw.Opts.MaxRewritings
	if limit <= 0 {
		limit = 128
	}
	sp := obs.SpanFrom(st.ctx)
	detail := eventsFor(sp)
	all := rw.Views.All()
	views := make([]*viewFacts, len(all))
	for i, v := range all {
		views[i] = rw.viewFacts(v)
	}
	// A frontier entry pairs a committed rewriting with the facts of its
	// query; every job of the wave that extends it reads the same facts.
	type entry struct {
		cur *Rewriting
		qf  *queryFacts
	}
	root := rw.newQueryFacts(q, key)
	// seen holds the facts of every query reached, by FROM multiset: a
	// new rewriting is compared, by canonical key, only with those.
	seen := map[string][]*queryFacts{root.from(): {root}}
	var results []*Rewriting
	frontier := []entry{{&Rewriting{Query: q}, root}}
	wave := 0
	for len(frontier) > 0 && len(results) < limit {
		wave++
		type job struct {
			entry
			vf *viewFacts
		}
		jobs := make([]job, 0, len(frontier)*len(views))
		for _, e := range frontier {
			for _, vf := range views {
				jobs = append(jobs, job{e, vf})
			}
		}
		sp.Wave(len(jobs), len(frontier))
		steps := make([][]step, len(jobs))
		events := make([][]obs.Candidate, len(jobs))
		errs := make([]error, len(jobs))
		for i, j := range jobs {
			steps[i], events[i], errs[i] = rw.rewriteOnce(st, j.qf, j.vf, detail)
			if errs[i] != nil {
				break
			}
		}
		// An aborted wave returns no partial results.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for i := range events {
			for p := range events[i] {
				events[i][p].Wave = wave
			}
		}
		// Flush emits the wave's events in job order after the commit
		// loop has retagged them.
		flush := func() {
			for i := range events {
				sp.AddCandidates(events[i]...)
			}
		}
		var nextFrontier []entry
		for i, j := range jobs {
			cur := j.cur
			// Accept events correspond 1:1, in order, to steps[i]; the
			// commit loop retags the ones the global dedup discards.
			var acceptPos []int
			for p := range events[i] {
				if events[i][p].Verdict == obs.VerdictAccept {
					acceptPos = append(acceptPos, p)
				}
			}
			for si, s := range steps[i] {
				from := s.qf.from()
				if slices.ContainsFunc(seen[from], s.qf.sameQuery) {
					if si < len(acceptPos) {
						e := &events[i][acceptPos[si]]
						e.Verdict = obs.VerdictDedup
						e.Reason = "rewriting already reached via an earlier search path (canonical key match)"
					}
					continue
				}
				seen[from] = append(seen[from], s.qf)
				combined := &Rewriting{
					Query:           s.r.Query,
					Aux:             append(append([]*ir.ViewDef{}, cur.Aux...), s.r.Aux...),
					Used:            append(append([]string{}, cur.Used...), j.vf.def.Name),
					SetOnly:         cur.SetOnly || s.r.SetOnly,
					Notes:           append(append([]string{}, cur.Notes...), s.r.Notes...),
					groupPreserving: s.r.groupPreserving,
				}
				results = append(results, combined)
				nextFrontier = append(nextFrontier, entry{combined, s.qf})
				if len(results) >= limit {
					if detail == fullEvents {
						annotateUncommitted(events, i, acceptPos, si)
					}
					flush()
					return results, nil
				}
			}
		}
		flush()
		frontier = nextFrontier
	}
	return results, nil
}

// annotateUncommitted marks accept events the MaxRewritings cut left
// uncommitted: job i's accepts after step index si, and every accept of
// the jobs after i. The candidates passed their usability analysis —
// the verdict stands — but the reason records that the enumeration
// stopped before admitting them.
func annotateUncommitted(events [][]obs.Candidate, i int, acceptPos []int, si int) {
	const cut = "accepted by analysis, but MaxRewritings cut the enumeration before commit"
	for _, p := range acceptPos[si+1:] {
		events[i][p].Reason = cut
	}
	for j := i + 1; j < len(events); j++ {
		for p := range events[j] {
			if events[j][p].Verdict == obs.VerdictAccept {
				events[j][p].Reason = cut
			}
		}
	}
}

// CanonicalKey renders a query in a canonical form that is invariant
// under FROM-clause reordering and WHERE-conjunct rewriting, so that
// semantically identical query shapes share one key. The rewrite search
// uses it to deduplicate candidates (canonicalKey below); the serving
// layer uses it as the prepared-plan cache key, so repeated query
// shapes skip the rewrite search entirely. Collision-freedom is the
// invariant TestCanonicalKeyCollisions guards.
func CanonicalKey(q *ir.Query) string { return canonicalKey(q) }

// canonicalKey renders a query in a canonical form that is invariant
// under FROM-clause reordering (and the column renumbering it induces),
// so that rewritings reached by different view orders deduplicate
// (the Church-Rosser property of Theorem 3.2).
func canonicalKey(q *ir.Query) string {
	// CloseCached: a served query's key is derived per request and its
	// search closes the same conjunction right after.
	return canonicalKeyOf(q, constraints.CloseCached(aggreason.WhereConj(q)))
}

// fromKey renders q's FROM multiset as canonicalKeyOf lists it, joined
// by spaces: keyEscape leaves none in a source, and queries with equal
// keys have equal fromKeys.
func fromKey(q *ir.Query) string {
	if len(q.Tables) == 1 {
		return keyEscape(q.Tables[0].Source)
	}
	perm := canonicalOrder(q)
	srcs := make([]string, len(perm))
	for i, ti := range perm {
		srcs[i] = keyEscape(q.Tables[ti].Source)
	}
	return strings.Join(srcs, " ")
}

// canonicalKeyOf is canonicalKey given cl, the closure of q's WHERE
// conjunction. Tables are listed in canonical order and columns carry
// the names that order would give them; nothing else of the reordered
// query is needed, so it is never built.
func canonicalKeyOf(q *ir.Query, cl *constraints.Closure) string {
	perm := canonicalOrder(q)
	names := canonicalNames(q, perm)
	name := func(c ir.ColID) string { return names[c] }
	// The WHERE clause is canonicalized through its deductive closure:
	// logically equivalent conjunctions (e.g. equality chains written
	// with different spanning trees) must produce the same key. Which
	// side of an atom the closure lists first depends on column numbers,
	// so each atom is rendered both ways round and the smaller kept.
	// SELECT and HAVING keep their order (SELECT order is semantically
	// relevant).
	preds := []string{"FALSE"}
	if cl.Sat() {
		atoms := cl.Atoms()
		preds = make([]string, len(atoms))
		for i, at := range atoms {
			s := termKeyName(names, at.L) + " " + opKeyName(at.Op) + " " + termKeyName(names, at.R)
			if f := termKeyName(names, at.R) + " " + opKeyName(at.Op.Flip()) + " " + termKeyName(names, at.L); f < s {
				s = f
			}
			preds[i] = s
		}
		sort.Strings(preds)
	}
	groups := make([]string, len(q.GroupBy))
	for i, g := range q.GroupBy {
		groups[i] = keyEscape(names[g])
	}
	sort.Strings(groups)
	sel := make([]string, len(q.Select))
	for i, it := range q.Select {
		sel[i] = keyEscape(q.ExprSQLNamed(it.Expr, name))
	}
	hav := make([]string, len(q.Having))
	for i, h := range q.Having {
		hav[i] = keyEscape(q.ExprSQLNamed(h.L, name)) + " " + opKeyName(h.Op) + " " + keyEscape(q.ExprSQLNamed(h.R, name))
	}
	sort.Strings(hav)
	srcs := make([]string, len(perm))
	for i, ti := range perm {
		srcs[i] = keyEscape(q.Tables[ti].Source)
	}
	// Each list renders as fmt's %v renders a []string — its elements
	// joined with a space and wrapped in brackets; keyEscape has removed
	// both characters from every element, so the rendering is
	// unambiguous — into one buffer sized for the whole key.
	n := len("D=false S= F= W= G= H=")
	for _, l := range [...][]string{sel, srcs, preds, groups, hav} {
		n += 2 + len(l)
		for _, e := range l {
			n += len(e)
		}
	}
	b := make([]byte, 0, n)
	b = strconv.AppendBool(append(b, "D="...), q.Distinct)
	b = appendKeyList(append(b, " S="...), sel)
	b = appendKeyList(append(b, " F="...), srcs)
	b = appendKeyList(append(b, " W="...), preds)
	b = appendKeyList(append(b, " G="...), groups)
	b = appendKeyList(append(b, " H="...), hav)
	return string(b)
}

// appendKeyList appends parts, already escaped, as fmt's %v renders a
// []string: joined with single spaces inside brackets.
func appendKeyList(b []byte, parts []string) []byte {
	b = append(b, '[')
	for i, p := range parts {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, p...)
	}
	return append(b, ']')
}

// keyEscapeSet lists the characters the canonical-key renderings use
// as structure: '%' (the escape introducer itself), the space and
// comma delimiters, the %v slice brackets, and '='/';' separators.
const keyEscapeSet = "% ,[]=;"

const hexUpper = "0123456789ABCDEF"

// keyEscape percent-escapes the key-structure characters of one
// fragment so data bytes can never masquerade as key structure — the
// collision-freedom invariant the keyescape analyzer enforces
// statically and TestCanonicalKeyCollisions probes dynamically.
// Identifier-shaped fragments (the common case) pass through
// unchanged, keeping the hot plan-cache path allocation-free.
func keyEscape(s string) string {
	if !strings.ContainsAny(s, keyEscapeSet) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if strings.IndexByte(keyEscapeSet, c) >= 0 {
			b.WriteByte('%')
			b.WriteByte(hexUpper[c>>4])
			b.WriteByte(hexUpper[c&0xF])
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// termKeyName renders one closure term for the canonical key, escaped;
// names are the query's canonical column names.
func termKeyName(names []string, t constraints.Term) string {
	if t.IsConst {
		return keyEscape(t.C.String())
	}
	return keyEscape(names[t.V])
}

// opKeyName renders a comparison operator for the canonical key,
// escaped (operators contain '=', which is also the key's field
// separator). The three that contain it are spelled out escaped, so a
// key's atoms allocate nothing for their operators;
// TestOpKeyNameIsEscaped holds them to keyEscape.
func opKeyName(op ir.Op) string {
	switch op {
	case ir.OpEq:
		return "%3D"
	case ir.OpLeq:
		return "<%3D"
	case ir.OpGeq:
		return ">%3D"
	}
	return keyEscape(op.String())
}

// canonicalOrder picks a deterministic table permutation: sources in
// lexicographic order, ties broken by each occurrence's original index
// (occurrences of the same source are interchangeable only up to their
// column roles, which the textual key then distinguishes; a rare
// imperfect dedup produces a duplicate-but-equivalent rewriting, never a
// lost one).
func canonicalOrder(q *ir.Query) []int {
	perm := make([]int, len(q.Tables))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		sa, sb := q.Tables[perm[a]].Source, q.Tables[perm[b]].Source
		if sa != sb {
			return sa < sb
		}
		return perm[a] < perm[b]
	})
	return perm
}

// canonicalNames returns, per column of q, the unique name the column
// would carry were q's tables listed in the order perm — the bare
// attribute when it is unique across the query, otherwise attr_<k>
// numbered per occurrence in that order (ir.Query's own naming rule).
func canonicalNames(q *ir.Query, perm []int) []string {
	count := make(map[string]int, q.NumCols())
	for _, t := range q.Tables {
		for _, id := range t.Cols {
			count[q.Col(id).Attr]++
		}
	}
	names := make([]string, q.NumCols())
	seen := map[string]int{}
	for _, ti := range perm {
		for _, id := range q.Tables[ti].Cols {
			attr := q.Col(id).Attr
			if count[attr] == 1 {
				names[id] = attr
			} else {
				seen[attr]++
				names[id] = attr + "_" + strconv.Itoa(seen[attr])
			}
		}
	}
	return names
}
