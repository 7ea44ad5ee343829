package core

import (
	"aggview/internal/ir"
	"aggview/internal/keys"
)

// ViewUsability explains, for one registered view, whether the rewriter
// can use it to answer a query and — when it cannot — which usability
// conditions (C1–C4 of the paper, plus the Section 4.5 multiset
// restriction) fail and why. It is the introspection counterpart of
// RewriteOnceContext: the same analysis runs, but the per-mapping failure
// reasons that RewriteOnceContext discards are collected instead.
type ViewUsability struct {
	// View is the view name.
	View string
	// Mappings counts the 1-1 column mappings that were tried.
	Mappings int
	// Usable reports whether at least one mapping yielded a rewriting.
	Usable bool
	// Failures lists distinct failure reasons across the mappings tried
	// (empty when Usable and every mapping succeeded).
	Failures []string
}

// ExplainUsability runs the usability analysis of every registered view
// against q, keeping the failure reasons. Views appear in registry
// order; the result is deterministic.
func (rw *Rewriter) ExplainUsability(q *ir.Query) []ViewUsability {
	var out []ViewUsability
	qf := rw.newQueryFacts(q)
	for _, v := range rw.Views.All() {
		out = append(out, rw.explainView(qf, rw.viewFacts(v)))
	}
	return out
}

func (rw *Rewriter) explainView(qf *queryFacts, vf *viewFacts) ViewUsability {
	u := ViewUsability{View: vf.def.Name}
	seen := map[string]bool{}
	fail := func(msg string) {
		if !seen[msg] {
			seen[msg] = true
			u.Failures = append(u.Failures, msg)
		}
	}

	qn, vn := qf.qn, vf.vn

	// Section 4.5 multiset restriction (mirrors RewriteOnceContext).
	multisetUsable := !vn.Distinct && (qf.isAgg || !vf.isAgg)
	if !multisetUsable {
		if vn.Distinct {
			fail("condition C1: the view is DISTINCT, so its result is a set and the query's tuple multiplicities cannot be preserved (Section 4.5)")
		} else {
			fail("condition C1: an aggregation view loses tuple multiplicities and cannot answer a non-aggregation query under multiset semantics (Section 4.5)")
		}
	}

	ms := enumerateMappings(vn, qn, false)
	u.Mappings = len(ms)
	if len(ms) == 0 {
		fail("condition C1: no column mapping exists — the view's table instances cannot be mapped one-to-one onto the query's")
	} else if multisetUsable {
		for _, m := range ms {
			if _, err := newAnalyzer(rw, qf, vf, m, false).analyze(); err != nil {
				fail(err.Error())
			} else {
				u.Usable = true
			}
		}
	}

	// Section 5 relaxation: both results provably sets. Failures on this
	// path largely repeat the multiset ones, so only success is recorded.
	if qf.isSet && !vf.isAgg && keys.IsSetResult(vn, rw.meta()) {
		for _, m := range enumerateMappings(vn, qn, true) {
			if _, err := newAnalyzer(rw, qf, vf, m, true).analyze(); err == nil {
				u.Usable = true
			}
		}
	}
	return u
}
