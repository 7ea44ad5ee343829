package core

import (
	"context"
	"slices"

	"aggview/internal/ir"
	"aggview/internal/obs"
)

// ViewUsability explains, for one registered view, whether the rewriter
// can use it to answer a query and — when it cannot — which usability
// conditions (C1–C4 of the paper, plus the Section 4.5 multiset
// restriction) fail and why. It is a summary of the search's own
// single-step analysis (the verdicts RewriteOnceContext records), not a
// second analysis.
type ViewUsability struct {
	// View is the view name.
	View string `json:"view"`
	// Mappings counts the 1-1 column mappings of the view into the query.
	Mappings int `json:"mappings"`
	// Usable reports whether the search accepted at least one mapping.
	Usable bool `json:"usable"`
	// Failures lists the distinct reasons the search rejected a mapping
	// under multiset semantics, in analysis order, and names a missing
	// column mapping (empty when every such mapping succeeded).
	Failures []string `json:"failures,omitempty"`
}

// noMapping is the failure reported for a view with no 1-1 column
// mapping into the query.
const noMapping = "condition C1: no column mapping exists — the view's table instances cannot be mapped one-to-one onto the query's"

// ExplainUsability runs the search's single-step analysis of every
// registered view against q and folds its verdicts into one
// ViewUsability per view, in registry order; the result is
// deterministic. The analysis is bounded like the search's:
// cancellation, deadline expiry and an exhausted candidate budget abort
// it with a typed error and no partial result. It records nothing on
// the context's span.
func (rw *Rewriter) ExplainUsability(ctx context.Context, q *ir.Query) ([]ViewUsability, error) {
	st := rw.newSearchTask(ctx)
	qf := rw.newQueryFacts(q, "")
	var out []ViewUsability
	for _, v := range rw.Views.All() {
		vf := rw.viewFacts(v)
		_, events, err := rw.rewriteOnce(st, qf, vf, fullEvents)
		if err != nil {
			return nil, err
		}
		u := ViewUsability{View: v.Name, Mappings: len(enumerateMappings(vf.vn, qf.qn, false))}
		for _, ev := range events {
			switch {
			case ev.Verdict == obs.VerdictAccept:
				u.Usable = true
			case ev.Verdict == obs.VerdictReject && !ev.SetSemantics && !slices.Contains(u.Failures, ev.Reason):
				u.Failures = append(u.Failures, ev.Reason)
			}
		}
		if u.Mappings == 0 {
			u.Failures = append(u.Failures, noMapping)
		}
		out = append(out, u)
	}
	return out, nil
}
