// Package obs is the zero-dependency observability layer threaded
// through the rewriter and the execution engine (DESIGN.md section 9).
// It has two halves:
//
//   - Span (span.go) is the request-scoped record carried on the
//     context: stages, the plan-cache verdict, budget consumption and the
//     rewrite search — its wave counters, its candidate verdict counts
//     and, for a span that asked with RecordCandidates, every candidate
//     (query, view, mapping) triple with its verdict (accept / reject /
//     dedup) and failed condition (C1–C4 and their primed variants).
//   - Metrics (metrics.go) is an atomic counter/histogram registry the
//     engine kernels and caches report into.
//
// Both are nil-safe: a nil *Span and a nil *Metrics are valid no-op
// instances, and the no-op paths are allocation-free, so the hot
// kernels carry instrumentation hooks at zero cost when nobody is
// observing. Producers guard expensive event construction (SQL
// rendering, mapping formatting) behind Span.RecordingCandidates.
//
// All types are safe for concurrent use: the engine fans kernels out,
// so events may arrive from several goroutines. Determinism of the
// *content* is the producer's contract (the rewriter commits events in
// serial order; see core.Rewriter.RewritingsContext).
package obs

// Verdict classifies the outcome of analyzing one rewrite candidate.
type Verdict string

const (
	// VerdictAccept marks a candidate that satisfied every usability
	// condition and produced a new rewriting.
	VerdictAccept Verdict = "accept"
	// VerdictReject marks a candidate that failed a usability condition;
	// the Condition and Reason fields say which and why.
	VerdictReject Verdict = "reject"
	// VerdictDedup marks a candidate whose rewriting was already reached
	// by an earlier mapping or search branch (canonical-key match).
	VerdictDedup Verdict = "dedup"
)

// Candidate is one analyzed (query, view, mapping) triple of the
// rewrite search, with its verdict.
type Candidate struct {
	// Wave is the BFS wave the candidate was analyzed in (1-based;
	// 0 for a direct RewriteOnceContext call outside the BFS).
	Wave int `json:"wave"`
	// Query is the SQL of the candidate query being extended.
	Query string `json:"query"`
	// View names the view the mapping targets.
	View string `json:"view"`
	// Mapping renders the column mapping sigma (view table occurrence ->
	// query table occurrence). Empty when no mapping was enumerable.
	Mapping string `json:"mapping,omitempty"`
	// SetSemantics marks candidates tried under the Section 5
	// relaxation (many-to-1 mappings over provably-set results).
	SetSemantics bool `json:"set_semantics,omitempty"`
	// Verdict is the outcome: accept, reject or dedup.
	Verdict Verdict `json:"verdict"`
	// Condition names the failed usability condition ("C1".."C4",
	// "C2'".."C4'") on reject; empty otherwise or when the failure is
	// not tied to a numbered condition.
	Condition string `json:"condition,omitempty"`
	// Reason is the human-readable verdict explanation (the analyzer's
	// failure message on reject, the dedup cause on dedup).
	Reason string `json:"reason,omitempty"`
	// Rewriting is the SQL of the produced rewriting on accept/dedup.
	Rewriting string `json:"rewriting,omitempty"`
	// Notes carries the analyzer's establishment notes on accept (e.g.
	// the residual Conds' of condition C3).
	Notes []string `json:"notes,omitempty"`
}
