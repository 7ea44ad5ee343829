// Package obs is the zero-dependency observability layer threaded
// through the rewriter and the execution engine (DESIGN.md section 9).
// It has two halves:
//
//   - Tracer records the rewrite search: every candidate (query, view,
//     mapping) triple the BFS analyzes, with its usability verdict
//     (accept / reject / dedup), the failed condition (C1–C4 and their
//     primed variants), the BFS wave it was analyzed in, and the
//     graceful degradations (Fallback) of the facade's plan choice.
//   - Metrics (metrics.go) is an atomic counter/histogram registry the
//     engine kernels and caches report into.
//
// Both are nil-safe: a nil *Tracer and a nil *Metrics are valid no-op
// instances, and the no-op paths are allocation-free, so the hot
// kernels carry instrumentation hooks at zero cost when nobody is
// observing. Producers guard expensive event construction (SQL
// rendering, mapping formatting) behind Enabled().
//
// All types are safe for concurrent use: the rewrite search analyzes
// candidates on a worker pool and the engine fans kernels out, so
// events may arrive from several goroutines. Determinism of the
// *content* is the producer's contract (the rewriter commits events in
// serial BFS order; see core.Rewriter.RewritingsContext), not the tracer's.
package obs

import "sync"

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
// rewrite search — the per-pair reasoning RewriteOnceContext used to discard.
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

// Fallback records a graceful degradation: an operation abandoned its
// preferred strategy (e.g. rewrite search hit its candidate budget) and
// fell back to a cheaper one (direct evaluation), tagging the result's
// provenance so a budget-shaped answer is never mistaken for a
// search-shaped one.
type Fallback struct {
	// Op names the facade operation that degraded (e.g. "Plan").
	Op string `json:"op"`
	// Reason is the triggering error's message (e.g. the budget.Exceeded
	// rendering).
	Reason string `json:"reason"`
}

// Trace is an immutable snapshot of everything a Tracer recorded.
type Trace struct {
	// Waves is the number of BFS waves the search ran.
	Waves int `json:"waves"`
	// Jobs is the total number of (candidate, view) pairs dispatched.
	Jobs int `json:"jobs"`
	// MaxFrontier is the widest BFS frontier observed — the search's
	// peak queue depth.
	MaxFrontier int `json:"max_frontier"`
	// Candidates lists every analyzed candidate in commit order (serial
	// BFS order, byte-identical at every worker count).
	Candidates []Candidate `json:"candidates"`
	// Fallbacks lists graceful degradations, in occurrence order.
	Fallbacks []Fallback `json:"fallbacks,omitempty"`
}

// Tracer accumulates rewrite-search events. The zero value is ready to
// use; a nil *Tracer is a valid no-op sink.
type Tracer struct {
	mu    sync.Mutex
	trace Trace
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether events will be recorded. Producers use it to
// skip event construction entirely on the no-op path.
func (t *Tracer) Enabled() bool { return t != nil }

// Candidates appends analyzed candidates in the order given.
func (t *Tracer) Candidates(evs ...Candidate) {
	if t == nil || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	t.trace.Candidates = append(t.trace.Candidates, evs...)
	t.mu.Unlock()
}

// Wave records one completed BFS wave: the number of (candidate, view)
// jobs it dispatched and the frontier width it started from.
func (t *Tracer) Wave(jobs, frontier int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trace.Waves++
	t.trace.Jobs += jobs
	if frontier > t.trace.MaxFrontier {
		t.trace.MaxFrontier = frontier
	}
	t.mu.Unlock()
}

// Fallback records one graceful degradation.
func (t *Tracer) Fallback(op, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trace.Fallbacks = append(t.trace.Fallbacks, Fallback{Op: op, Reason: reason})
	t.mu.Unlock()
}

// Snapshot returns a deep copy of the recorded trace; a nil tracer
// yields the zero Trace.
func (t *Tracer) Snapshot() Trace {
	if t == nil {
		return Trace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.trace
	out.Candidates = append([]Candidate{}, t.trace.Candidates...)
	out.Fallbacks = append([]Fallback{}, t.trace.Fallbacks...)
	return out
}

// Reset clears the recorded trace, keeping the tracer attached.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trace = Trace{}
	t.mu.Unlock()
}
