package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is the request-scoped telemetry record: one per served query,
// carried through the whole stack (server -> facade -> rewrite search ->
// morsel execution -> Storage.Scan) via context.Context. It accumulates
// per-stage durations, the rewrite search's wave counters and candidate
// verdicts (every candidate in full, after RecordCandidates), the
// plan-cache verdict, admission wait and budget consumption.
//
// Like the rest of the package a nil *Span is a valid no-op: every
// method returns immediately without allocating, so the kernels record
// into the span unconditionally and a server with telemetry disabled
// pays nothing on the hot path.
//
// The PR 4 deterministic/volatile split applies field-wise, not
// type-wise: span IDs, start timestamps and every duration are volatile
// (scheduling- and clock-dependent), while the stage *structure* (names,
// order, row counts, details), the search's counters and candidates,
// cache verdict and budget row/candidate consumption are deterministic —
// byte-identical across Opts.Workers settings for a fixed call sequence.
// SpanRecord.Deterministic renders exactly the deterministic half.
type Span struct {
	mu    sync.Mutex
	rec   SpanRecord
	start time.Time
	// keep is set by RecordCandidates: AddCandidates appends to
	// rec.Candidates instead of only counting verdicts.
	keep bool
}

// spanIDs hands out process-unique span IDs (volatile by definition).
var spanIDs atomic.Uint64

// NewSpan starts a span for one request. Tenant and SQL identify the
// request in flight-recorder and slow-query-log output.
func NewSpan(tenant, sql string) *Span {
	now := time.Now()
	return &Span{
		rec: SpanRecord{
			ID:          spanIDs.Add(1),
			Tenant:      tenant,
			SQL:         sql,
			StartUnixNs: now.UnixNano(),
		},
		start: now,
	}
}

// Enabled reports whether stage/verdict recording will be retained.
// Producers use it to skip expensive detail construction on the no-op
// path.
func (s *Span) Enabled() bool { return s != nil }

// RecordCandidates makes the span keep every rewrite-search candidate
// in full (SpanRecord.Candidates) instead of only counting verdicts —
// the detail mode of `aggview explain -trace` and the search's golden
// tests. Call it before the span is attached to a context.
func (s *Span) RecordCandidates() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.keep = true
	s.mu.Unlock()
}

// RecordingCandidates reports whether the span keeps candidates in full.
// The search renders a candidate's SQL, mapping and notes only when it
// does; a plain span gets the verdict alone.
func (s *Span) RecordingCandidates() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keep
}

// spanKey is the context key for the request span.
type spanKey struct{}

// WithSpan attaches a span to the context; a nil span returns ctx
// unchanged so disabled telemetry adds no context layer.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the context's span, or nil (a valid no-op span) when
// none is attached.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// SpanStage is one recorded stage of a span. Name, Rows and Detail are
// deterministic; DurationNs is volatile.
type SpanStage struct {
	// Name is the dotted stage name ("facade.parse", "engine.exec",
	// "scan:orders"). Stage order follows start order, which is
	// deterministic: every stage producer runs on the serial spine of
	// its layer (the facade call sequence, the engine's serial resolve
	// loop), never inside a worker.
	Name string `json:"name"`
	// DurationNs is the stage's wall-clock duration. Volatile.
	DurationNs int64 `json:"duration_ns,omitempty"`
	// Rows is the stage's deterministic row count (scan rows, result
	// rows); 0 when the stage has no natural count.
	Rows int64 `json:"rows,omitempty"`
	// Detail carries deterministic stage annotations (e.g. a fallback
	// reason's operation name).
	Detail string `json:"detail,omitempty"`
}

// SpanVerdicts counts the rewrite-search candidate verdicts observed
// during the request (deterministic: the search commits verdicts in
// serial BFS order at every worker count).
type SpanVerdicts struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Deduped  int64 `json:"deduped"`
}

// SpanBudget is the request's final budget-meter consumption. Rows and
// Candidates are deterministic; MemBytes too (allocation sizes are fixed
// by the data; see engine task.allocBytes).
type SpanBudget struct {
	Rows       int64 `json:"rows"`
	Candidates int64 `json:"candidates"`
	MemBytes   int64 `json:"mem_bytes"`
}

// SpanRecord is the JSON-serializable snapshot of a completed (or
// in-flight) span — the unit stored in the flight recorder and embedded
// in slow-query-log entries.
type SpanRecord struct {
	// Seq is the flight-recorder sequence number (stamped by
	// FlightRecorder.Record; 0 before that). Volatile.
	Seq uint64 `json:"seq,omitempty"`
	// ID is the process-unique span ID. Volatile.
	ID uint64 `json:"id,omitempty"`
	// Tenant is the requesting tenant ("" for the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// SQL is the request's query text.
	SQL string `json:"sql,omitempty"`
	// StartUnixNs is the span's start wall-clock time. Volatile.
	StartUnixNs int64 `json:"start_unix_ns,omitempty"`
	// DurationNs is the span's total duration, set by End. Volatile.
	DurationNs int64 `json:"duration_ns,omitempty"`
	// AdmissionWaitNs is the time spent queued in admission control
	// before execution began. Volatile.
	AdmissionWaitNs int64 `json:"admission_wait_ns,omitempty"`
	// Cache is the plan-cache verdict ("hit", "miss", "bypass").
	Cache string `json:"cache,omitempty"`
	// Stages lists the recorded stages in start order.
	Stages []SpanStage `json:"stages,omitempty"`
	// Verdicts counts the rewrite-search candidate verdicts.
	Verdicts SpanVerdicts `json:"verdicts"`
	// Waves, Jobs and MaxFrontier are the rewrite search's wave
	// bookkeeping: the waves it ran, the (candidate, view) pairs they
	// dispatched and the widest frontier a wave started from.
	Waves       int `json:"waves,omitempty"`
	Jobs        int `json:"jobs,omitempty"`
	MaxFrontier int `json:"max_frontier,omitempty"`
	// Candidates lists every analyzed candidate in commit order; only a
	// span that called RecordCandidates keeps them.
	Candidates []Candidate `json:"candidates,omitempty"`
	// Budget is the final budget-meter consumption.
	Budget SpanBudget `json:"budget"`
	// Outcome classifies how the request ended ("ok" or a wire error
	// kind such as "budget", "canceled", "storage").
	Outcome string `json:"outcome,omitempty"`
	// Error is the failing error's message when Outcome != "ok".
	Error string `json:"error,omitempty"`
}

// SpanTimer times one stage; obtained from StartStage, finished with
// End. The zero SpanTimer (from a nil span) is a no-op that never reads
// the clock.
type SpanTimer struct {
	s     *Span
	idx   int
	start time.Time
}

// StartStage appends a stage and starts its timer. Stages appear in the
// record in StartStage order, so producers must call it from their
// layer's serial spine (facade call sequence, engine's serial resolve
// loop) — never from a pool worker.
func (s *Span) StartStage(name string) SpanTimer {
	if s == nil {
		return SpanTimer{}
	}
	s.mu.Lock()
	idx := len(s.rec.Stages)
	s.rec.Stages = append(s.rec.Stages, SpanStage{Name: name})
	s.mu.Unlock()
	return SpanTimer{s: s, idx: idx, start: time.Now()}
}

// End finishes the stage with its deterministic row count.
func (t SpanTimer) End(rows int64) {
	if t.s == nil {
		return
	}
	d := time.Since(t.start).Nanoseconds()
	t.s.mu.Lock()
	t.s.rec.Stages[t.idx].DurationNs = d
	t.s.rec.Stages[t.idx].Rows = rows
	t.s.mu.Unlock()
}

// Stage records an untimed stage with a row count (e.g. one storage
// scan, whose cost is already inside the enclosing engine.exec stage).
func (s *Span) Stage(name string, rows int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Stages = append(s.rec.Stages, SpanStage{Name: name, Rows: rows})
	s.mu.Unlock()
}

// Event records a zero-duration stage with a deterministic detail
// string (e.g. a budget fallback).
func (s *Span) Event(name, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Stages = append(s.rec.Stages, SpanStage{Name: name, Detail: detail})
	s.mu.Unlock()
}

// SetCache records the plan-cache verdict.
func (s *Span) SetCache(verdict string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Cache = verdict
	s.mu.Unlock()
}

// SetAdmissionWait records the admission-queue wait.
func (s *Span) SetAdmissionWait(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.AdmissionWaitNs = d.Nanoseconds()
	s.mu.Unlock()
}

// Wave records one rewrite-search wave: the (candidate, view) jobs it
// dispatched and the frontier width it started from.
func (s *Span) Wave(jobs, frontier int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Waves++
	s.rec.Jobs += jobs
	s.rec.MaxFrontier = max(s.rec.MaxFrontier, frontier)
	s.mu.Unlock()
}

// AddCandidates tallies analyzed candidates' verdicts and, after
// RecordCandidates, keeps the candidates themselves. The search calls
// this from its serial commit loop, so both are deterministic.
func (s *Span) AddCandidates(evs ...Candidate) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, ev := range evs {
		switch ev.Verdict {
		case VerdictAccept:
			s.rec.Verdicts.Accepted++
		case VerdictDedup:
			s.rec.Verdicts.Deduped++
		default:
			s.rec.Verdicts.Rejected++
		}
	}
	if s.keep {
		s.rec.Candidates = append(s.rec.Candidates, evs...)
	}
	s.mu.Unlock()
}

// SetBudget records the final budget-meter consumption.
func (s *Span) SetBudget(rows, candidates, memBytes int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Budget = SpanBudget{Rows: rows, Candidates: candidates, MemBytes: memBytes}
	s.mu.Unlock()
}

// End closes the span with its outcome ("ok" or a wire error kind) and
// optional error message, stamps the total duration, and returns the
// finished record.
func (s *Span) End(outcome, errMsg string) SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	d := time.Since(s.start).Nanoseconds()
	s.mu.Lock()
	s.rec.DurationNs = d
	s.rec.Outcome = outcome
	s.rec.Error = errMsg
	out := s.snapshotLocked()
	s.mu.Unlock()
	return out
}

// Snapshot returns a deep copy of the span's current record; the zero
// record on a nil span.
func (s *Span) Snapshot() SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Span) snapshotLocked() SpanRecord {
	out := s.rec
	out.Stages = append([]SpanStage{}, s.rec.Stages...)
	out.Candidates = append([]Candidate(nil), s.rec.Candidates...)
	return out
}

// Deterministic renders the record's deterministic half — tenant, SQL,
// cache verdict, outcome, verdict counts, the search's wave counters,
// budget consumption, the stage structure (names, order, rows, details)
// and the candidates when kept — as a stable byte
// string for cross-worker-count comparison. Seq, ID, timestamps and
// every duration are omitted.
func (r SpanRecord) Deterministic() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenant=%s\n", r.Tenant)
	fmt.Fprintf(&b, "sql=%s\n", r.SQL)
	fmt.Fprintf(&b, "cache=%s\n", r.Cache)
	fmt.Fprintf(&b, "outcome=%s\n", r.Outcome)
	if r.Error != "" {
		fmt.Fprintf(&b, "error=%s\n", r.Error)
	}
	fmt.Fprintf(&b, "verdicts accepted=%d rejected=%d deduped=%d\n",
		r.Verdicts.Accepted, r.Verdicts.Rejected, r.Verdicts.Deduped)
	fmt.Fprintf(&b, "search waves=%d jobs=%d max_frontier=%d\n", r.Waves, r.Jobs, r.MaxFrontier)
	fmt.Fprintf(&b, "budget rows=%d candidates=%d mem=%d\n",
		r.Budget.Rows, r.Budget.Candidates, r.Budget.MemBytes)
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "stage %s rows=%d", st.Name, st.Rows)
		if st.Detail != "" {
			fmt.Fprintf(&b, " detail=%s", st.Detail)
		}
		b.WriteByte('\n')
	}
	for _, c := range r.Candidates {
		fmt.Fprintf(&b, "candidate wave=%d view=%s set=%v verdict=%s cond=%s mapping={%s} reason=%s\n  from: %s\n  rewriting: %s\n",
			c.Wave, c.View, c.SetSemantics, c.Verdict, c.Condition, c.Mapping, c.Reason, c.Query, c.Rewriting)
		for _, n := range c.Notes {
			fmt.Fprintf(&b, "  note: %s\n", n)
		}
	}
	return b.String()
}

// SortSpansBySeq orders flight-recorder records by their sequence
// number, oldest first — the single place span collections are ordered,
// so readers see one canonical order.
func SortSpansBySeq(spans []SpanRecord) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
}
