package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
	"aggview/internal/sqlparser"
)

// Config sizes the serving facade.
type Config struct {
	// CacheSize bounds the prepared-plan cache in entries; 0 means the
	// default (256), negative disables caching.
	CacheSize int
	// MaxConcurrent bounds queries executing simultaneously; 0 means
	// the default (4 × GOMAXPROCS), negative disables the gate.
	MaxConcurrent int
	// QueueDepth bounds requests waiting at the global gate; 0 means
	// the default (64).
	QueueDepth int
	// MaxWait bounds the wait at the global gate; 0 means 500ms.
	MaxWait time.Duration
	// DefaultTenant is the admission config for tenants not listed in
	// Tenants (the zero value means unlimited rate, no engine budgets).
	DefaultTenant TenantConfig
	// Tenants holds per-tenant admission configs.
	Tenants map[string]TenantConfig
	// Metrics receives request, cache, shed and latency counters; a
	// fresh registry is created when nil. The registry is also installed
	// on the system so engine kernel counters flow into the same place.
	Metrics *obs.Metrics
	// FlightRecorder bounds the span flight recorder (GET
	// /debug/flightrec) in entries; 0 means the default (256), negative
	// disables request spans entirely — the hot path then allocates
	// nothing for telemetry beyond per-tenant counters.
	FlightRecorder int
	// SlowLogSize bounds the slow-query log (GET /debug/slowlog) in
	// retained entries; 0 means the default (64), negative disables
	// slow-query capture regardless of tenant thresholds.
	SlowLogSize int
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxWait == 0 {
		c.MaxWait = 500 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	if c.FlightRecorder == 0 {
		c.FlightRecorder = 256
	}
	if c.SlowLogSize == 0 {
		c.SlowLogSize = 64
	}
	return c
}

// Server is the multi-tenant HTTP facade over one aggview.System. All
// access to the system goes through an RWMutex: queries share a read
// lock, mutations (inserts, fault installation) take the write lock,
// so the engine's "no Put during queries" rule holds under concurrent
// clients. Plan-cache invalidation is wired to the database's
// invalidation hook, so every mutation path evicts the plans it could
// stale.
type Server struct {
	sys     *aggview.System
	cfg     Config
	metrics *obs.Metrics
	cache   *PlanCache
	adm     *Admission
	flight  *obs.FlightRecorder
	slow    *SlowLog
	mux     *http.ServeMux

	// mu serializes mutations against in-flight queries.
	mu sync.RWMutex
	// faults, while a fault window is open (/admin/faults), is the
	// error-injecting store each request lays over its pinned snapshot,
	// all of them counting down together. Guarded by mu.
	faults *engine.FaultStorage
}

// New wraps a loaded system in a serving facade. It installs the plan
// cache's eviction on the database's invalidation hook and the metrics
// registry on the system; both are undone by Close.
func New(sys *aggview.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:     sys,
		cfg:     cfg,
		metrics: cfg.Metrics,
		cache:   NewPlanCache(cfg.CacheSize, cfg.Metrics),
		adm:     NewAdmission(cfg.DefaultTenant, cfg.Tenants, cfg.MaxConcurrent, cfg.QueueDepth, cfg.MaxWait, cfg.Metrics),
		flight:  obs.NewFlightRecorder(cfg.FlightRecorder),
		slow:    NewSlowLog(cfg.SlowLogSize),
	}
	if sys.Metrics == nil {
		sys.Metrics = cfg.Metrics
	}
	sys.DB.SetOnInvalidate(s.cache.InvalidateRelation)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /insert", s.handleInsert)
	s.mux.HandleFunc("POST /delete", s.handleDelete)
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	s.mux.HandleFunc("POST /admin/faults", s.handleFaults)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /script", s.handleScript)
	s.mux.HandleFunc("GET /debug/flightrec", s.handleFlightRec)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowLog)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close detaches the server from its system (invalidation hook,
// metrics stay). Safe to call once no requests are in flight.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.DB.SetOnInvalidate(nil)
}

// Cache exposes the plan cache (tests and /metrics).
func (s *Server) Cache() *PlanCache { return s.cache }

// Admission exposes the admission controller (tests and /metrics).
func (s *Server) Admission() *Admission { return s.adm }

// badQueryError tags parse/plan-stage failures so they map to 400
// rather than 500.
type badQueryError struct{ err error }

func (e *badQueryError) Error() string { return e.err.Error() }
func (e *badQueryError) Unwrap() error { return e.err }

// handleQuery is the hot path: admit, budget, plan through the cache,
// execute, encode. The result stays typed columns from the engine to the
// body (ExecPreparedColumns, appendQueryColumns), and the body is encoded
// in full before the first byte is written, so a client never observes a
// partial result — any failure, including a storage fault mid-query or a
// result too large to send, surfaces as a complete typed JSON error.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, "", ErrKindBadRequest, http.StatusBadRequest, err)
		return
	}
	tenant := req.Tenant
	s.metrics.Volatile("server.requests").Inc()
	s.metrics.Volatile("server.tenant." + tenantLabel(tenant) + ".requests").Inc()

	// A span is created only when something will consume it (the flight
	// recorder, or a slow-query threshold for this tenant); with both
	// disabled the whole pipeline records through nil no-ops and the hot
	// path allocates nothing for telemetry.
	var span *obs.Span
	if s.flight.Enabled() || (s.slow.Enabled() && s.adm.Config(tenant).SlowQueryNs > 0) {
		span = obs.NewSpan(tenant, req.SQL)
	}

	admStart := time.Now()
	cfg, release, err := s.adm.Acquire(r.Context(), tenant)
	span.SetAdmissionWait(time.Since(admStart))
	if err != nil {
		s.finishSpan(span, tenant, nil, err)
		s.writeTypedError(w, tenant, err)
		return
	}
	defer release()

	ctx := r.Context() // canceled when the client disconnects
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	if cfg.MaxRows > 0 || cfg.MaxCandidates > 0 || cfg.MaxMemBytes > 0 {
		ctx = budget.WithMeter(ctx, budget.NewMeter(budget.Limits{
			MaxRows:       cfg.MaxRows,
			MaxCandidates: cfg.MaxCandidates,
			MaxMemBytes:   cfg.MaxMemBytes,
		}))
	}
	ctx = obs.WithSpan(ctx, span)
	meter := budget.MeterFrom(ctx)

	// Resolve the plan and pin a consistent version of every relation
	// under a brief read lock, then run lock-free. Mutation batches
	// installing new relation versions concurrently never disturb the
	// pinned ones, so the query reads one materialization state end to end
	// and writers are not stalled behind long scans. An open fault window
	// fails the scans of the pinned versions: the same path, one store
	// laid over another.
	var (
		res   *engine.ColTable
		snap  *engine.Snapshot
		store engine.Storage
	)
	s.mu.RLock()
	p, verdict, err := s.resolve(ctx, req.SQL)
	if err == nil {
		snap = s.sys.DB.Snapshot()
		store = snap
		if s.faults != nil {
			store = s.faults.Over(snap)
		}
	}
	s.mu.RUnlock()
	if err == nil {
		res, err = s.sys.ExecPreparedColumns(ctx, p, store)
	}
	elapsedNs := time.Since(start).Nanoseconds()

	span.SetCache(verdict)
	span.SetBudget(meter.Rows(), meter.Candidates(), meter.Mem())
	if err != nil {
		s.finishSpan(span, tenant, meter, err)
		s.writeTypedError(w, tenant, err)
		return
	}
	rec := s.finishSpan(span, tenant, meter, nil)
	if s.slow.Enabled() && cfg.SlowQueryNs > 0 && elapsedNs >= cfg.SlowQueryNs {
		// The pinned snapshot is immutable, so the repro renders exactly
		// the state the query read — no lock needed.
		attrs, rows := EncodeRelation(res.Relation())
		s.slow.Add(SlowEntry{
			Tenant:      tenant,
			SQL:         req.SQL,
			ElapsedNs:   elapsedNs,
			ThresholdNs: cfg.SlowQueryNs,
			Cache:       verdict,
			Script:      s.script(snap.Relation) + req.SQL + ";\n",
			Attrs:       attrs,
			Rows:        rows,
			Span:        rec,
		})
		s.metrics.Volatile("server.slowlog.captured").Inc()
	}

	buf := bodyPool.Get().(*[]byte)
	body, ok := appendQueryColumns((*buf)[:0], res, p.Used, verdict, elapsedNs)
	if ok {
		s.metrics.Volatile("server.tenant." + tenantLabel(tenant) + ".ok").Inc()
		s.metrics.Latency("server.latency." + tenantLabel(tenant)).Observe(elapsedNs)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	} else {
		s.metrics.Volatile("server.tenant." + tenantLabel(tenant) + ".errors").Inc()
		s.metrics.Volatile("server.errors.too_large").Inc()
		s.writeError(w, tenant, ErrKindTooLarge, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: the result's %d rows encode to more than the %d bytes a reply may hold", res.NumRows(), maxResponseBytes))
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyPool.Put(buf)
	}
}

// bodyPool recycles /query response buffers: a reply is encoded in full
// into one, written once, and the buffer returned (a ResponseWriter does
// not retain what it is handed). Buffers grown past maxPooledBody by one
// large result are dropped rather than pinned.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// finishSpan closes the request span with its outcome, records it in
// the flight recorder, bumps the per-tenant error counter, and returns
// the completed record (nil when spans are off).
func (s *Server) finishSpan(span *obs.Span, tenant string, meter *budget.Meter, err error) *obs.SpanRecord {
	if err != nil {
		s.metrics.Volatile("server.tenant." + tenantLabel(tenant) + ".errors").Inc()
	}
	if span == nil {
		return nil
	}
	var rec obs.SpanRecord
	if err != nil {
		rec = span.End(errKind(err), err.Error())
	} else {
		rec = span.End("ok", "")
	}
	s.flight.Record(rec)
	return &rec
}

// resolve turns SQL into a prepared plan through the plan cache: by the
// statement's exact text when the cache has seen it resolve before, else
// by parsing it once to its canonical key, which the cache then
// remembers the text under; a miss prepares that same parse. Caller
// holds the read lock.
func (s *Server) resolve(ctx context.Context, sql string) (*aggview.Prepared, string, error) {
	if p, ok := s.cache.GetByText(sql); ok {
		return p, "hit", nil
	}
	st, err := s.sys.ParseStatement(ctx, sql)
	if err != nil {
		return nil, "", &badQueryError{err}
	}
	p, verdict, err := s.cache.GetOrPrepare(ctx, st.Key, func() (*aggview.Prepared, error) {
		return s.sys.PrepareStatement(ctx, st)
	})
	if err != nil {
		if !budget.IsTransient(err) {
			err = &badQueryError{err}
		}
		return nil, verdict, err
	}
	s.cache.AliasText(sql, st.Key)
	return p, verdict, nil
}

// handleWrite is the one shape of /insert, /delete and /update: decode the
// request into req, pass admission under its tenant, apply it — apply
// takes the write lock around its call into the system — and answer with
// what apply reports or a typed error. Tracked views are maintained by
// the facade inside the same atomic batch; the database's invalidation
// hook then evicts every cached plan that scans the mutated base relation,
// while plans ranging only over maintained views survive warm (their
// materializations are already current) — either way a stale answer
// through the cache is impossible.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request, req any, tenant *string, counter string, apply func(context.Context) (any, error)) {
	if err := decodeBody(r, req); err != nil {
		s.writeError(w, "", ErrKindBadRequest, http.StatusBadRequest, err)
		return
	}
	_, release, err := s.adm.Acquire(r.Context(), *tenant)
	if err != nil {
		s.writeTypedError(w, *tenant, err)
		return
	}
	defer release()
	resp, err := apply(r.Context())
	if err != nil {
		s.writeMutationError(w, *tenant, err)
		return
	}
	s.metrics.Volatile(counter).Inc()
	writeJSON(w, http.StatusOK, resp)
}

// handleInsert appends rows to a base table.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	s.handleWrite(w, r, &req, &req.Tenant, "server.inserts", func(ctx context.Context) (any, error) {
		rows, err := DecodeRows(req.Rows)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return InsertResponse{Inserted: len(rows)}, s.sys.InsertContext(ctx, req.Table, rows...)
	})
}

// handleDelete removes matching rows from a base table.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	s.handleWrite(w, r, &req, &req.Tenant, "server.deletes", func(ctx context.Context) (any, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		n, err := s.sys.DeleteContext(ctx, req.Table, req.Where)
		return DeleteResponse{Deleted: n}, err
	})
}

// handleUpdate rewrites matching rows of a base table.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	s.handleWrite(w, r, &req, &req.Tenant, "server.updates", func(ctx context.Context) (any, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		n, err := s.sys.UpdateContext(ctx, req.Table, req.Set, req.Where)
		return UpdateResponse{Updated: n}, err
	})
}

// handleFaults installs (k > 0) or clears (k = 0) an error-injecting
// storage backend, for the load harness's fault windows.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	var req FaultsRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, "", ErrKindBadRequest, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.faults = nil
	if req.K > 0 {
		s.faults = engine.NewFaultStorage(s.sys.DB, req.K)
	}
	s.mu.Unlock()
	s.metrics.Volatile("server.faults.toggle").Inc()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleMetrics serves sorted, deterministic text lines by default
// (byte-identical across scrapes of an idle server); ?gauges=1 appends
// process gauges (goroutines, heap) for external probes, and
// ?format=json returns the structured MetricsResponse.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, MetricsResponse{
			Metrics:   s.metrics.Snapshot(),
			PlanCache: s.cache.Stats(),
			Admission: AdmissionStats{InFlight: s.adm.InFlight(), Queued: s.adm.Queued()},
		})
		return
	}
	var b strings.Builder
	s.renderMetricsText(&b, r.URL.Query().Get("gauges") == "1")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleScript renders the current catalog, table contents and view
// definitions as a replayable SQL script, so an external load harness
// can build a local reference system to check served answers against.
func (s *Server) handleScript(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	script := s.script(s.sys.DB.Get)
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/sql")
	_, _ = io.WriteString(w, script)
}

// script renders the replayable state script, reading table contents
// through get — the live database (under a lock) or a pinned snapshot
// (lock-free; a snapshot never changes).
func (s *Server) script(get func(string) (*engine.Relation, bool)) string {
	var b strings.Builder
	for _, t := range s.sys.Catalog.Tables() {
		b.WriteString("CREATE TABLE " + t.Name + "(" + strings.Join(t.Columns, ", ") + ")")
		for _, k := range t.Keys {
			b.WriteString(" KEY(" + strings.Join(k, ", ") + ")")
		}
		for _, fd := range t.FDs {
			b.WriteString(" FD(" + strings.Join(fd.From, ", ") + " -> " + strings.Join(fd.To, ", ") + ")")
		}
		b.WriteString(";\n")
		if rel, ok := get(t.Name); ok && rel.Len() > 0 {
			b.WriteString((&sqlparser.Insert{Table: t.Name, Rows: rel.Tuples}).SQL() + ";\n")
		}
	}
	for _, v := range s.sys.Views.All() {
		b.WriteString(v.SQL() + ";\n")
	}
	return b.String()
}

// typedStatus is the HTTP status of each kind errKind returns but shed,
// which writeTypedError answers with its Retry-After.
var typedStatus = map[string]int{
	ErrKindCanceled: http.StatusGatewayTimeout,
	ErrKindBudget:   http.StatusUnprocessableEntity,
	ErrKindStorage:  http.StatusBadGateway,
	ErrKindBadQuery: http.StatusBadRequest,
	ErrKindOverflow: http.StatusUnprocessableEntity,
	ErrKindInternal: http.StatusInternalServerError,
}

// writeTypedError maps an execution error onto the wire taxonomy
// (errKind), counting it on server.errors.<kind>.
func (s *Server) writeTypedError(w http.ResponseWriter, tenant string, err error) {
	kind := errKind(err)
	s.metrics.Volatile("server.errors." + kind).Inc()
	var shed *ShedError
	if !errors.As(err, &shed) {
		s.writeError(w, tenant, kind, typedStatus[kind], err)
		return
	}
	we := &WireError{Kind: kind, Message: err.Error(), Tenant: tenant, RetryAfterMs: shed.RetryAfter.Milliseconds()}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(shed.RetryAfter/time.Second)+1))
	writeJSON(w, http.StatusTooManyRequests, ErrorBody{Error: we})
}

// writeMutationError maps a facade error from /insert, /delete or
// /update: an abort during maintenance (cancellation, budget, injected
// storage fault) keeps its kind, a write a declared key or FD refuses is
// a 409 conflict, anything else — a parse error, an unknown table or
// column, an arity mismatch — is the client's request.
func (s *Server) writeMutationError(w http.ResponseWriter, tenant string, err error) {
	var conflict *engine.KeyError
	switch {
	case budget.IsTransient(err) || faultinject.IsInjected(err):
		s.writeTypedError(w, tenant, err)
	case errors.As(err, &conflict):
		s.metrics.Volatile("server.errors.conflict").Inc()
		s.writeError(w, tenant, ErrKindConflict, http.StatusConflict, err)
	default:
		s.writeError(w, tenant, ErrKindBadRequest, http.StatusBadRequest, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, tenant, kind string, status int, err error) {
	writeJSON(w, status, ErrorBody{Error: &WireError{Kind: kind, Message: err.Error(), Tenant: tenant}})
}

// writeJSON marshals fully, then writes headers and body in one go —
// the invariant that makes partial response bodies impossible.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshalling our own response types cannot fail; defend anyway.
		http.Error(w, `{"error":{"kind":"internal","message":"encode failure"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// decodeBody decodes a request body that is one JSON value and nothing
// else: unknown fields and anything but whitespace after the value are
// errors.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("server: bad request body: data after the JSON value")
	}
	return nil
}
