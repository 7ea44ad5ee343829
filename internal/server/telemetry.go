package server

// This file is the request-scoped telemetry surface: the flight
// recorder and slow-query-log endpoints, per-tenant labeled counters
// and latency histograms, and the text rendering of /metrics. See
// DESIGN.md section 13.

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"

	"aggview/internal/budget"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// tenantLabel names a tenant in metric names; the default tenant's
// empty string gets an explicit label so names stay parseable.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// errKind classifies an execution error into the wire taxonomy: the
// span outcome label, and the kind writeTypedError answers.
func errKind(err error) string {
	var shed *ShedError
	var injected *faultinject.Injected
	var badQuery *badQueryError
	var overflow *value.OverflowError
	switch {
	case errors.As(err, &shed):
		return ErrKindShed
	case budget.IsCanceled(err):
		return ErrKindCanceled
	case budget.IsExceeded(err):
		return ErrKindBudget
	case errors.As(err, &injected):
		return ErrKindStorage
	case errors.As(err, &badQuery):
		return ErrKindBadQuery
	case errors.As(err, &overflow):
		return ErrKindOverflow
	default:
		return ErrKindInternal
	}
}

// SlowEntry is one slow-query-log record: the request's identity and
// latency, its completed span, and a self-contained repro — an oracle
// Script-format SQL script (schema, contents, views, and the query as
// the final SELECT) captured under the same read lock as the execution,
// plus the wire-encoded answer the server actually returned. Replaying
// the script offline (oracle.Replay, oraclerunner -replay) must
// reproduce exactly the recorded answer bag: mutations take the write
// lock, so the captured state is the state the query saw.
type SlowEntry struct {
	Tenant      string `json:"tenant,omitempty"`
	SQL         string `json:"sql"`
	ElapsedNs   int64  `json:"elapsed_ns"`
	ThresholdNs int64  `json:"threshold_ns"`
	// Cache is the plan-cache verdict the slow request saw.
	Cache string `json:"cache,omitempty"`
	// Script is the replayable repro.
	Script string `json:"script"`
	// Attrs and Rows are the wire-encoded answer the server returned.
	Attrs []string   `json:"attrs"`
	Rows  [][]string `json:"rows"`
	// Span is the request's completed span record, when spans were on.
	Span *obs.SpanRecord `json:"span,omitempty"`
}

// SlowLog retains the most recent capacity slow-query entries (oldest
// dropped) plus a total-captured counter. A nil *SlowLog is a valid
// disabled log.
type SlowLog struct {
	mu      sync.Mutex
	cap     int
	total   int64
	entries []SlowEntry
}

// NewSlowLog builds a log retaining the last capacity entries; nil (a
// valid disabled log) when capacity <= 0.
func NewSlowLog(capacity int) *SlowLog {
	if capacity <= 0 {
		return nil
	}
	return &SlowLog{cap: capacity}
}

// Enabled reports whether entries are retained.
func (l *SlowLog) Enabled() bool { return l != nil }

// Add appends one entry, dropping the oldest beyond capacity.
func (l *SlowLog) Add(e SlowEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.total++
	l.entries = append(l.entries, e)
	if len(l.entries) > l.cap {
		l.entries = append([]SlowEntry{}, l.entries[len(l.entries)-l.cap:]...)
	}
	l.mu.Unlock()
}

// Snapshot copies the retained entries, oldest first, with the
// total-captured count.
func (l *SlowLog) Snapshot() (total int64, entries []SlowEntry) {
	if l == nil {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total, append([]SlowEntry{}, l.entries...)
}

// FlightRecResponse is the body of GET /debug/flightrec.
type FlightRecResponse struct {
	Capacity int              `json:"capacity"`
	Appended uint64           `json:"appended"`
	Dropped  uint64           `json:"dropped"`
	Spans    []obs.SpanRecord `json:"spans"`
}

// SlowLogResponse is the body of GET /debug/slowlog.
type SlowLogResponse struct {
	// Total counts every slow query captured since startup (retention
	// only bounds Entries).
	Total   int64       `json:"total"`
	Entries []SlowEntry `json:"entries"`
}

// MetricsResponse is the body of GET /metrics?format=json.
type MetricsResponse struct {
	Metrics   obs.Snapshot   `json:"metrics"`
	PlanCache CacheStats     `json:"plan_cache"`
	Admission AdmissionStats `json:"admission"`
}

// AdmissionStats is the admission controller's /metrics summary.
type AdmissionStats struct {
	InFlight int   `json:"in_flight"`
	Queued   int64 `json:"queued"`
}

// handleFlightRec serves the flight recorder's current contents.
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	snap := s.flight.Snapshot()
	spans := snap.Spans
	if spans == nil {
		spans = []obs.SpanRecord{}
	}
	writeJSON(w, http.StatusOK, FlightRecResponse{
		Capacity: snap.Capacity,
		Appended: snap.Appended,
		Dropped:  snap.Dropped,
		Spans:    spans,
	})
}

// handleSlowLog serves the slow-query log.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	total, entries := s.slow.Snapshot()
	if entries == nil {
		entries = []SlowEntry{}
	}
	writeJSON(w, http.StatusOK, SlowLogResponse{Total: total, Entries: entries})
}

// renderMetricsText renders the registry as sorted text lines — the
// default /metrics body. Every section is emitted in sorted name order
// and contains only monotone state, so two scrapes of an idle server
// are byte-identical (the determinism the serve_smoke leak probe and
// TestMetricsTextDeterministic rely on). Process gauges (goroutines,
// heap) are inherently unstable and only appear with ?gauges=1.
func (s *Server) renderMetricsText(b *strings.Builder, gauges bool) {
	snap := s.metrics.Snapshot()
	writeSorted := func(section string, m map[string]int64) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(b, "%s %s %d\n", section, n, m[n])
		}
	}
	writeSorted("counter", snap.Counters)
	writeHists := func(section string, m map[string][]int64) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(b, "%s %s %v\n", section, n, m[n])
		}
	}
	writeHists("hist", snap.Histograms)
	writeSorted("volatile", snap.Volatile)

	edges := obs.LatencyEdgesNs()
	latNames := make([]string, 0, len(snap.Latencies))
	for n := range snap.Latencies {
		latNames = append(latNames, n)
	}
	sort.Strings(latNames)
	for _, n := range latNames {
		ls := snap.Latencies[n]
		fmt.Fprintf(b, "latency %s count=%d sum_ns=%d p50_ns=%d p95_ns=%d p99_ns=%d\n",
			n, ls.Count, ls.SumNs, ls.P50Ns, ls.P95Ns, ls.P99Ns)
		var cum int64
		for i, c := range ls.Buckets {
			cum += c
			if i < len(edges) {
				fmt.Fprintf(b, "latency_bucket %s le=%d %d\n", n, edges[i], cum)
			} else {
				fmt.Fprintf(b, "latency_bucket %s le=+inf %d\n", n, cum)
			}
		}
	}

	cs := s.cache.Stats()
	fmt.Fprintf(b, "plan_cache size %d\n", cs.Size)
	fmt.Fprintf(b, "plan_cache capacity %d\n", cs.Capacity)

	s.mu.RLock()
	modes := s.sys.ViewModes()
	s.mu.RUnlock()
	for _, vm := range modes {
		fmt.Fprintf(b, "maintain.view{name=%q,mode=%q,reason=%q} 1\n", vm.Name, vm.Mode, vm.Reason)
	}

	if gauges {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(b, "gauge server.goroutines %d\n", runtime.NumGoroutine())
		fmt.Fprintf(b, "gauge server.heap_alloc_bytes %d\n", ms.HeapAlloc)
	}
}
