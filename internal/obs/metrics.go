package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is one named atomic counter. A nil *Counter is a valid no-op
// (every lookup on a nil *Metrics returns one), so hot paths may hold
// and bump counters unconditionally.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Max raises the counter to n if n is larger (a high-watermark gauge).
func (c *Counter) Max(n int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current count; 0 on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0
// and v == 1 lands in bucket 1), which spans int64 comfortably.
const histBuckets = 64

// Histogram is a power-of-two bucket histogram of int64 observations.
// A nil *Histogram is a valid no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
}

// bucketOf maps a value to its bucket index: 0 for v <= 0, otherwise
// 1 + floor(log2(v)) capped to the last bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// snapshot renders the non-empty prefix of the bucket counts.
func (h *Histogram) snapshot() []int64 {
	last := -1
	var out [histBuckets]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
		if out[i] != 0 {
			last = i
		}
	}
	return append([]int64{}, out[:last+1]...)
}

// Metrics is a registry of named counters and histograms. Names are
// dotted paths, subsystem first ("engine.scan.rows",
// "engine.view_cache.hit", "closure_cache.evictions"; see DESIGN.md
// section 9 for the naming scheme).
//
// The registry is split into a deterministic section and a volatile
// one. Counters and Histograms hold values that are byte-identical
// across worker-pool sizes for a fixed call sequence (row counts, cache
// hits, group cardinalities). Volatile counters hold values that
// legitimately depend on scheduling — wall-clock stage timings,
// goroutines launched, chunk counts — and are explicitly excluded from
// the determinism contract and from Snapshot.Deterministic().
//
// A nil *Metrics is a valid no-op registry: every lookup returns a nil
// (no-op) counter or histogram without allocating.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	volatile map[string]*Counter
	hists    map[string]*Histogram
	lats     map[string]*LatencyHist
	// handles memoizes what a subsystem resolves from the registry once
	// (Handles), by the subsystem's key.
	handles sync.Map
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		volatile: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		lats:     map[string]*LatencyHist{},
	}
}

// Handles returns the value build resolves from the registry — a
// subsystem's counter handles — for key, building it on the first call
// and sharing it afterwards, so a hot path that needs thirty counters
// takes no lock and no name lookup per operation. key must be
// comparable and build must depend on the registry alone; concurrent
// first calls may each build, and one result wins. On a nil registry it
// is build(nil).
func (m *Metrics) Handles(key any, build func(*Metrics) any) any {
	if m == nil {
		return build(nil)
	}
	if h, ok := m.handles.Load(key); ok {
		return h
	}
	h, _ := m.handles.LoadOrStore(key, build(m))
	return h
}

// Enabled reports whether the registry records anything.
func (m *Metrics) Enabled() bool { return m != nil }

// Counter returns the deterministic counter with the given name,
// creating it on first use; nil on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Volatile returns the scheduling-dependent counter with the given
// name (timings, pool launches); nil on a nil registry.
func (m *Metrics) Volatile(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.volatile[name]
	if !ok {
		c = &Counter{}
		m.volatile[name] = c
	}
	return c
}

// Histogram returns the deterministic histogram with the given name,
// creating it on first use; nil on a nil registry.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Latency returns the fixed-boundary latency histogram with the given
// name ("server.latency.<tenant>", "server.admission.wait"), creating it
// on first use; nil on a nil registry. It is the registry's one
// histogram of wall-clock durations. Latency counts are wall-clock
// dependent and therefore volatile — excluded from the determinism
// contract and from Snapshot.Deterministic() — but the bucket edges and
// quantile reporting are deterministic (see latency.go).
func (m *Metrics) Latency(name string) *LatencyHist {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.lats[name]
	if !ok {
		h = &LatencyHist{}
		m.lats[name] = h
	}
	return h
}

// Stopwatch accumulates elapsed nanoseconds into a volatile counter.
// The zero Stopwatch (from a nil registry) is a no-op and never reads
// the clock.
type Stopwatch struct {
	c     *Counter
	start time.Time
}

// Time starts a stopwatch on the named volatile counter:
//
//	defer m.Time("engine.join.ns").Stop()
func (m *Metrics) Time(name string) Stopwatch {
	return m.Volatile(name).Start()
}

// Start starts a stopwatch on a counter already resolved with
// Metrics.Volatile, for callers that hold their handles; the no-op
// stopwatch on a nil counter.
func (c *Counter) Start() Stopwatch {
	if c == nil {
		return Stopwatch{}
	}
	return Stopwatch{c: c, start: time.Now()}
}

// Stop records the elapsed time since Time.
func (sw Stopwatch) Stop() {
	if sw.c == nil {
		return
	}
	sw.c.Add(time.Since(sw.start).Nanoseconds())
}

// Snapshot is a point-in-time copy of a registry, JSON-serializable.
type Snapshot struct {
	// Counters holds the deterministic counters: byte-identical across
	// Opts.Workers settings for a fixed call sequence.
	Counters map[string]int64 `json:"counters"`
	// Histograms holds the deterministic histograms as power-of-two
	// bucket counts (bucket i counts values in [2^(i-1), 2^i)).
	Histograms map[string][]int64 `json:"histograms,omitempty"`
	// Volatile holds the scheduling-dependent counters (ns timings,
	// pool launches, chunk counts). Excluded from Deterministic().
	Volatile map[string]int64 `json:"volatile,omitempty"`
	// Latencies holds the fixed-boundary latency histograms with their
	// p50/p95/p99 summaries. Counts are wall-clock dependent: excluded
	// from Deterministic().
	Latencies map[string]LatencySnapshot `json:"latencies,omitempty"`
}

// Snapshot copies the registry's current values; the zero Snapshot on a
// nil registry.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{Counters: map[string]int64{}}
	for name, c := range m.counters {
		out.Counters[name] = c.Load()
	}
	for name, c := range m.volatile {
		if out.Volatile == nil {
			out.Volatile = map[string]int64{}
		}
		out.Volatile[name] = c.Load()
	}
	for name, h := range m.hists {
		if out.Histograms == nil {
			out.Histograms = map[string][]int64{}
		}
		out.Histograms[name] = h.snapshot()
	}
	for name, h := range m.lats {
		if out.Latencies == nil {
			out.Latencies = map[string]LatencySnapshot{}
		}
		out.Latencies[name] = h.Snapshot()
	}
	return out
}

// Deterministic renders the snapshot's deterministic sections — sorted
// counters and histograms, volatile counters excluded — as a stable
// byte string for cross-worker-count comparison.
func (s Snapshot) Deterministic() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%v\n", name, s.Histograms[name])
	}
	return b.String()
}
