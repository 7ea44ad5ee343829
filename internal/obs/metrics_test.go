package obs

import (
	"sync"
	"testing"
	"time"
)

func TestMetricsCountersAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Counter("engine.scan.rows").Add(10)
	m.Counter("engine.scan.rows").Add(5)
	m.Counter("engine.exec").Inc()
	m.Volatile("engine.pool.launches").Add(3)
	m.Histogram("engine.join.build_rows").Observe(7)

	s := m.Snapshot()
	if s.Counters["engine.scan.rows"] != 15 || s.Counters["engine.exec"] != 1 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Volatile["engine.pool.launches"] != 3 {
		t.Errorf("volatile = %v", s.Volatile)
	}
	// 7 lands in bucket 3 ([4, 8)).
	h := s.Histograms["engine.join.build_rows"]
	if len(h) != 4 || h[3] != 1 {
		t.Errorf("histogram = %v, want one count in bucket 3", h)
	}
}

func TestCounterMax(t *testing.T) {
	var c Counter
	c.Max(5)
	c.Max(3)
	c.Max(9)
	if got := c.Load(); got != 9 {
		t.Errorf("Max watermark = %d, want 9", got)
	}
	var nilC *Counter
	nilC.Max(1) // must not panic
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	var h Histogram
	h.Observe(1 << 62)
	h.Observe(1 << 62)
	s := h.snapshot()
	if s[len(s)-1] != 2 {
		t.Errorf("top bucket = %v", s)
	}
}

// TestDeterministicExcludesVolatile pins the determinism contract: the
// rendered comparison string covers counters and histograms, sorted,
// and never the volatile section.
func TestDeterministicExcludesVolatile(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	for _, m := range []*Metrics{a, b} {
		m.Counter("z.last").Add(2)
		m.Counter("a.first").Add(1)
		m.Histogram("h").Observe(3)
	}
	a.Volatile("engine.join.ns").Add(12345)
	b.Volatile("engine.join.ns").Add(99999)
	b.Volatile("engine.pool.launches").Add(7)
	if da, db := a.Snapshot().Deterministic(), b.Snapshot().Deterministic(); da != db {
		t.Errorf("volatile counters leaked into the deterministic rendering:\n%s\nvs\n%s", da, db)
	}
}

func TestStopwatchAccumulates(t *testing.T) {
	m := NewMetrics()
	sw := m.Time("stage.ns")
	time.Sleep(time.Millisecond)
	sw.Stop()
	if got := m.Snapshot().Volatile["stage.ns"]; got <= 0 {
		t.Errorf("stopwatch recorded %d ns", got)
	}
}

func TestNilMetricsIsNoop(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil metrics claims enabled")
	}
	m.Counter("x").Add(1)
	m.Volatile("y").Inc()
	m.Histogram("z").Observe(1)
	m.Time("w").Stop()
	s := m.Snapshot()
	if len(s.Counters) != 0 || len(s.Volatile) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil metrics recorded state: %+v", s)
	}
	if s.Deterministic() != "" {
		t.Errorf("zero snapshot renders %q", s.Deterministic())
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Counter("c").Inc()
				m.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("c").Load(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
}

// TestNoopPathAllocationFree is the acceptance check that uninstrumented
// kernels pay nothing: every nil-receiver hook must be allocation-free.
func TestNoopPathAllocationFree(t *testing.T) {
	var m *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		m.Counter("engine.scan.rows").Add(100)
		m.Volatile("engine.pool.launches").Inc()
		m.Volatile("engine.store.append.inplace").Inc()
		m.Volatile("engine.store.append.copied").Inc()
		m.Volatile("engine.store.compact.bytes").Add(4096)
		m.Volatile("maintain.groups.touched").Add(3)
		m.Histogram("engine.join.build_rows").Observe(64)
		m.Time("engine.join.ns").Stop()
	})
	if allocs != 0 {
		t.Errorf("no-op instrumentation allocates %.1f per op, want 0", allocs)
	}
}
