package obs

import (
	"sync"
	"testing"
)

func TestTracerRecordsCandidates(t *testing.T) {
	tr := NewTracer()
	if !tr.Enabled() {
		t.Fatal("NewTracer not enabled")
	}
	tr.Candidates(
		Candidate{Wave: 1, Query: "Q", View: "V1", Verdict: VerdictAccept},
		Candidate{Wave: 1, Query: "Q", View: "V2", Verdict: VerdictReject, Condition: "C3", Reason: "no residual"},
	)
	tr.Wave(4, 2)
	tr.Wave(6, 3)
	got := tr.Snapshot()
	if len(got.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2", len(got.Candidates))
	}
	if got.Candidates[1].Condition != "C3" {
		t.Errorf("condition = %q, want C3", got.Candidates[1].Condition)
	}
	if got.Waves != 2 || got.Jobs != 10 || got.MaxFrontier != 3 {
		t.Errorf("waves/jobs/frontier = %d/%d/%d, want 2/10/3", got.Waves, got.Jobs, got.MaxFrontier)
	}
	tr.Reset()
	if s := tr.Snapshot(); len(s.Candidates) != 0 || s.Waves != 0 {
		t.Errorf("Reset left state behind: %+v", s)
	}
}

func TestTracerSnapshotIsACopy(t *testing.T) {
	tr := NewTracer()
	tr.Candidates(Candidate{View: "V"})
	snap := tr.Snapshot()
	snap.Candidates[0].View = "mutated"
	if got := tr.Snapshot().Candidates[0].View; got != "V" {
		t.Errorf("snapshot aliases tracer state: view = %q", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer claims enabled")
	}
	tr.Candidates(Candidate{View: "V"})
	tr.Wave(1, 1)
	tr.Fallback("Plan", "budget")
	tr.Reset()
	if got := tr.Snapshot(); len(got.Candidates) != 0 || len(got.Fallbacks) != 0 {
		t.Errorf("nil tracer recorded state: %+v", got)
	}
}

// TestNoopPathAllocationFree is the acceptance check that uninstrumented
// kernels pay nothing: every nil-receiver hook must be allocation-free.
func TestNoopPathAllocationFree(t *testing.T) {
	var m *Metrics
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		m.Counter("engine.scan.rows").Add(100)
		m.Volatile("engine.pool.launches").Inc()
		m.Volatile("engine.store.append.inplace").Inc()
		m.Volatile("engine.store.append.copied").Inc()
		m.Volatile("engine.store.compact.bytes").Add(4096)
		m.Volatile("maintain.groups.touched").Add(3)
		m.Histogram("engine.join.build_rows").Observe(64)
		m.Time("engine.join.ns").Stop()
		if tr.Enabled() {
			t.Fatal("nil tracer enabled")
		}
		tr.Candidates()
		tr.Wave(0, 0)
	})
	if allocs != 0 {
		t.Errorf("no-op instrumentation allocates %.1f per op, want 0", allocs)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Candidates(Candidate{View: "V", Verdict: VerdictReject})
				tr.Fallback("Plan", "budget")
			}
		}()
	}
	wg.Wait()
	got := tr.Snapshot()
	if len(got.Candidates) != 800 || len(got.Fallbacks) != 800 {
		t.Errorf("concurrent recording lost events: %d candidates, %d fallbacks", len(got.Candidates), len(got.Fallbacks))
	}
}
