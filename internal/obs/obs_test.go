package obs

import (
	"sync"
	"testing"
)

// The candidate trace of a rewrite search lives on a span that records
// candidates. These tests pin the trace contract the search and
// `aggview explain -trace` rely on: snapshots are copies, the nil span
// records nothing, and concurrent producers lose no events.

func TestTracerSnapshotIsACopy(t *testing.T) {
	sp := NewSpan("", "q")
	sp.RecordCandidates()
	sp.AddCandidates(Candidate{View: "V"})
	snap := sp.Snapshot()
	snap.Candidates[0].View = "mutated"
	if got := sp.Snapshot().Candidates[0].View; got != "V" {
		t.Errorf("snapshot aliases span candidates: view = %q", got)
	}
	sp.AddCandidates(Candidate{View: "W"})
	if len(snap.Candidates) != 1 {
		t.Errorf("snapshot grew with the live span: %d candidates", len(snap.Candidates))
	}
	if got := sp.End("ok", "").Candidates; len(got) != 2 || got[0].View != "V" || got[1].View != "W" {
		t.Errorf("End candidates = %+v, want [V W]", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var sp *Span
	if sp.Enabled() {
		t.Fatal("nil span claims enabled")
	}
	sp.RecordCandidates()
	if sp.RecordingCandidates() {
		t.Fatal("nil span claims to record candidates")
	}
	sp.AddCandidates(Candidate{View: "V"})
	sp.Wave(1, 1)
	sp.Event("facade.fallback", "budget")
	got := sp.Snapshot()
	if len(got.Candidates) != 0 || len(got.Stages) != 0 || got.Waves != 0 || got.Verdicts != (SpanVerdicts{}) {
		t.Errorf("nil span recorded state: %+v", got)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	sp := NewSpan("", "q")
	sp.RecordCandidates()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp.AddCandidates(Candidate{View: "V", Verdict: VerdictReject})
				sp.Event("facade.fallback", "budget")
				sp.Wave(1, i)
			}
		}()
	}
	wg.Wait()
	got := sp.Snapshot()
	if len(got.Candidates) != 800 || len(got.Stages) != 800 {
		t.Errorf("concurrent recording lost events: %d candidates, %d fallbacks", len(got.Candidates), len(got.Stages))
	}
	if got.Waves != 800 || got.Jobs != 800 || got.MaxFrontier != 99 {
		t.Errorf("waves/jobs/frontier = %d/%d/%d, want 800/800/99", got.Waves, got.Jobs, got.MaxFrontier)
	}
}
