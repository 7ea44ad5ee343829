package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	if s.Enabled() {
		t.Fatal("nil span reports enabled")
	}
	tm := s.StartStage("x")
	tm.End(3)
	s.Stage("y", 1)
	s.Event("z", "d")
	s.SetCache("hit")
	s.SetAdmissionWait(time.Second)
	s.RecordCandidates()
	if s.RecordingCandidates() {
		t.Fatal("nil span reports recording candidates")
	}
	s.Wave(4, 2)
	s.AddCandidates(Candidate{View: "V", Verdict: VerdictAccept})
	s.SetBudget(1, 2, 3)
	if rec := s.End("ok", ""); rec.ID != 0 || len(rec.Stages) != 0 || len(rec.Candidates) != 0 {
		t.Fatalf("nil span End returned non-zero record: %+v", rec)
	}
	if rec := s.Snapshot(); rec.ID != 0 {
		t.Fatalf("nil span Snapshot returned non-zero record: %+v", rec)
	}
}

func TestWithSpanRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := SpanFrom(ctx); got != nil {
		t.Fatalf("SpanFrom(empty ctx) = %v, want nil", got)
	}
	if got := WithSpan(ctx, nil); got != ctx {
		t.Fatal("WithSpan(nil) should return ctx unchanged")
	}
	sp := NewSpan("t1", "SELECT 1")
	got := SpanFrom(WithSpan(ctx, sp))
	if got != sp {
		t.Fatalf("SpanFrom(WithSpan(...)) = %p, want %p", got, sp)
	}
}

func TestSpanRecordContents(t *testing.T) {
	sp := NewSpan("acme", "SELECT COUNT(*) FROM t")
	tm := sp.StartStage("facade.parse")
	tm.End(0)
	sp.Stage("scan:t", 42)
	sp.Event("facade.fallback", "Plan")
	sp.SetCache("miss")
	sp.SetAdmissionWait(5 * time.Millisecond)
	sp.Wave(4, 2)
	sp.Wave(6, 3)
	sp.AddCandidates(Candidate{Verdict: VerdictAccept}, Candidate{Verdict: VerdictReject})
	sp.AddCandidates(Candidate{Verdict: VerdictReject}, Candidate{Verdict: VerdictDedup})
	sp.SetBudget(100, 7, 2048)
	rec := sp.End("ok", "")

	if rec.ID == 0 {
		t.Fatal("span ID not assigned")
	}
	if rec.Tenant != "acme" || rec.SQL != "SELECT COUNT(*) FROM t" {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.DurationNs <= 0 || rec.StartUnixNs == 0 {
		t.Fatalf("volatile timing fields not stamped: %+v", rec)
	}
	if rec.AdmissionWaitNs != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("admission wait = %d", rec.AdmissionWaitNs)
	}
	want := SpanVerdicts{Accepted: 1, Rejected: 2, Deduped: 1}
	if rec.Verdicts != want {
		t.Fatalf("verdicts = %+v, want %+v", rec.Verdicts, want)
	}
	if rec.Waves != 2 || rec.Jobs != 10 || rec.MaxFrontier != 3 {
		t.Fatalf("waves/jobs/frontier = %d/%d/%d, want 2/10/3", rec.Waves, rec.Jobs, rec.MaxFrontier)
	}
	if len(rec.Candidates) != 0 {
		t.Fatalf("a plain span kept %d candidates", len(rec.Candidates))
	}
	if rec.Budget != (SpanBudget{Rows: 100, Candidates: 7, MemBytes: 2048}) {
		t.Fatalf("budget = %+v", rec.Budget)
	}
	if len(rec.Stages) != 3 || rec.Stages[0].Name != "facade.parse" ||
		rec.Stages[1].Name != "scan:t" || rec.Stages[1].Rows != 42 ||
		rec.Stages[2].Detail != "Plan" {
		t.Fatalf("stages = %+v", rec.Stages)
	}

	det := rec.Deterministic()
	for _, banned := range []string{"duration", "start_unix", "wait", "id=", "seq="} {
		if strings.Contains(det, banned) {
			t.Fatalf("Deterministic() leaks volatile field %q:\n%s", banned, det)
		}
	}
	for _, needed := range []string{"tenant=acme", "cache=miss", "verdicts accepted=1 rejected=2 deduped=1", "search waves=2 jobs=10 max_frontier=3", "stage scan:t rows=42"} {
		if !strings.Contains(det, needed) {
			t.Fatalf("Deterministic() missing %q:\n%s", needed, det)
		}
	}
}

// TestSpanRecordsCandidates: after RecordCandidates the span keeps every
// candidate in the order given, next to the verdict counts, and renders
// them in its deterministic half.
func TestSpanRecordsCandidates(t *testing.T) {
	sp := NewSpan("", "q")
	sp.RecordCandidates()
	if !sp.RecordingCandidates() {
		t.Fatal("RecordCandidates did not take")
	}
	sp.AddCandidates(
		Candidate{Wave: 1, Query: "Q", View: "V1", Verdict: VerdictAccept, Rewriting: "SELECT 1", Notes: []string{"n"}},
		Candidate{Wave: 1, Query: "Q", View: "V2", Verdict: VerdictReject, Condition: "C3", Reason: "no residual"},
	)
	rec := sp.Snapshot()
	if len(rec.Candidates) != 2 || rec.Candidates[1].Condition != "C3" {
		t.Fatalf("candidates = %+v", rec.Candidates)
	}
	if rec.Verdicts != (SpanVerdicts{Accepted: 1, Rejected: 1}) {
		t.Fatalf("verdicts = %+v", rec.Verdicts)
	}
	det := rec.Deterministic()
	for _, needed := range []string{"view=V1 set=false verdict=accept", "view=V2 set=false verdict=reject cond=C3", "reason=no residual", "  note: n"} {
		if !strings.Contains(det, needed) {
			t.Fatalf("Deterministic() missing %q:\n%s", needed, det)
		}
	}
}

func TestSpanSnapshotIsDeepCopy(t *testing.T) {
	sp := NewSpan("", "q")
	sp.RecordCandidates()
	sp.Stage("a", 1)
	sp.AddCandidates(Candidate{View: "V"})
	rec := sp.Snapshot()
	sp.Stage("b", 2)
	rec.Candidates[0].View = "mutated"
	if len(rec.Stages) != 1 {
		t.Fatalf("snapshot aliased live stages: %+v", rec.Stages)
	}
	if got := sp.Snapshot().Candidates[0].View; got != "V" {
		t.Fatalf("snapshot aliased live candidates: view = %q", got)
	}
}

func TestSpanConcurrentRecording(t *testing.T) {
	sp := NewSpan("t", "q")
	sp.RecordCandidates()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp.AddCandidates(Candidate{View: "V", Verdict: VerdictReject})
				sp.Stage("s", 1)
			}
		}()
	}
	wg.Wait()
	rec := sp.End("ok", "")
	if rec.Verdicts.Rejected != 800 || len(rec.Stages) != 800 || len(rec.Candidates) != 800 {
		t.Fatalf("lost updates: %+v stages=%d candidates=%d", rec.Verdicts, len(rec.Stages), len(rec.Candidates))
	}
}

// TestDisabledSpanPathAllocationFree pins the "disabled telemetry is
// free" contract: with no span in the ctx and a nil recorder, the
// whole per-request hook sequence allocates nothing.
func TestDisabledSpanPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	var f *FlightRecorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFrom(ctx)
		st := sp.StartStage("facade.execute")
		sp.Stage("scan:t0", 10)
		if sp.RecordingCandidates() {
			t.Fatal("nil span records candidates")
		}
		sp.Wave(1, 1)
		sp.AddCandidates(Candidate{Verdict: VerdictAccept})
		sp.SetCache("hit")
		sp.SetBudget(1, 2, 3)
		st.End(5)
		f.Record(SpanRecord{})
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %v per run, want 0", allocs)
	}
}
