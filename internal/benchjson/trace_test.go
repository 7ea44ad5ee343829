package benchjson

import (
	"os"
	"path/filepath"
	"testing"

	"aggview/internal/obs"
)

func sampleTrace() *TraceReport {
	r := NewTrace()
	r.File = "demo.sql"
	r.Queries = append(r.Queries, TraceQuery{
		Query:       "SELECT A FROM R1",
		Waves:       2,
		Jobs:        3,
		MaxFrontier: 1,
		Rewritings:  1,
		Views: []TraceView{
			{View: "V1", Mappings: 1, Usable: true},
			{View: "V2", Mappings: 2, Usable: false, Failures: []string{"condition C2: x"}},
		},
		Candidates: []obs.Candidate{
			{Wave: 1, Query: "SELECT A FROM R1", View: "V1", Verdict: obs.VerdictAccept, Rewriting: "SELECT A FROM V1"},
			{Wave: 1, Query: "SELECT A FROM R1", View: "V2", Verdict: obs.VerdictReject, Condition: "C2", Reason: "condition C2: x"},
			{Wave: 2, Query: "SELECT A FROM V1", View: "V1", Verdict: obs.VerdictDedup, Reason: "dup"},
		},
	})
	r.Closure = &CacheCounters{Hits: 10, Misses: 3, Evictions: 0, Size: 3}
	return r
}

func TestTraceWriteReadRoundTrip(t *testing.T) {
	r := sampleTrace()
	if err := r.Validate(); err != nil {
		t.Fatalf("sample invalid: %v", err)
	}
	if err := r.RoundTrips(); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("re-read report invalid: %v", err)
	}
	if len(back.Queries) != 1 || len(back.Queries[0].Candidates) != 3 {
		t.Fatalf("trace lost content: %+v", back)
	}
	if back.Closure == nil || back.Closure.Hits != 10 {
		t.Fatalf("closure counters lost: %+v", back.Closure)
	}
}

func TestReadTraceRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeRaw(path, `{"go_version":"go","queries":[],"surprise":1}`); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(path); err == nil {
		t.Fatal("unknown field silently accepted")
	}
}

func TestValidateCatchesInconsistency(t *testing.T) {
	r := sampleTrace()
	r.Queries[0].Candidates[0].Verdict = "maybe"
	if err := r.Validate(); err == nil {
		t.Error("unknown verdict passed validation")
	}

	r = sampleTrace()
	r.Queries[0].Rewritings = 7
	if err := r.Validate(); err == nil {
		t.Error("accept/rewriting mismatch passed validation")
	}

	r = sampleTrace()
	r.Queries[0].Candidates[1].Reason = ""
	if err := r.Validate(); err == nil {
		t.Error("reject without reason passed validation")
	}

	r = sampleTrace()
	r.Queries[0].Candidates[2].Wave = 9
	if err := r.Validate(); err == nil {
		t.Error("wave out of range passed validation")
	}
}

func writeRaw(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
