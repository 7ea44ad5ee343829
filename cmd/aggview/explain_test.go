package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"aggview/internal/core"
	"aggview/internal/obs"
	"aggview/internal/report"
)

// TestExplainTraceReport traces the bundled catalog to a report, reads
// it back strictly and replays it: one valid row per demo query, the
// closure-cache counters among the counts.
func TestExplainTraceReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := explain("testdata/demo.sql", nil, false, true, path, io.Discard); err != nil {
		t.Fatal(err)
	}
	rep, err := report.Read[traceRow](path, explainTool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "pass" || len(rep.Rows) != 2 {
		t.Fatalf("report shape: verdict %s, %d rows", rep.Verdict, len(rep.Rows))
	}
	if err := validateRows(rep.Rows); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"hits", "misses", "evictions", "size"} {
		if _, ok := rep.Counts["closure_cache."+k]; !ok {
			t.Errorf("counts lack closure_cache.%s: %v", k, rep.Counts)
		}
	}
	if rep.Rows[0].Rewritings == 0 || len(rep.Rows[0].Views) != 1 || !rep.Rows[0].Views[0].Usable {
		t.Fatalf("Monthly should answer the first demo query: %+v", rep.Rows[0])
	}
	var out strings.Builder
	if err := replayTrace(path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replays cleanly: 2 query(s)") {
		t.Fatalf("replay output: %s", out.String())
	}
}

func sampleTraceRow() traceRow {
	return traceRow{
		Query:       "SELECT A FROM R1",
		Waves:       2,
		Jobs:        3,
		MaxFrontier: 1,
		Rewritings:  1,
		Views: []core.ViewUsability{
			{View: "V1", Mappings: 1, Usable: true},
			{View: "V2", Mappings: 2, Usable: false, Failures: []string{"condition C2: x"}},
		},
		Candidates: []obs.Candidate{
			{Wave: 1, Query: "SELECT A FROM R1", View: "V1", Verdict: obs.VerdictAccept, Rewriting: "SELECT A FROM V1"},
			{Wave: 1, Query: "SELECT A FROM R1", View: "V2", Verdict: obs.VerdictReject, Condition: "C2", Reason: "condition C2: x"},
			{Wave: 2, Query: "SELECT A FROM V1", View: "V1", Verdict: obs.VerdictDedup, Reason: "dup"},
		},
	}
}

func TestTraceRowValidate(t *testing.T) {
	r := sampleTraceRow()
	if err := r.Validate(); err != nil {
		t.Fatalf("sample invalid: %v", err)
	}
	for name, corrupt := range map[string]func(*traceRow){
		"unknown verdict":          func(r *traceRow) { r.Candidates[0].Verdict = "maybe" },
		"accept/rewriting count":   func(r *traceRow) { r.Rewritings = 7 },
		"reject without reason":    func(r *traceRow) { r.Candidates[1].Reason = "" },
		"wave out of range":        func(r *traceRow) { r.Candidates[2].Wave = 9 },
		"accept without rewriting": func(r *traceRow) { r.Candidates[0].Rewriting = "" },
		"no SQL":                   func(r *traceRow) { r.Query = "" },
	} {
		r := sampleTraceRow()
		corrupt(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s passed validation", name)
		}
	}
}
