package main

import (
	"io"
	"path/filepath"
	"testing"

	"aggview/internal/analysis"
	"aggview/internal/report"
)

// TestVetReport runs the suite over one small real package and reads the
// written report back strictly: a clean package passes with no rows, and
// every analyzer has its findings and suppressions count, zero included.
func TestVetReport(t *testing.T) {
	rep, err := vet("../..", []string{"./internal/budget"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vet.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := report.Read[analysis.Diagnostic](path, vetTool)
	if err != nil {
		t.Fatal(err)
	}
	if back.Verdict != "pass" || len(back.Rows) != 0 || back.Counts["packages"] != 1 {
		t.Fatalf("report shape: verdict %s, %d rows, counts %v", back.Verdict, len(back.Rows), back.Counts)
	}
	if len(analyzers) != 7 {
		t.Fatalf("%d analyzers, want 7", len(analyzers))
	}
	for _, a := range analyzers {
		for _, k := range []string{"findings.", "suppressions."} {
			if _, ok := back.Counts[k+a.Name]; !ok {
				t.Errorf("counts lack %s%s: %v", k, a.Name, back.Counts)
			}
		}
	}
}
