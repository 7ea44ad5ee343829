package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestAllQuick runs the whole experiment suite at reduced scales: every
// table must be produced and every machine-checked claim must hold.
func TestAllQuick(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range Cases {
		c.Run(context.Background(), &buf, true)
	}
	out := buf.String()
	for _, c := range Cases {
		if !strings.Contains(out, "## "+c.ID+" ") {
			t.Errorf("experiment %s missing from output", c.ID)
		}
	}
	if strings.Contains(out, "WRONG") && !strings.Contains(out, "published Q' (Ex. 4.2 verbatim) | 20 | WRONG") {
		t.Errorf("unexpected WRONG verdict:\n%s", out)
	}
	if strings.Contains(out, "| NO |") {
		t.Errorf("an equivalence check failed:\n%s", out)
	}
	if strings.Contains(out, "false") {
		t.Errorf("a boolean claim check failed:\n%s", out)
	}
}

func TestCounterexampleAnswers(t *testing.T) {
	want, paper, ours := CounterexampleAnswers(t.Context())
	if want != 10 {
		t.Fatalf("ground truth should be 10, got %d", want)
	}
	if paper != 20 {
		t.Fatalf("the published construction should double-count to 20, got %d", paper)
	}
	if ours != 10 {
		t.Fatalf("our rewriting should be exact, got %d", ours)
	}
}

func TestMultiViewCompleteness(t *testing.T) {
	for k := 1; k <= 3; k++ {
		found, equal, orderFree := RunMultiView(context.Background(), k)
		if found != (1<<k)-1 {
			t.Errorf("k=%d: found %d rewritings, want %d", k, found, (1<<k)-1)
		}
		if !equal {
			t.Errorf("k=%d: a rewriting was not equivalent", k)
		}
		if !orderFree {
			t.Errorf("k=%d: view order changed the result set", k)
		}
	}
}

func TestKeysCases(t *testing.T) {
	if found, _ := RunKeysCase(context.Background(), false); found != 0 {
		t.Errorf("without keys: found %d rewritings, want 0", found)
	}
	found, verified := RunKeysCase(context.Background(), true)
	if found == 0 || verified != "yes" {
		t.Errorf("with keys: found=%d verified=%s", found, verified)
	}
}

func TestNegativeCasesAllZero(t *testing.T) {
	for _, c := range NegativeCases(t.Context()) {
		if c.Found != 0 {
			t.Errorf("%s (Sec. %s): found %d rewritings, want 0", c.Name, c.Section, c.Found)
		}
	}
}

func TestHavingAblation(t *testing.T) {
	for _, c := range HavingCases(t.Context()) {
		if c.With == 0 {
			t.Errorf("%s: pre-processing should enable the rewriting", c.Name)
		}
		if c.Without >= c.With {
			t.Errorf("%s: ablation should weaken detection (with=%d without=%d)", c.Name, c.With, c.Without)
		}
	}
}

// TestDirectVsRewritten runs every direct-versus-rewritten case of the
// table at its quick points: a rewriting must be found and the two
// result bags must be multiset-equal. At the largest quick point the
// rewritten form must also be faster, except on E2, whose view is only
// 16x smaller than R1 — too little to assert a timing on at quick scale.
func TestDirectVsRewritten(t *testing.T) {
	n := 0
	for _, c := range Cases {
		if c.Build == nil {
			continue
		}
		n++
		t.Run(c.ID, func(t *testing.T) {
			for i, p := range c.Quick {
				s, q, rw := c.Prepare(t.Context(), p)
				if rw == nil {
					t.Fatalf("%+v: no rewriting found", p)
				}
				m := c.measure(t.Context(), p, s, q, rw)
				if !m.Equal {
					t.Errorf("%+v: rewritten bag differs from direct", p)
				}
				if m.ViewRows == 0 {
					t.Errorf("%+v: view %s is empty", p, c.View)
				}
				if i == len(c.Quick)-1 && c.ID != "E2" && m.Rewritten >= m.Direct {
					t.Errorf("%+v: direct=%v rewritten=%v", p, m.Direct, m.Rewritten)
				}
			}
		})
	}
	if n != 4 {
		t.Errorf("%d direct-versus-rewritten cases, want E1-E4", n)
	}
}

// TestCaseIDs pins the table's ids: E1..E13 in order, each resolving —
// in either letter case — through the lookup benchrunner -only uses, and
// an unknown id an error.
func TestCaseIDs(t *testing.T) {
	if len(Cases) != 13 {
		t.Fatalf("%d cases, want 13", len(Cases))
	}
	for i, c := range Cases {
		if want := fmt.Sprintf("E%d", i+1); c.ID != want {
			t.Errorf("case %d has id %s, want %s", i, c.ID, want)
		}
		for _, id := range []string{c.ID, strings.ToLower(c.ID)} {
			if got, err := Lookup(id); err != nil || got != c {
				t.Errorf("Lookup(%q) = %v, %v", id, got, err)
			}
		}
	}
	if c, err := Lookup("E99"); err == nil {
		t.Errorf("Lookup(E99) resolved to %s", c.ID)
	}
}

func TestClosureScaling(t *testing.T) {
	closeT, impliesT, atoms, vars := RunClosure(16)
	if atoms <= 0 || vars <= 0 {
		t.Error("closure should produce atoms")
	}
	if closeT <= 0 || impliesT < 0 {
		t.Error("timings must be measured")
	}
}

func TestSearchCost(t *testing.T) {
	elapsed, found := RunSearchCost(context.Background(), 2, 8)
	if found == 0 {
		t.Error("search should find rewritings")
	}
	if elapsed <= 0 {
		t.Error("search time must be measured")
	}
}

func TestMaintenanceExperiment(t *testing.T) {
	incr, reco, consistent := RunMaintenance(context.Background(), 5000, 8, 50)
	if !consistent {
		t.Fatal("incremental maintenance diverged from recomputation")
	}
	if incr >= reco {
		t.Errorf("incremental (%v) should beat recompute (%v)", incr, reco)
	}
}

func TestAdvisorExperiment(t *testing.T) {
	nViews, viewRows, _, _, equal := RunAdvisor(context.Background(), 5000)
	if nViews == 0 {
		t.Fatal("advisor should recommend at least one view")
	}
	if viewRows <= 0 {
		t.Error("recommended views should have rows")
	}
	if !equal {
		t.Error("answers changed after adopting recommendations")
	}
}

func TestBaselineCorpus(t *testing.T) {
	cases := BaselineCases(t.Context())
	baseHits, ourHits := 0, 0
	for _, c := range cases {
		if !c.Rewriter {
			t.Errorf("%s: the rewriter must accept every corpus case", c.Name)
		}
		if c.Baseline {
			baseHits++
		}
		if c.Rewriter {
			ourHits++
		}
	}
	if baseHits >= ourHits {
		t.Errorf("baseline should strictly under-approximate: %d vs %d", baseHits, ourHits)
	}
	if cases[0].Baseline {
		t.Error("the syntactic baseline must miss Example 1.1 (the paper's Section 6 point)")
	}
}
