package engine

import (
	"context"
	"strings"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/obs"
)

func TestExplainShapes(t *testing.T) {
	db := smallDB()
	r3 := NewRelation("G", "H")
	for i := 0; i < 6; i++ {
		r3.Add(iv(int64(100*(i%3))), iv(int64(i)*5000))
	}
	db.Put("R3", r3)
	ev := NewEvaluator(db, nil)
	source := ir.MapSource{"R1": {"A", "B", "C", "D"}, "R2": {"E", "F"}, "R3": {"G", "H"}}
	cases := []struct {
		sql   string
		frags []string
	}{
		{
			// R2 is the smaller table, so the join starts there; R1 is the
			// larger of the two and is walked; F lies in [100, 999].
			"SELECT A, SUM(B) FROM R1, R2 WHERE C = F AND B > 1 AND A <> E GROUP BY A HAVING SUM(B) > 3",
			[]string{"scan R1 [4 rows] filter(B > 1)\n", "scan R2 [3 rows]\n",
				"join order (stored row counts; the executor orders by rows after filters): start with R2\n",
				"hash join R1 on C = F: walk R1 [4 rows], lay out R2 [3 rows], keys: direct[900]\n",
				"residual filter A <> E\n",
				"group by A", "having SUM(B) > 3", "project A, SUM(B)"},
		},
		{
			"SELECT DISTINCT A FROM R1",
			[]string{"scan R1 [4 rows]", "project A distinct"},
		},
		{
			"SELECT COUNT(A) FROM R1, R2",
			[]string{"start with R2\n", "cross product with R1", "single global group", "project COUNT(A)"},
		},
		{
			// A constant-false predicate is decided before any scan; it is not
			// a residual filter.
			"SELECT A FROM R1 WHERE 1 = 2",
			[]string{"constant predicate 1 = 2 is false: empty result, no row is read\n"},
		},
		{
			// Two joins, in the executor's order: the smallest table first,
			// then the smallest table an equality connects to it — R3 through
			// F = G — then R1, against joined rows whose count only a run knows.
			"SELECT A FROM R1, R2, R3 WHERE C = G AND F = G AND H > 0",
			[]string{"scan R3 [6 rows] filter(H > 0)\n", "start with R2\n",
				"hash join R3 on F = G: walk R3 [6 rows], lay out R2 [3 rows], keys: direct[900]\n" +
					"hash join R1 on C = G: walk the larger input, lay out the smaller\n"},
		},
		{
			// The laid-out side is the smaller table, R1, keyed on A in [1, 2].
			"SELECT A FROM R1, R3 WHERE A = H",
			[]string{"hash join R3 on A = H: walk R3 [6 rows], lay out R1 [4 rows], keys: direct[2]\n"},
		},
	}
	for _, tc := range cases {
		q := ir.MustBuild(tc.sql, source)
		out := ev.Explain(q)
		for _, frag := range tc.frags {
			if !strings.Contains(out, frag) {
				t.Errorf("Explain(%q) missing %q:\n%s", tc.sql, frag, out)
			}
		}
		if strings.Contains(tc.sql, "1 = 2") && strings.Contains(out, "residual") {
			t.Errorf("Explain(%q) calls a constant predicate a residual filter:\n%s", tc.sql, out)
		}
	}

	// A laid-out side whose keys are wide is numbered by hashing.
	wide := NewRelation("G", "H")
	wide.Add(iv(0), iv(0))
	wide.Add(iv(1), iv(1_000_000))
	db.Put("R3", wide)
	q := ir.MustBuild("SELECT E FROM R2, R3 WHERE E = H", source)
	if out := ev.Explain(q); !strings.Contains(out, "walk R2 [3 rows], lay out R3 [2 rows], keys: hash\n") {
		t.Errorf("wide build keys should hash:\n%s", out)
	}
}

// TestExplainMatchesExecutor runs what Explain describes: the keying it
// prints for the first join step is the one the join counts, and a
// constant-false predicate it reports as "no row is read" reads no row.
func TestExplainMatchesExecutor(t *testing.T) {
	db := smallDB()
	for _, tc := range []struct {
		sql                  string
		frag                 string
		direct, hashed, rows int64
	}{
		{"SELECT A FROM R1, R2 WHERE C = F", "keys: direct[900]", 1, 0, 7},
		{"SELECT A FROM R1, R2 WHERE D = F", "keys: direct[900]", 1, 0, 7},
		{"SELECT A FROM R1 WHERE 1 = 2", "no row is read", 0, 0, 0},
	} {
		ev := NewEvaluator(db, nil)
		ev.Metrics = obs.NewMetrics()
		q := ir.MustBuild(tc.sql, src())
		if out := ev.Explain(q); !strings.Contains(out, tc.frag) {
			t.Errorf("Explain(%q) missing %q:\n%s", tc.sql, tc.frag, out)
		}
		if _, err := ev.ExecContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		m := ev.Metrics
		if d, h, r := m.Counter("engine.join.keys_direct").Load(), m.Counter("engine.join.keys_hashed").Load(), m.Counter("engine.scan.rows").Load(); d != tc.direct || h != tc.hashed || r != tc.rows {
			t.Errorf("%q: %d direct, %d hashed joins over %d scanned rows; Explain implies %d, %d, %d", tc.sql, d, h, r, tc.direct, tc.hashed, tc.rows)
		}
	}
}

func TestExplainWithViewsAndNilDB(t *testing.T) {
	reg := ir.NewRegistry()
	vq := ir.MustBuild("SELECT A, SUM(B) FROM R1 GROUP BY A", src())
	v, err := ir.NewViewDef("V1", vq)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(NewDB(), reg)
	q := ir.MustBuild("SELECT A FROM V1", ir.MultiSource{src(), reg})
	out := ev.Explain(q)
	if !strings.Contains(out, "scan V1 [view]") {
		t.Errorf("view annotation missing:\n%s", out)
	}
	// Explain must not panic without an evaluator database.
	out2 := (&Evaluator{}).Explain(q)
	if !strings.Contains(out2, "scan V1") {
		t.Errorf("nil-db explain broken:\n%s", out2)
	}
}

// TestExplainPredicateClassification pins the scan/join/residual
// classification of WHERE conjuncts (regression for the aggvet maporder
// finding: the classifier used to bucket single-table predicates
// through a throwaway map; it must stay order-deterministic and must
// keep same-table column comparisons on the scan, not the join).
func TestExplainPredicateClassification(t *testing.T) {
	db := smallDB()
	ev := NewEvaluator(db, nil)
	q := ir.MustBuild("SELECT A FROM R1, R2 WHERE A = E AND B > 1 AND E < 9 AND B <> C AND 1 = 1", src())
	want := ev.Explain(q)
	for _, frag := range []string{
		"filter(B > 1", // R1 single-table pushdown
		"B <> C",       // same-table two-column predicate stays on the scan
		"filter(E < 9)",
		"hash join R1 on A = E",
		"constant predicate 1 = 1 holds",
	} {
		if !strings.Contains(want, frag) {
			t.Fatalf("Explain missing %q:\n%s", frag, want)
		}
	}
	for i := 0; i < 50; i++ {
		if got := ev.Explain(q); got != want {
			t.Fatalf("Explain output not deterministic:\n--- first\n%s\n--- run %d\n%s", want, i, got)
		}
	}
}
