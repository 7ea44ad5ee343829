package aggview_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/oracle"
	"aggview/internal/sqlparser"
)

// parseWhere parses a bare condition ("" = unconditional) the way the
// facade's Delete does.
func parseWhere(t *testing.T, table, where string) sqlparser.Expr {
	t.Helper()
	text := "DELETE FROM " + table
	if where != "" {
		text += " WHERE " + where
	}
	stmts, err := sqlparser.ParseScript(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return stmts[0].(*sqlparser.Delete).Where
}

// checkMatch compares the facade's matcher with sqlparser.EvalCond
// evaluated on every row, at serial and parallel worker counts.
func checkMatch(t *testing.T, sys *aggview.System, table, where string) {
	t.Helper()
	cond := parseWhere(t, table, where)
	rel, ok := sys.DB.Get(table)
	if !ok {
		t.Fatalf("no relation %s", table)
	}
	var want []int32
	for i, row := range rel.Tuples {
		hit, err := sqlparser.EvalCond(cond, rel.Attrs, row)
		if err != nil {
			t.Fatalf("%s WHERE %s: reference: %v", table, where, err)
		}
		if hit {
			want = append(want, int32(i))
		}
	}
	for _, workers := range []int{1, 4} {
		sys.Opts.Workers = workers
		got, err := sys.MatchPositions(context.Background(), table, cond)
		if err != nil {
			t.Fatalf("%s WHERE %s workers=%d: %v", table, where, workers, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s WHERE %s workers=%d: matched %d rows, EvalCond matches %d (first positions %v vs %v)",
				table, where, workers, len(got), len(want), head(got), head(want))
		}
	}
}

func head(xs []int32) []int32 { return xs[:min(len(xs), 8)] }

// TestMatchEqualsEvalCondGenerated runs every DELETE and UPDATE
// predicate of the mutation oracle's generated scenarios — small tables
// and ones large enough to fan the filter out over several morsels.
func TestMatchEqualsEvalCondGenerated(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 60; seed++ {
		opt := oracle.GenOptions{}
		if seed%10 == 0 {
			opt.MaxRows = 6000
		}
		mc := oracle.GenerateMutation(rand.New(rand.NewSource(seed)), opt)
		sys := aggview.New()
		for _, tab := range mc.Base.Tables {
			sys.MustLoad(tab.SQL())
			if err := sys.SetRelation(tab.Name, tab.Relation()); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range mc.Steps {
			if st.Kind == oracle.StepDelete || st.Kind == oracle.StepUpdate {
				checkMatch(t, sys, st.Table, st.Where)
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d generated predicates checked", checked)
	}
}

// TestMatchEqualsEvalCondEdges covers what the generator does not draw:
// a mixed-kind column, int columns against float constants and the
// reverse, comparisons between incomparable kinds, column-column
// conjuncts across kinds, arithmetic conjuncts (decided by EvalCond on
// the prefilter's survivors) and the unconditional WHERE.
func TestMatchEqualsEvalCondEdges(t *testing.T) {
	sys := aggview.New()
	sys.MustLoad("CREATE TABLE T(K, F, S, M, B)")
	rel := engine.NewRelation("K", "F", "S", "M", "B")
	for i := 0; i < 5000; i++ {
		var m aggview.Value
		switch i % 3 {
		case 0:
			m = aggview.Int(int64(i % 7))
		case 1:
			m = aggview.Float(float64(i%7) + 0.5)
		default:
			m = aggview.Str(fmt.Sprintf("s%d", i%7))
		}
		rel.Add(aggview.Int(int64(i%11)), aggview.Float(float64(i%5)+0.25), aggview.Str(fmt.Sprintf("s%d", i%4)), m, aggview.Int(int64(i%13)))
	}
	if err := sys.SetRelation("T", rel); err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{
		"",
		"M = 3", "M <> 's3'", "M >= 2.5", "M = K",
		"K = 3.0", "K < 2.5", "K <> 2.5", "F >= 2", "F = 1.25", "3 < K",
		"S <> 5", "S = 5", "S < 5", "K = 'x'", "K <> 'x'",
		"K = B", "K <> F", "K < F AND F <= B",
		"K + 1 > B", "K + 1 > B AND S = 's1'", "S = 's1' AND B - K = 2 AND K > 1", "K * 2 = B AND M <> 4",
		"K = 3 AND K = 4", "1 = 1", "1 = 2", "K = 3 AND 2 > 1",
	} {
		checkMatch(t, sys, "T", where)
	}
}
