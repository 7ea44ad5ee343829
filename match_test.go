package aggview_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/oracle"
	"aggview/internal/sqlparser"
	"aggview/internal/value"
)

// parseChange parses a DELETE (set "") or UPDATE from its parts ("" =
// unconditional) the way the facade's DeleteContext and UpdateContext do.
func parseChange(t testing.TB, table, set, where string) (sqlparser.Expr, []sqlparser.Assignment) {
	t.Helper()
	text := "DELETE FROM " + table
	if set != "" {
		text = "UPDATE " + table + " SET " + set
	}
	if where != "" {
		text += " WHERE " + where
	}
	stmts, err := sqlparser.ParseScript(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	if upd, ok := stmts[0].(*sqlparser.Update); ok {
		return upd.Where, upd.Set
	}
	return stmts[0].(*sqlparser.Delete).Where, nil
}

// sameRows reports whether two row lists hold the same cells: same kind,
// same key (every NaN is one value).
func sameRows(a, b [][]aggview.Value) bool {
	return slices.EqualFunc(a, b, func(x, y []aggview.Value) bool {
		return slices.EqualFunc(x, y, func(p, q aggview.Value) bool {
			return p.Kind() == q.Kind() && value.KeyEqual(p, q)
		})
	})
}

// sameNumbers is sameRows with an int and a float the same cell when
// they are the same number: what a table reads after a float widened a
// column the reference holds ints in.
func sameNumbers(a, b [][]aggview.Value) bool {
	return slices.EqualFunc(a, b, func(x, y []aggview.Value) bool {
		return slices.EqualFunc(x, y, value.KeyEqual)
	})
}

// checkChange compares what the facade's DELETE/UPDATE pipeline would
// change — the statement lowered once and evaluated by the engine's
// kernels — with oracle.ReferenceChange, at serial and parallel worker counts:
// same positions and same replacement rows, or both fail. It returns the
// engine's error.
func checkChange(t testing.TB, sys *aggview.System, table, set, where string) error {
	t.Helper()
	cond, assigns := parseChange(t, table, set, where)
	return checkParsed(t, sys, table, fmt.Sprintf("%s SET %q WHERE %q", table, set, where), cond, assigns)
}

// checkParsed is checkChange for a statement already parsed; what names
// it in failures.
func checkParsed(t testing.TB, sys *aggview.System, table, what string, cond sqlparser.Expr, assigns []sqlparser.Assignment) error {
	t.Helper()
	rel, ok := sys.DB.Get(table)
	if !ok {
		t.Fatalf("no relation %s", table)
	}
	wantPos, wantNews, wantErr := oracle.ReferenceChange(table, rel, cond, assigns)
	var gotErr error
	for _, workers := range []int{1, 4} {
		sys.Opts.Workers = workers
		pos, news, err := sys.ChangedRows(context.Background(), table, cond, assigns)
		what := fmt.Sprintf("%s workers=%d", what, workers)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: engine error %v, reference error %v", what, err, wantErr)
		}
		if err != nil {
			gotErr = err
			continue
		}
		if !slices.Equal(pos, wantPos) {
			t.Fatalf("%s: matched %d rows, the reference matches %d (first positions %v vs %v)",
				what, len(pos), len(wantPos), head(pos), head(wantPos))
		}
		if !sameRows(news, wantNews) {
			t.Fatalf("%s: replacement rows differ from the reference's over %d matched rows", what, len(pos))
		}
	}
	return gotErr
}

// checkMatch is checkChange for a condition that must not fail.
func checkMatch(t *testing.T, sys *aggview.System, table, where string) {
	t.Helper()
	if err := checkChange(t, sys, table, "", where); err != nil {
		t.Fatalf("%s WHERE %s: %v", table, where, err)
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
		for _, tab := range mc.Tables {
			sys.MustLoad(tab.SQL())
			if err := sys.InsertContext(context.Background(), tab.Name, tab.Rows...); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range mc.Steps {
			if st.Kind == oracle.StepDelete || st.Kind == oracle.StepUpdate {
				if err := checkChange(t, sys, st.Table, st.Set, st.Where); err != nil {
					t.Fatalf("%s: %v", st.SQL(), err)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d generated predicates checked", checked)
	}
}

// edgeTable is 5000 rows of T(K, F, S, M, B): small int, float and string
// domains, a float column the store widened from ints and floats, and
// zeros to divide by.
func edgeTable(t *testing.T) *aggview.System {
	sys := aggview.New()
	sys.MustLoad("CREATE TABLE T(K, F, S, M, B)")
	rel := engine.NewRelation("K", "F", "S", "M", "B")
	for i := 0; i < 5000; i++ {
		m := aggview.Int(int64(i % 7))
		if i%3 > 0 {
			m = aggview.Float(float64(i%7) + 0.5)
		}
		rel.Add(aggview.Int(int64(i%11)), aggview.Float(float64(i%5)+0.25), aggview.Str(fmt.Sprintf("s%d", i%4)), m, aggview.Int(int64(i%13)))
	}
	if err := sys.InsertContext(context.Background(), "T", rel.Tuples...); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMatchEqualsEvalCondEdges covers what the generator does not draw:
// a widened column, int columns against float constants and the
// reverse, comparisons between incomparable kinds, column-column
// conjuncts across kinds, the unconditional WHERE, and conjuncts with
// arithmetic on a side — one, two and three of them, before, between and
// behind the column-op-term conjuncts, over int, float, string and widened
// operands.
func TestMatchEqualsEvalCondEdges(t *testing.T) {
	sys := edgeTable(t)
	for _, where := range []string{
		"",
		"M = 3", "M <> 's3'", "M >= 2.5", "M = K",
		"K = 3.0", "K < 2.5", "K <> 2.5", "F >= 2", "F = 1.25", "3 < K",
		"S <> 5", "S = 5", "S < 5", "K = 'x'", "K <> 'x'",
		"K = B", "K <> F", "K < F AND F <= B",
		"K + 1 > B", "K + 1 > B AND S = 's1'", "S = 's1' AND B - K = 2 AND K > 1", "K * 2 = B AND M <> 4",
		"K = 3 AND K = 4", "1 = 1", "1 = 2", "K = 3 AND 2 > 1",
		// two arithmetic conjuncts, the column-op-term one in every position
		"K + 1 > B AND B - K < 5", "S = 's1' AND K + 1 > B AND B * 2 > K",
		"K + 1 > B AND S = 's1' AND B * 2 > K", "K + 1 > B AND B * 2 > K AND S = 's1'",
		// three, likewise
		"K + 1 > B AND B - K < 9 AND K * B > 10",
		"S = 's1' AND K + 1 > B AND B - K < 9 AND K * B > 10", "K + 1 > B AND S = 's1' AND B - K < 9 AND K * B > 10",
		"K + 1 > B AND B - K < 9 AND S = 's1' AND K * B > 10", "K + 1 > B AND B - K < 9 AND K * B > 10 AND S = 's1'",
		"K + 1 > B AND K < 4 AND B - K < 9 AND F > 1 AND K * B > 2",
		// an earlier arithmetic conjunct that keeps nothing, or everything
		"K + 1 < 0 AND B * 2 > K", "K + 1 > 0 AND B + 1 > 0 AND K * 0 = 0",
		// float, string and widened operands of an arithmetic conjunct
		"F * 2 > K", "K / 2 > F", "F - 0.25 = K - 0 AND B > 2", "K + 0.5 >= M", "M <> K * 1", "M = B - K AND K > 0",
		"K + 1 > S", "S <> K * 2", "S < 's2' AND K + 1 > B", "K + 1 = 's1'", "2 * 3 > K", "K + B > F * 2 AND M >= 1",
		// a zero divisor only in rows an earlier conjunct rejected
		"K <> 3 AND B / (K - 3) > 1", "K - 3 <> 0 AND B / (K - 3) > 1", "K > 100 AND B / 0 > 1", "K + 100 < 0 AND 1 / 0 > 1",
		// ... including a column-op-term conjunct written behind the division
		"B / (K - 3) > 1 AND K <> 3",
	} {
		checkMatch(t, sys, "T", where)
	}
	// A zero divisor in a row every earlier conjunct kept raises value.Div's
	// error, as it does in the reference; so does arithmetic over a string.
	for _, where := range []string{
		"K = 3 AND B / (K - 3) > 1", "K - 3 >= 0 AND B / (K - 3) > 1", "B / (K - 3) > 1", "1 / 0 > 1", "S = 's1' AND K / (B - B) = 0",
	} {
		if err := checkChange(t, sys, "T", "", where); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("WHERE %s: error %v, want value.Div's division by zero", where, err)
		}
	}
	for _, where := range []string{"S + 1 > 2", "K > 2 AND S * 2 > 1"} {
		if err := checkChange(t, sys, "T", "", where); err == nil {
			t.Errorf("WHERE %s: no error over a string operand", where)
		}
	}
}

// TestSetEqualsEvalExpr holds the SET kernel to the reference over int,
// float, string and widened columns, with 1023, 1024, 1025 and 2053
// matched rows — a morsel of matched rows short of, at and past its
// boundary, and two and a bit — both from the table's first row and from
// a run that straddles stored chunks; then applies each statement and
// compares the table with the reference's, int and float cells as one
// number where a float widened the column.
func TestSetEqualsEvalExpr(t *testing.T) {
	cols := []string{"Id", "I", "F", "S", "S2", "M"}
	load := func() (*aggview.System, *engine.Relation) {
		sys := aggview.New()
		sys.MustLoad("CREATE TABLE T(" + strings.Join(cols, ", ") + ") KEY(Id)")
		rel := engine.NewRelation(cols...)
		for i := 0; i < 4000; i++ {
			m := aggview.Int(int64(i % 9))
			if i%2 == 1 {
				m = aggview.Float(float64(i%9) / 4)
			}
			rel.Add(aggview.Int(int64(i)), aggview.Int(int64(i%17-3)), aggview.Float(float64(i%23)/8),
				aggview.Str(fmt.Sprintf("s%d", i%5)), aggview.Str(fmt.Sprintf("t%d", i%3)), m)
		}
		if err := sys.InsertContext(context.Background(), "T", rel.Tuples...); err != nil {
			t.Fatal(err)
		}
		stored, _ := sys.DB.Get("T")
		return sys, stored
	}
	sets := []string{
		"I = I + 1", "F = F * 2, I = I - Id", "S = 'z'", "S = S2", "M = M", "I = F", "F = I / 2",
		"M = I + 0.5", "I = 7, F = 1.5, S = 'k'", "I = I * I - Id, F = F + I, M = F", "M = M * 2 + I", "I = 1, I = I + 2",
	}
	for _, n := range []int{1023, 1024, 1025, 2053} {
		for _, from := range []int{0, 700} {
			where := fmt.Sprintf("Id >= %d AND Id < %d", from, from+n)
			for _, set := range sets {
				sys, rel := load()
				if err := checkChange(t, sys, "T", set, where); err != nil {
					t.Fatalf("SET %s WHERE %s: %v", set, where, err)
				}
				changed, err := sys.UpdateContext(context.Background(), "T", set, where)
				if err != nil || changed != n {
					t.Fatalf("SET %s WHERE %s: updated %d rows (err %v), want %d", set, where, changed, err, n)
				}
				cond, assigns := parseChange(t, "T", set, where)
				pos, news, _ := oracle.ReferenceChange("T", rel, cond, assigns)
				for i, p := range pos {
					rel.Tuples[p] = news[i]
				}
				if got, _ := sys.DB.Get("T"); !sameNumbers(got.Tuples, rel.Tuples) {
					t.Fatalf("SET %s WHERE %s: the stored table differs from the reference's", set, where)
				}
			}
		}
	}
	sys, _ := load()
	for _, set := range []string{"I = S + 1", "F = I / (Id - 1024)", "S = S2 * 2", "I = Nope", "Nope = 1", "I = SUM(I)"} {
		if err := checkChange(t, sys, "T", set, "Id < 2053"); err == nil {
			t.Errorf("SET %s: no error", set)
		}
	}
}

// staticallyInvalid reports whether lowering must reject the statement
// whatever the table holds: a column T lacks (or one qualified by another
// name), or an aggregate. The reference meets those only on a row it
// evaluates, so on them the two are compared by "the engine fails" alone.
func staticallyInvalid(cols []string, where sqlparser.Expr, set []sqlparser.Assignment) bool {
	has := func(name string) bool {
		return slices.ContainsFunc(cols, func(c string) bool { return strings.EqualFold(c, name) })
	}
	var bad func(e sqlparser.Expr) bool
	bad = func(e sqlparser.Expr) bool {
		switch x := e.(type) {
		case *sqlparser.ColumnRef:
			return !has(x.Name) || x.Qualifier != "" && !strings.EqualFold(x.Qualifier, "T")
		case *sqlparser.BinExpr:
			return bad(x.L) || bad(x.R)
		case *sqlparser.AggExpr:
			return true
		}
		return false
	}
	for _, a := range set {
		if !has(a.Col) || bad(a.Expr) {
			return true
		}
	}
	return where != nil && bad(where)
}

// FuzzMutationMatchesReference feeds statement text through the parser
// and holds the facade's DELETE/UPDATE pipeline to the reference on a
// table with int, float, string and widened columns, zeros to divide by
// and a chunk boundary: same positions and same replacement rows, or
// both fail.
func FuzzMutationMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"DELETE FROM T", "DELETE FROM T WHERE K = 3 AND B / (K - 3) > 1", "DELETE FROM T WHERE K <> 3 AND B / (K - 3) > 1",
		"DELETE FROM T WHERE K + 1 > B AND S = 's1' AND B * 2 > K", "DELETE FROM T WHERE M >= 2.5 AND K BETWEEN 2 AND 7",
		"UPDATE T SET B = B + 1 WHERE K < 4", "UPDATE T SET F = K / B, S = 'x' WHERE T.K * 2 > B", "UPDATE T SET M = M + 1",
		"UPDATE T SET K = -K, B = (K + B) * 2 WHERE F - 0.25 >= K", "DELETE FROM T WHERE Nope = 1", "UPDATE T SET K = COUNT(*)",
		"DELETE FROM T WHERE S + 1 > 2 AND K > 100", "UPDATE T SET S = TRUE WHERE 1 = 1 AND K = FALSE",
	} {
		f.Add(seed)
	}
	cols := []string{"K", "F", "S", "M", "B"}
	rel := engine.NewRelation(cols...)
	for i := 0; i < 1100; i++ {
		m := aggview.Value(aggview.Int(int64(i % 5)))
		if i%3 == 1 {
			m = aggview.Float(float64(i%5) / 2)
		}
		rel.Add(aggview.Int(int64(i%11)), aggview.Float(float64(i%4)/2), aggview.Str(fmt.Sprintf("s%d", i%3)), m, aggview.Int(int64(i%7)))
	}
	sys := aggview.New()
	sys.MustLoad("CREATE TABLE T(K, F, S, M, B)")
	if err := sys.InsertContext(context.Background(), "T", rel.Tuples...); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, text string) {
		stmts, err := sqlparser.ParseScript(text)
		if err != nil || len(stmts) != 1 {
			return
		}
		var table string
		var cond sqlparser.Expr
		var assigns []sqlparser.Assignment
		switch x := stmts[0].(type) {
		case *sqlparser.Delete:
			table, cond = x.Table, x.Where
		case *sqlparser.Update:
			table, cond, assigns = x.Table, x.Where, x.Set
		default:
			return
		}
		if !strings.EqualFold(table, "T") {
			return
		}
		if staticallyInvalid(cols, cond, assigns) {
			if _, _, err := sys.ChangedRows(context.Background(), "T", cond, assigns); err == nil {
				t.Fatalf("%s: lowered, though it names a column T lacks or an aggregate", text)
			}
			return
		}
		_ = checkParsed(t, sys, "T", text, cond, assigns)
	})
}
