package sqlparser

import (
	"strings"
	"testing"

	"aggview/internal/value"
)

func mustParse(t *testing.T, src string) *Select {
	t.Helper()
	sel, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return sel
}

func TestParseMotivatingExample(t *testing.T) {
	// Query Q from Example 1.1 of the paper.
	q := mustParse(t, `
		SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
		GROUP BY Calling_Plans.Plan_Id, Plan_Name
		HAVING SUM(Charge) < 1000000`)
	if len(q.Items) != 3 {
		t.Fatalf("want 3 select items, got %d", len(q.Items))
	}
	if agg, ok := q.Items[2].Expr.(*AggExpr); !ok || agg.Func != AggSum {
		t.Errorf("third item should be SUM aggregate, got %T", q.Items[2].Expr)
	}
	if len(q.From) != 2 || q.From[0].Table != "Calls" {
		t.Errorf("FROM parsed wrong: %+v", q.From)
	}
	conj := Conjuncts(q.Where)
	if len(conj) != 2 {
		t.Errorf("want 2 where conjuncts, got %d", len(conj))
	}
	if len(q.GroupBy) != 2 || q.GroupBy[0].Qualifier != "Calling_Plans" {
		t.Errorf("GROUP BY parsed wrong: %+v", q.GroupBy)
	}
	hav, ok := q.Having.(*BinExpr)
	if !ok || hav.Op != OpLt {
		t.Fatalf("HAVING should be < comparison, got %#v", q.Having)
	}
}

func TestParseGroupByOneWord(t *testing.T) {
	// The paper writes GROUPBY as one token.
	q := mustParse(t, "SELECT A, COUNT(B) FROM R GROUPBY A")
	if len(q.GroupBy) != 1 || q.GroupBy[0].Name != "A" {
		t.Errorf("GROUPBY keyword not accepted: %+v", q.GroupBy)
	}
}

func TestParseDistinctAndAliases(t *testing.T) {
	q := mustParse(t, "SELECT DISTINCT r.A AS x, B FROM R r, S AS s2 WHERE r.A = s2.C")
	if !q.Distinct {
		t.Error("DISTINCT not parsed")
	}
	if q.Items[0].Alias != "x" {
		t.Error("select alias not parsed")
	}
	if q.From[0].Alias != "r" || q.From[1].Alias != "s2" {
		t.Errorf("table aliases wrong: %+v", q.From)
	}
}

func TestParseCountStarAndOperators(t *testing.T) {
	q := mustParse(t, "SELECT COUNT(*) FROM R WHERE A <> 1 AND B != 2 AND C <= 3 AND D >= 4 AND E < 5 AND F > 6")
	agg := q.Items[0].Expr.(*AggExpr)
	if !agg.Star || agg.Func != AggCount {
		t.Error("COUNT(*) not parsed")
	}
	ops := []BinOp{OpNeq, OpNeq, OpLeq, OpGeq, OpLt, OpGt}
	conj := Conjuncts(q.Where)
	if len(conj) != len(ops) {
		t.Fatalf("want %d conjuncts, got %d", len(ops), len(conj))
	}
	for i, c := range conj {
		if b := c.(*BinExpr); b.Op != ops[i] {
			t.Errorf("conjunct %d: op %s, want %s", i, b.Op, ops[i])
		}
	}
}

func TestParseLiterals(t *testing.T) {
	q := mustParse(t, "SELECT A FROM R WHERE A = 'it''s' AND B = 2.5 AND C = -7 AND D = TRUE")
	conj := Conjuncts(q.Where)
	if lit := conj[0].(*BinExpr).R.(*Lit); lit.Val.AsString() != "it's" {
		t.Errorf("string literal: %v", lit.Val)
	}
	if lit := conj[1].(*BinExpr).R.(*Lit); lit.Val.AsFloat() != 2.5 {
		t.Errorf("float literal: %v", lit.Val)
	}
	if lit := conj[2].(*BinExpr).R.(*Lit); lit.Val.AsInt() != -7 {
		t.Errorf("negative int literal: %v", lit.Val)
	}
	if lit := conj[3].(*BinExpr).R.(*Lit); !lit.Val.AsBool() {
		t.Errorf("bool literal: %v", lit.Val)
	}
}

func TestParseArithmetic(t *testing.T) {
	q := mustParse(t, "SELECT Cnt * SUM(E) FROM V GROUP BY Cnt")
	b, ok := q.Items[0].Expr.(*BinExpr)
	if !ok || b.Op != OpMul {
		t.Fatalf("want multiplication, got %#v", q.Items[0].Expr)
	}
	if _, ok := b.R.(*AggExpr); !ok {
		t.Error("right side should be aggregate")
	}
	q = mustParse(t, "SELECT SUM(N * E) FROM V")
	agg := q.Items[0].Expr.(*AggExpr)
	if inner, ok := agg.Arg.(*BinExpr); !ok || inner.Op != OpMul {
		t.Error("aggregate over product not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT A",
		"SELECT A FROM",
		"SELECT A FROM R WHERE",
		"SELECT A FROM R WHERE A",
		"SELECT A FROM R WHERE A = 1 OR B = 2",
		"SELECT A FROM R WHERE NOT A = 1",
		"SELECT MIN(*) FROM R",
		"SELECT A FROM R GROUP A",
		"SELECT A FROM R; SELECT B FROM S", // Parse wants a single query
		"SELECT A FROM R WHERE A = 'unterminated",
		"SELECT A FROM R WHERE A ! B",
		"SELECT A FROM R @",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		-- telco warehouse
		CREATE TABLE Calls(Call_Id, Plan_Id, Charge) KEY(Call_Id) FD(Plan_Id -> Charge);
		CREATE VIEW V1 AS SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id;
		SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("want 3 statements, got %d", len(stmts))
	}
	ct, ok := stmts[0].(*CreateTable)
	if !ok {
		t.Fatalf("statement 0: %T", stmts[0])
	}
	if ct.Name != "Calls" || len(ct.Columns) != 3 || len(ct.Keys) != 1 || len(ct.FDs) != 1 {
		t.Errorf("CreateTable parsed wrong: %+v", ct)
	}
	if ct.FDs[0][0][0] != "Plan_Id" || ct.FDs[0][1][0] != "Charge" {
		t.Errorf("FD parsed wrong: %+v", ct.FDs)
	}
	cv, ok := stmts[1].(*CreateView)
	if !ok || cv.Name != "V1" {
		t.Fatalf("statement 1: %#v", stmts[1])
	}
	if _, ok := stmts[2].(*QueryStatement); !ok {
		t.Fatalf("statement 2: %T", stmts[2])
	}
}

func TestParseScriptErrors(t *testing.T) {
	bad := []string{
		"CREATE X",
		"CREATE TABLE",
		"CREATE TABLE T",
		"CREATE TABLE T(A B)",
		"CREATE TABLE T(A) KEY",
		"CREATE TABLE T(A) FD(A - B)",
		"CREATE VIEW V SELECT A FROM R",
		"SELECT A FROM R SELECT B FROM S",
	}
	for _, src := range bad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q): expected error", src)
		}
	}
}

// Round trip: parse, print, re-parse, and compare printed forms.
func TestRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT A1, SUM(B1) FROM R1, R2 WHERE A1 = C1 AND B1 = 6 GROUP BY A1",
		"SELECT DISTINCT A FROM R",
		"SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E",
		"SELECT Plan_Id, Plan_Name, SUM(Monthly_Earnings) FROM V1 WHERE Year = 1995 GROUP BY Plan_Id, Plan_Name HAVING SUM(Monthly_Earnings) < 1000000",
		"SELECT Cnt * SUM(E) AS total FROM V v1, R GROUP BY Cnt",
		"SELECT COUNT(*) FROM R WHERE A = 'x'",
		"SELECT SUM(N * B) FROM V WHERE A <> 3.5",
	}
	for _, src := range queries {
		first := mustParse(t, src)
		printed := first.SQL()
		second := mustParse(t, printed)
		if got := second.SQL(); got != printed {
			t.Errorf("round trip diverged:\n  1: %s\n  2: %s", printed, got)
		}
	}
}

func TestConjunctsAndAll(t *testing.T) {
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) should be nil")
	}
	a := &BinExpr{Op: OpEq, L: &ColumnRef{Name: "A"}, R: &Lit{Val: value.Int(1)}}
	b := &BinExpr{Op: OpEq, L: &ColumnRef{Name: "B"}, R: &Lit{Val: value.Int(2)}}
	c := &BinExpr{Op: OpEq, L: &ColumnRef{Name: "C"}, R: &Lit{Val: value.Int(3)}}
	tree := &BinExpr{Op: OpAnd, L: &BinExpr{Op: OpAnd, L: a, R: b}, R: c}
	back := Conjuncts(tree)
	if len(back) != 3 || back[0] != a || back[2] != c {
		t.Errorf("Conjuncts of an AND-tree: %v", back)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	q := mustParse(t, "SELECT A -- trailing comment\nFROM R -- another\n")
	if len(q.Items) != 1 || q.From[0].Table != "R" {
		t.Error("comments not skipped")
	}
}

func TestSQLRendering(t *testing.T) {
	q := mustParse(t, "SELECT a.X, MIN(Y) FROM T a WHERE a.X > 3 GROUP BY a.X HAVING MIN(Y) = 2")
	s := q.SQL()
	for _, frag := range []string{"SELECT a.X, MIN(Y)", "FROM T a", "WHERE a.X > 3", "GROUP BY a.X", "HAVING MIN(Y) = 2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("SQL() missing %q: %s", frag, s)
		}
	}
}

func TestParenthesizedArithmeticRendering(t *testing.T) {
	q := mustParse(t, "SELECT (A + B) * C FROM R")
	s := q.SQL()
	if !strings.Contains(s, "(A + B) * C") {
		t.Errorf("nested arithmetic should re-parenthesise: %s", s)
	}
	// And the printed form must parse to the same structure.
	q2 := mustParse(t, s)
	if q2.SQL() != s {
		t.Errorf("arith round trip: %s vs %s", s, q2.SQL())
	}
}

func TestIsComparison(t *testing.T) {
	for _, op := range []BinOp{OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq} {
		if !IsComparison(op) {
			t.Errorf("%s is a comparison", op)
		}
	}
	for _, op := range []BinOp{OpAnd, OpAdd, OpMul} {
		if IsComparison(op) {
			t.Errorf("%s is not a comparison", op)
		}
	}
}

func TestParseDerivedTable(t *testing.T) {
	q := mustParse(t, "SELECT Product, SUM(Amount) FROM (SELECT Product, Amount FROM Sales WHERE Region = 1) x GROUP BY Product")
	if len(q.From) != 1 || q.From[0].Subquery == nil || q.From[0].Alias != "x" {
		t.Fatalf("derived table parsed wrong: %+v", q.From)
	}
	inner := q.From[0].Subquery
	if inner.From[0].Table != "Sales" || inner.Where == nil {
		t.Errorf("inner select wrong: %s", inner.SQL())
	}
	// Round trip.
	again := mustParse(t, q.SQL())
	if again.SQL() != q.SQL() {
		t.Errorf("derived-table round trip: %s vs %s", q.SQL(), again.SQL())
	}
}

func TestParseDerivedTableAs(t *testing.T) {
	q := mustParse(t, "SELECT A FROM (SELECT A FROM R) AS sub")
	if q.From[0].Alias != "sub" {
		t.Errorf("AS alias: %+v", q.From[0])
	}
}

func TestParseNestedDerivedTables(t *testing.T) {
	q := mustParse(t, "SELECT A FROM (SELECT A FROM (SELECT A FROM R) y) x")
	if q.From[0].Subquery.From[0].Subquery == nil {
		t.Fatal("nested derived tables should parse")
	}
}

func TestParseDerivedTableErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT A FROM (SELECT A FROM R)",     // missing alias
		"SELECT A FROM (SELECT A FROM R x",    // missing close paren
		"SELECT A FROM () x",                  // empty subquery
		"SELECT A FROM (CREATE TABLE T(A)) x", // not a select
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestParseBetween(t *testing.T) {
	q := mustParse(t, "SELECT A FROM R WHERE B BETWEEN 1 AND 5 AND C = 2")
	conj := Conjuncts(q.Where)
	if len(conj) != 3 {
		t.Fatalf("BETWEEN should expand to two conjuncts: %d", len(conj))
	}
	lo := conj[0].(*BinExpr)
	hi := conj[1].(*BinExpr)
	if lo.Op != OpGeq || hi.Op != OpLeq {
		t.Errorf("BETWEEN bounds: %s / %s", lo.Op, hi.Op)
	}
	// HAVING too.
	q2 := mustParse(t, "SELECT A, SUM(B) FROM R GROUP BY A HAVING SUM(B) BETWEEN 2 AND 9")
	if len(Conjuncts(q2.Having)) != 2 {
		t.Error("BETWEEN in HAVING should expand")
	}
	// Errors.
	for _, bad := range []string{
		"SELECT A FROM R WHERE B BETWEEN 1",
		"SELECT A FROM R WHERE B BETWEEN 1 5",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

// TestKeywordCaseAllocatesNothing: a keyword in any letter case is found
// without building its upper-cased spelling, so a query parses in the
// allocations of its upper-case spelling.
func TestKeywordCaseAllocatesNothing(t *testing.T) {
	allocs := func(sql string) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := Parse(sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	lower, upper := allocs("select a, sum(b) from t group by a"), allocs("SELECT a, SUM(b) FROM t GROUP BY a")
	if lower != upper {
		t.Fatalf("lower-case keywords: %.0f allocations, upper-case: %.0f", lower, upper)
	}
	for _, text := range []string{"select", "Select", "SELECT", "groupby", "distinct"} {
		if kw, ok := keyword(text); !ok || kw != strings.ToUpper(text) {
			t.Errorf("keyword(%q) = %q, %v", text, kw, ok)
		}
	}
	for _, text := range []string{"selects", "a", "distincts", "s3lect"} {
		if kw, ok := keyword(text); ok {
			t.Errorf("keyword(%q) = %q, want none", text, kw)
		}
	}
}
