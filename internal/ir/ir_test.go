package ir

import (
	"strings"
	"testing"

	"aggview/internal/sqlparser"
	"aggview/internal/value"
)

// paperTables is the R1(A,B,C,D), R2(E,F) schema used by the paper's
// Section 4 examples, plus the telco warehouse of Example 1.1.
func paperTables() MapSource {
	return MapSource{
		"R1":            {"A", "B", "C", "D"},
		"R2":            {"E", "F"},
		"R3":            {"A", "B", "C"},
		"Calls":         {"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge"},
		"Calling_Plans": {"Plan_Id", "Plan_Name"},
	}
}

func build(t *testing.T, sql string) *Query {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	q, err := Build(sel, paperTables())
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	return q
}

func buildErr(t *testing.T, sql string) error {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	_, err = Build(sel, paperTables())
	if err == nil {
		t.Fatalf("build %q: expected error", sql)
	}
	return err
}

func TestUniqueColumnNaming(t *testing.T) {
	// Two occurrences of R1: columns must be renamed A_1, A_2 etc.
	q := build(t, "SELECT r.A FROM R1 r, R1 s WHERE r.B = s.C")
	if len(q.Columns) != 8 {
		t.Fatalf("want 8 columns, got %d", len(q.Columns))
	}
	names := map[string]bool{}
	for _, c := range q.Columns {
		if names[c.Name] {
			t.Errorf("duplicate column name %q", c.Name)
		}
		names[c.Name] = true
	}
	if !names["A_1"] || !names["A_2"] {
		t.Errorf("expected paper-style renamed columns, got %v", names)
	}
}

func TestResolutionQualifiedAndBare(t *testing.T) {
	q := build(t, "SELECT Calls.Plan_Id, Plan_Name FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id")
	// Select item 0 must resolve to the Calls occurrence.
	c0 := q.Select[0].Expr.(*ColRef)
	if q.Col(c0.Col).Table != 0 {
		t.Errorf("Calls.Plan_Id resolved to table %d", q.Col(c0.Col).Table)
	}
	c1 := q.Select[1].Expr.(*ColRef)
	if q.Col(c1.Col).Table != 1 {
		t.Errorf("bare Plan_Name should resolve to Calling_Plans")
	}
	p := q.Where[0]
	if q.Col(p.L.Col).Table == q.Col(p.R.Col).Table {
		t.Error("join predicate should span both tables")
	}
}

func TestResolutionErrors(t *testing.T) {
	cases := []string{
		"SELECT A FROM Nope",
		"SELECT Z FROM R1",
		"SELECT A FROM R1, R3",               // ambiguous bare column
		"SELECT x.A FROM R1",                 // unknown qualifier
		"SELECT R1.A FROM R1 r, R1 s",        // ambiguous qualifier
		"SELECT R1.E FROM R1",                // wrong table for column
		"SELECT A, SUM(B) FROM R1",           // bare col not grouped
		"SELECT A FROM R1 GROUP BY B",        // A not in GROUP BY
		"SELECT SUM(B) FROM R1 HAVING A > 2", // HAVING col not grouped
		"SELECT A FROM R1 WHERE A + 1 = 2",   // arithmetic in WHERE
		"SELECT A FROM R1 WHERE SUM(A) = 2",  // aggregate in WHERE term
		"SELECT SUM(MIN(A)) FROM R1",         // nested aggregate
	}
	for _, sql := range cases {
		buildErr(t, sql)
	}
}

func TestAggregationQueryDetection(t *testing.T) {
	if build(t, "SELECT A, B FROM R1 WHERE A = 3").IsAggregationQuery() {
		t.Error("conjunctive query misclassified")
	}
	if !build(t, "SELECT SUM(A) FROM R1").IsAggregationQuery() {
		t.Error("aggregate without grouping is an aggregation query")
	}
	if !build(t, "SELECT A FROM R1 GROUP BY A").IsAggregationQuery() {
		t.Error("grouped query is an aggregation query")
	}
}

func TestColSelAggSelGroups(t *testing.T) {
	q := build(t, "SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E")
	if cs := q.ColSel(); len(cs) != 2 {
		t.Errorf("ColSel: %v", cs)
	}
	if len(q.GroupBy) != 2 {
		t.Errorf("GroupBy: %v", q.GroupBy)
	}
	b := q.Select[2].Expr.(*Agg).Arg.(*ColRef).Col
	if !q.IsGrouping(q.GroupBy[0]) || q.IsGrouping(b) {
		t.Error("IsGrouping misbehaves")
	}
}

func TestCountStarNormalization(t *testing.T) {
	q := build(t, "SELECT COUNT(*) FROM R1")
	agg := q.Select[0].Expr.(*Agg)
	if agg.Star {
		t.Error("COUNT(*) should be normalized to a column count")
	}
	if _, ok := agg.Arg.(*ColRef); !ok {
		t.Error("normalized COUNT should aggregate a column")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT A, SUM(B) FROM R1, R2 WHERE A = E AND B = 6 GROUP BY A",
		"SELECT DISTINCT A FROM R1 WHERE B <> 2",
		"SELECT r.A FROM R1 r, R1 s WHERE r.B = s.C",
		"SELECT Calls.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995 GROUP BY Calls.Plan_Id, Plan_Name HAVING SUM(Charge) < 1000000",
		"SELECT MIN(A) FROM R1 HAVING MIN(A) > 3 AND MAX(B) <= 7",
	}
	for _, sql := range queries {
		q := build(t, sql)
		rendered := q.SQL()
		sel, err := sqlparser.Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", rendered, err)
		}
		q2, err := Build(sel, paperTables())
		if err != nil {
			t.Fatalf("re-build of %q failed: %v", rendered, err)
		}
		if got := q2.SQL(); got != rendered {
			t.Errorf("render not stable:\n  1: %s\n  2: %s", rendered, got)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := build(t, "SELECT A, SUM(B) FROM R1 WHERE C = 1 GROUP BY A")
	c := q.Clone()
	c.Where[0].R = ConstTerm(c.Where[0].R.Val) // same, then mutate
	c.GroupBy[0] = 99
	c.Select[0].Alias = "changed"
	c.Tables[0].Cols[0] = 42
	if q.GroupBy[0] == 99 || q.Select[0].Alias == "changed" || q.Tables[0].Cols[0] == 42 {
		t.Error("Clone shares state with the original")
	}
}

func TestOpHelpers(t *testing.T) {
	flips := map[Op]Op{OpEq: OpEq, OpNeq: OpNeq, OpLt: OpGt, OpLeq: OpGeq, OpGt: OpLt, OpGeq: OpLeq}
	for op, want := range flips {
		if op.Flip() != want {
			t.Errorf("%s.Flip() = %s, want %s", op, op.Flip(), want)
		}
		if op.Negate().Negate() != op {
			t.Errorf("%s double negation", op)
		}
	}
	if OpLt.Negate() != OpGeq || OpEq.Negate() != OpNeq {
		t.Error("Negate wrong")
	}
}

func TestViewDefNamesAndRegistry(t *testing.T) {
	def := build(t, "SELECT Plan_Id, Month, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Month, Year")
	v, err := NewViewDef("V1", def)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Plan_Id", "Month", "Year", "sum_Charge"}
	for i, w := range want {
		if v.OutCols[i] != w {
			t.Errorf("OutCols[%d] = %q, want %q", i, v.OutCols[i], w)
		}
	}

	reg := NewRegistry()
	if err := reg.Add(v); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v); err == nil {
		t.Error("duplicate view should fail")
	}
	name, cols, ok := reg.Resolve("v1")
	if !ok || name != "V1" || len(cols) != 4 {
		t.Errorf("registry Resolve: %q %v %v", name, cols, ok)
	}
	if n := testing.AllocsPerRun(100, func() { reg.Get("v1") }); n != 0 {
		t.Errorf("a lookup under another spelling allocates %v times", n)
	}
	if len(reg.All()) != 1 {
		t.Error("All()")
	}

	// Querying over the view through a MultiSource.
	src := MultiSource{paperTables(), reg}
	sel, err := sqlparser.Parse("SELECT Plan_Id, SUM(sum_Charge) FROM V1 WHERE Year = 1995 GROUP BY Plan_Id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(sel, src); err != nil {
		t.Fatalf("query over view: %v", err)
	}
}

func TestViewDefDuplicateOutputNames(t *testing.T) {
	def := build(t, "SELECT A, A, SUM(B), SUM(B) FROM R1 GROUP BY A")
	v, err := NewViewDef("W", def)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range v.OutCols {
		if seen[strings.ToLower(c)] {
			t.Errorf("duplicate output column %q", c)
		}
		seen[strings.ToLower(c)] = true
	}
}

func TestViewDefErrors(t *testing.T) {
	def := build(t, "SELECT A FROM R1")
	if _, err := NewViewDef("", def); err == nil {
		t.Error("empty view name should fail")
	}
	empty := &Query{}
	if _, err := NewViewDef("V", empty); err == nil {
		t.Error("empty select should fail")
	}
}

func TestWalkAndMapExprCols(t *testing.T) {
	q := build(t, "SELECT A, SUM(B) FROM R1 GROUP BY A")
	sum := q.Select[1].Expr
	var got []ColID
	WalkExprCols(sum, func(c ColID) { got = append(got, c) })
	if len(got) != 1 || q.Col(got[0]).Attr != "B" {
		t.Errorf("WalkExprCols: %v", got)
	}
	mapped := MapExprCols(sum, func(c ColID) ColID { return c + 100 })
	var got2 []ColID
	WalkExprCols(mapped, func(c ColID) { got2 = append(got2, c) })
	if got2[0] != got[0]+100 {
		t.Error("MapExprCols did not remap")
	}
	// Original must be untouched.
	var got3 []ColID
	WalkExprCols(sum, func(c ColID) { got3 = append(got3, c) })
	if got3[0] != got[0] {
		t.Error("MapExprCols mutated its input")
	}
}

func TestMapPredCols(t *testing.T) {
	p := Pred{Op: OpLt, L: ColTerm(1), R: ConstTerm(value.Int(5))}
	out := MapPredCols(p, func(c ColID) ColID { return c * 10 })
	if out.L.Col != 10 || !out.R.IsConst {
		t.Errorf("MapPredCols: %+v", out)
	}
}

func TestPredAndExprRendering(t *testing.T) {
	q := build(t, "SELECT A, SUM(B) FROM R1 WHERE C = 6 GROUP BY A HAVING SUM(B) > 2")
	if got := q.PredSQL(q.Where[0]); got != "C = 6" {
		t.Errorf("PredSQL: %q", got)
	}
	if got := q.ExprSQLByName(q.Having[0].L); got != "SUM(B)" {
		t.Errorf("ExprSQLByName: %q", got)
	}
}

func TestBuildMultiDerivedTable(t *testing.T) {
	sel, err := sqlparser.Parse("SELECT A, SUM(B) FROM (SELECT A, B FROM R1 WHERE C = 1) x GROUP BY A")
	if err != nil {
		t.Fatal(err)
	}
	q, anon, err := BuildMulti(sel, paperTables())
	if err != nil {
		t.Fatal(err)
	}
	if len(anon.All()) != 1 {
		t.Fatalf("want 1 anonymous view, got %d", len(anon.All()))
	}
	if q.Tables[0].Source != anon.All()[0].Name {
		t.Errorf("query should range over the anonymous view: %s", q.SQL())
	}
	inner := anon.All()[0].Def
	if len(inner.Where) != 1 || inner.Tables[0].Source != "R1" {
		t.Errorf("inner block wrong: %s", inner.SQL())
	}
}

func TestBuildRejectsDerivedTables(t *testing.T) {
	sel, err := sqlparser.Parse("SELECT A FROM (SELECT A FROM R1) x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(sel, paperTables()); err == nil {
		t.Fatal("Build should reject derived tables")
	}
}

func TestBuildMultiNestedCounterIncrements(t *testing.T) {
	sel, err := sqlparser.Parse("SELECT x.A, y.A FROM (SELECT A FROM R1) x, (SELECT A FROM R1) y WHERE x.A = y.A")
	if err != nil {
		t.Fatal(err)
	}
	q, anon, err := BuildMulti(sel, paperTables())
	if err != nil {
		t.Fatal(err)
	}
	if len(anon.All()) != 2 {
		t.Fatalf("want 2 anonymous views, got %d", len(anon.All()))
	}
	if q.Tables[0].Source == q.Tables[1].Source {
		t.Error("distinct subqueries need distinct names")
	}
}

func TestAccessorHelpers(t *testing.T) {
	q := build(t, "SELECT A, SUM(B), COUNT(C) FROM R1 WHERE D = 1 GROUP BY A")
	if q.NumCols() != 4 {
		t.Errorf("NumCols: %d", q.NumCols())
	}
	if MustBuild("SELECT A FROM R1", paperTables()) == nil {
		t.Error("MustBuild")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on bad SQL")
		}
	}()
	MustBuild("SELECT nope FROM", paperTables())
}

func TestEnumStrings(t *testing.T) {
	if AggMin.String() != "MIN" || AggAvg.String() != "AVG" || AggFunc(99).String() == "" {
		t.Error("AggFunc.String")
	}
	if ArithAdd.String() != "+" || ArithDiv.String() != "/" || ArithOp(99).String() == "" {
		t.Error("ArithOp.String")
	}
	if Op(99).String() == "" {
		t.Error("Op.String")
	}
}

func TestRenderComplexExpressions(t *testing.T) {
	// Scaled aggregates and AVG reconstructions render parseably.
	q := build(t, "SELECT A, SUM(B) FROM R1 GROUP BY A")
	cnt := q.Tables[0].Cols[2]
	arg := q.Tables[0].Cols[1]
	q.Select[1] = SelectItem{Expr: &Arith{
		Op: ArithDiv,
		L:  &Agg{Func: AggSum, Arg: &Arith{Op: ArithMul, L: &ColRef{Col: arg}, R: &ColRef{Col: cnt}}},
		R:  &Agg{Func: AggSum, Arg: &ColRef{Col: cnt}},
	}}
	s := q.SQL()
	if !strings.Contains(s, "SUM(B * C) / (SUM(C))") && !strings.Contains(s, "SUM(B * C) / SUM(C)") {
		t.Errorf("scaled render: %s", s)
	}
	// Query String() is the SQL.
	if q.String() != q.SQL() {
		t.Error("String should render SQL")
	}
	// ViewDef SQL includes output columns.
	v, err := NewViewDef("W", q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.SQL(), "CREATE VIEW W(") {
		t.Errorf("view SQL: %s", v.SQL())
	}
}

func TestDeriveColNameShapes(t *testing.T) {
	q := build(t, "SELECT A FROM R1")
	q.Select = append(q.Select,
		SelectItem{Expr: &Const{Val: value.Int(5)}},
		SelectItem{Expr: &Arith{Op: ArithAdd, L: &ColRef{Col: 0}, R: &Const{Val: value.Int(1)}}},
		SelectItem{Expr: &Agg{Func: AggSum, Arg: &Arith{Op: ArithMul, L: &ColRef{Col: 1}, R: &ColRef{Col: 2}}}},
	)
	names := OutputNames(q)
	if len(names) != 4 {
		t.Fatalf("OutputNames: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Errorf("bad derived name %q in %v", n, names)
		}
		seen[n] = true
	}
}

// TestBuildRowChange pins the lowering of a DELETE's or UPDATE's row
// expressions: names resolve against the one table (case-insensitively,
// bare or qualified by it) to its column positions, conjuncts comparing
// columns and constants land in Where and the others in Rest, each in
// WHERE order, and what no row expression can hold is an error before any
// row is read.
func TestBuildRowChange(t *testing.T) {
	lower := func(text string) (*RowChange, error) {
		t.Helper()
		stmts, err := sqlparser.ParseScript(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		attrs := []string{"K", "F", "S"}
		if upd, ok := stmts[0].(*sqlparser.Update); ok {
			return BuildRowChange("T", attrs, upd.Where, upd.Set)
		}
		return BuildRowChange("T", attrs, stmts[0].(*sqlparser.Delete).Where, nil)
	}
	rc, err := lower("UPDATE T SET s = 'x', F = F * 2 + t.k WHERE K + 1 > F AND 3 < k AND S = T.S AND F / K = 2 AND F BETWEEN 1 AND 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Where) != 4 || len(rc.Rest) != 2 {
		t.Fatalf("%d column-op-term conjuncts and %d others, want 4 and 2", len(rc.Where), len(rc.Rest))
	}
	if p := rc.Where[0]; !p.L.IsConst || p.R.IsConst || p.R.Col != 0 || p.Op != OpLt {
		t.Errorf("3 < k lowered to %+v", p)
	}
	if p := rc.Where[1]; p.L.Col != 2 || p.R.Col != 2 {
		t.Errorf("S = T.S lowered to %+v", p)
	}
	if h := rc.Rest[1]; h.Op != OpEq || h.L.(*Arith).Op != ArithDiv {
		t.Errorf("F / K = 2 lowered to %+v", h)
	}
	if len(rc.Set) != 2 || rc.SetCols[0] != 2 || rc.SetCols[1] != 1 {
		t.Errorf("assigned columns %v, want [2 1]", rc.SetCols)
	}
	if rc, err := lower("DELETE FROM T"); err != nil || len(rc.Where)+len(rc.Rest)+len(rc.Set) != 0 {
		t.Errorf("unconditional DELETE lowered to %+v, %v", rc, err)
	}
	for _, text := range []string{
		"DELETE FROM T WHERE Z = 1", "DELETE FROM T WHERE K + Z > 1", "DELETE FROM T WHERE U.K = 1",
		"DELETE FROM T WHERE SUM(K) > 1", "DELETE FROM T WHERE K = COUNT(*) + 1",
		"UPDATE T SET Z = 1", "UPDATE T SET K = Z", "UPDATE T SET K = MAX(K)",
	} {
		if _, err := lower(text); err == nil {
			t.Errorf("%s: lowered without error", text)
		}
	}
}
