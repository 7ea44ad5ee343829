package aggview

import (
	"context"
	"errors"
	"strings"
	"testing"

	"aggview/internal/datagen"
	"aggview/internal/engine"
)

func telcoSystem(t *testing.T, calls int) *System {
	t.Helper()
	s := New()
	if err := datagen.Telco(datagen.TelcoConfig{Calls: calls, Seed: 7}).Load(t.Context(), s); err != nil {
		t.Fatal(err)
	}
	s.MustDefineView("V1", `SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
		GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`)
	return s
}

// mustQuery runs sql directly (no rewriting), failing the test on error.
func mustQuery(t testing.TB, s *System, sql string) *Result {
	t.Helper()
	r, err := s.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

const facadeQ = `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
	FROM Calls, Calling_Plans
	WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
	GROUP BY Calling_Plans.Plan_Id, Plan_Name
	HAVING SUM(Charge) < 1000000`

func TestSystemEndToEnd(t *testing.T) {
	ctx := context.Background()
	s := telcoSystem(t, 5000)
	if _, err := s.TrackViewContext(ctx, "V1"); err != nil {
		t.Fatal(err)
	}

	direct := mustQuery(t, s, facadeQ)
	res, used, err := s.QueryBestContext(ctx, facadeQ)
	if err != nil {
		t.Fatal(err)
	}
	if used == nil {
		t.Fatal("QueryBest should pick the view-based plan")
	}
	if used.Used[0] != "V1" {
		t.Errorf("wrong view: %v", used.Used)
	}
	if !engine.ResultsEqualBag(direct, res) {
		t.Fatalf("rewritten result differs:\n%s\nvs\n%s", direct.Sorted(), res.Sorted())
	}
}

func TestQueryBestFallsBackToDirect(t *testing.T) {
	s := telcoSystem(t, 200)
	// No view covers this query.
	res, used, err := s.QueryBestContext(context.Background(), "SELECT Cust_Id, COUNT(Call_Id) FROM Calls GROUP BY Cust_Id")
	if err != nil {
		t.Fatal(err)
	}
	if used != nil {
		t.Error("no rewriting should be used")
	}
	if res.Len() == 0 {
		t.Error("direct execution returned nothing")
	}
}

func TestUnmaterializedViewStillWorks(t *testing.T) {
	s := telcoSystem(t, 300)
	// V1 is defined but not materialized; the plan may still pick it (it
	// estimates the definition), and execution expands the definition.
	res, _, err := s.QueryBestContext(context.Background(), facadeQ)
	if err != nil {
		t.Fatal(err)
	}
	direct := mustQuery(t, s, facadeQ)
	if !engine.ResultsEqualBag(direct, res) {
		t.Fatal("on-the-fly view expansion differs from direct evaluation")
	}
}

func TestLoadScript(t *testing.T) {
	s := New()
	err := s.Load(`
		CREATE TABLE T(A, B) KEY(A) FD(B -> A);
		CREATE VIEW V AS SELECT A, SUM(B) FROM T GROUP BY A;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Catalog.Table("T"); !ok {
		t.Error("table not registered")
	}
	if _, ok := s.Views.Get("V"); !ok {
		t.Error("view not registered")
	}
	if err := s.Load("SELECT A FROM T"); err == nil {
		t.Error("bare SELECT in a script should be rejected")
	}
	if err := s.Load("CREATE VIEW W AS SELECT Z FROM T"); err == nil {
		t.Error("bad view definition should be rejected")
	}
	if err := s.Load("CREATE TABLE T(A)"); err == nil {
		t.Error("duplicate table should be rejected")
	}
	if err := s.Load("CREATE +"); err == nil {
		t.Error("parse error should surface")
	}
}

func TestInsertAndQuery(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad("CREATE TABLE T(A, B)")
	if err := s.InsertContext(ctx, "T", []Value{Int(1), Str("x")}, []Value{Int(1), Str("y")}); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertContext(ctx, "T", []Value{Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := s.InsertContext(ctx, "Nope", []Value{Int(1)}); err == nil {
		t.Error("unknown table should fail")
	}
	r := mustQuery(t, s, "SELECT A, COUNT(B) FROM T GROUP BY A")
	if r.Len() != 1 || r.Tuples[0][1].AsInt() != 2 {
		t.Fatalf("unexpected result:\n%s", r)
	}
}

// TestInsertValidation pins the checks every row passes on its one way
// into a table (maintain's tableDelta): a row of the wrong arity, an
// unknown table and a value of a foreign kind are each refused with the
// table's version and rows untouched, and a good row is installed.
func TestInsertValidation(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad("CREATE TABLE T(A, B)")
	if err := s.InsertContext(ctx, "T", []Value{Int(1), Int(2)}); err != nil {
		t.Fatal(err)
	}
	ver := s.DB.Version("T")
	err := s.InsertContext(ctx, "T", []Value{Int(3), Int(4)}, []Value{Int(5)})
	if err == nil || !strings.Contains(err.Error(), "T expects 2 values, got 1") {
		t.Errorf("arity mismatch: got %v", err)
	}
	if err := s.InsertContext(ctx, "Nope", []Value{Int(1), Int(2)}); err == nil {
		t.Error("unknown table should fail")
	}
	var kind *engine.KindError
	if err := s.InsertContext(ctx, "T", []Value{Int(3), Int(4)}, []Value{Str("x"), Int(5)}); !errors.As(err, &kind) {
		t.Errorf("foreign kind: want *engine.KindError, got %v", err)
	}
	if s.DB.Version("T") != ver || mustQuery(t, s, "SELECT A FROM T").Len() != 1 {
		t.Fatal("a refused insert changed T")
	}
	if err := s.InsertContext(ctx, "T", []Value{Int(3), Int(4)}); err != nil {
		t.Fatal(err)
	}
	if mustQuery(t, s, "SELECT A FROM T").Len() != 2 {
		t.Error("row not installed")
	}
}

func TestTrackViewErrors(t *testing.T) {
	s := New()
	if _, err := s.TrackViewContext(context.Background(), "V"); err == nil {
		t.Error("unknown view should fail")
	}
}

func TestExplain(t *testing.T) {
	ctx := context.Background()
	s := telcoSystem(t, 500)
	if _, err := s.TrackViewContext(ctx, "V1"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Explain(ctx, facadeQ)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"rewriting 1", "using V1", "Conds'"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
	out2, err := s.Explain(ctx, "SELECT Cust_Id FROM Calls")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "no view-based rewritings") {
		t.Errorf("Explain should report absence: %s", out2)
	}
	if _, err := s.Explain(ctx, "SELECT nope FROM Calls"); err == nil {
		t.Error("bad query should fail")
	}
}

// TestExplainShowsSelectProject: over a VCust-shaped catalog, Explain
// names the select-project a group-preserving rewriting executes as —
// aggregates unfolded, HAVING moved into WHERE — and prints nothing of
// the kind under a rewriting whose groups coalesce view rows.
func TestExplainShowsSelectProject(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad(`
		CREATE TABLE Calls(Call_Id, Cust_Id, Year, Charge) KEY(Call_Id);
		CREATE VIEW VCust AS SELECT Cust_Id, SUM(Charge), COUNT(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id;
	`)
	for _, c := range []struct{ sql, want string }{
		{`SELECT Cust_Id, SUM(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`,
			"\n  executes as: SELECT Cust_Id, sum_Charge, max_Charge FROM VCust\n"},
		{`SELECT Cust_Id, AVG(Charge), COUNT(Charge) FROM Calls GROUP BY Cust_Id HAVING SUM(Charge) > 10`,
			"\n  executes as: SELECT Cust_Id, sum_Charge / count_Charge, count_Charge FROM VCust WHERE sum_Charge > 10\n"},
		{`SELECT SUM(Charge) FROM Calls`, ""},
	} {
		out, err := s.Explain(ctx, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "using VCust") || c.want != "" && !strings.Contains(out, c.want) || c.want == "" && strings.Contains(out, "executes as:") {
			t.Errorf("Explain(%s): want %q:\n%s", c.sql, c.want, out)
		}
	}
}

func TestRewritingsAPI(t *testing.T) {
	ctx := context.Background()
	s := telcoSystem(t, 100)
	rws, err := s.RewritingsContext(ctx, facadeQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) == 0 {
		t.Fatal("expected rewritings")
	}
	r, err := s.ExecRewritingContext(ctx, rws[0])
	if err != nil {
		t.Fatal(err)
	}
	direct := mustQuery(t, s, facadeQ)
	if !engine.ResultsEqualBag(direct, r) {
		t.Error("ExecRewriting differs from direct execution")
	}
}

func TestValueConstructors(t *testing.T) {
	if Int(3).AsInt() != 3 || Float(2.5).AsFloat() != 2.5 ||
		Str("a").AsString() != "a" || !Bool(true).AsBool() {
		t.Error("value constructors broken")
	}
}
