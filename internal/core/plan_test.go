package core_test

import (
	"context"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/datagen"
)

// The rewriter enumerates; the facade's PrepareContext picks the cheapest
// of the original query and its rewritings under the cost model. These
// tests pin that choice over the rewriter's fixtures.

// best returns the rewriting s's plan for sql executes, nil for direct
// evaluation.
func best(ctx context.Context, s *aggview.System, sql string) (*aggview.Rewriting, error) {
	p, err := s.PrepareContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return p.Rewriting(), nil
}

// r1System declares R1(A, B, C, D) and R2(E, F), fills R1 with n rows
// and R2 with one, and materializes the given views (name -> SQL).
func r1System(t *testing.T, n int, views map[string]string) *aggview.System {
	t.Helper()
	ctx := context.Background()
	s := aggview.New()
	s.MustLoad("CREATE TABLE R1(A, B, C, D); CREATE TABLE R2(E, F); INSERT INTO R2 VALUES (1, 2);")
	for i := 0; i < n; i++ {
		if err := s.InsertContext(ctx, "R1", []aggview.Value{aggview.Int(int64(i % 5)), aggview.Int(int64(i % 3)), aggview.Int(int64(i)), aggview.Int(5)}); err != nil {
			t.Fatal(err)
		}
	}
	for name, sql := range views {
		s.MustDefineView(name, sql)
		if _, err := s.TrackViewContext(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestBestNoRewritings: with no usable view the plan is direct
// evaluation — a nil rewriting and no error.
func TestBestNoRewritings(t *testing.T) {
	s := r1System(t, 20, map[string]string{"V": "SELECT E, F FROM R2"})
	rw, err := best(context.Background(), s, "SELECT A, SUM(B) FROM R1 GROUP BY A")
	if err != nil {
		t.Fatal(err)
	}
	if rw != nil {
		t.Fatalf("no view covers R1, yet the plan uses %v", rw.Used)
	}
}

// TestBestPicksCheapest pins the non-empty path: a materialized
// aggregate view smaller than its base table wins.
func TestBestPicksCheapest(t *testing.T) {
	s := r1System(t, 200, map[string]string{"V": "SELECT A, SUM(C), COUNT(C) FROM R1 GROUP BY A"})
	rw, err := best(context.Background(), s, "SELECT A, SUM(C) FROM R1 GROUP BY A")
	if err != nil {
		t.Fatal(err)
	}
	if rw == nil || len(rw.Used) == 0 || rw.Used[0] != "V" {
		t.Fatalf("expected the view-based plan, got %v", rw)
	}
}

// TestBestPrefersFewerBaseTables: on the paper's Example 1.1 the plan
// scans V1 alone instead of joining Calls with Calling_Plans, and a
// query V1 cannot answer runs directly.
func TestBestPrefersFewerBaseTables(t *testing.T) {
	ctx := context.Background()
	s := aggview.New()
	if err := datagen.Telco(datagen.TelcoConfig{Calls: 2000, Seed: 7}).Load(ctx, s); err != nil {
		t.Fatal(err)
	}
	s.MustDefineView("V1", `SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
		GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`)
	if _, err := s.TrackViewContext(ctx, "V1"); err != nil {
		t.Fatal(err)
	}
	rw, err := best(ctx, s, `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
		GROUP BY Calling_Plans.Plan_Id, Plan_Name
		HAVING SUM(Charge) < 1000000`)
	if err != nil {
		t.Fatal(err)
	}
	if rw == nil || len(rw.Query.Tables) != 1 || !strings.EqualFold(rw.Query.Tables[0].Source, "V1") {
		t.Fatalf("the plan should scan V1 alone, got %v", rw)
	}
	if rw, err := best(ctx, s, "SELECT Cust_Id FROM Calls"); err != nil || rw != nil {
		t.Fatalf("an uncovered query runs directly, got %v, %v", rw, err)
	}
}

// TestBestContextCanceled: a canceled ctx is a typed error, not a
// silent direct plan.
func TestBestContextCanceled(t *testing.T) {
	s := r1System(t, 20, map[string]string{"V1": "SELECT A, SUM(C), COUNT(C) FROM R1 GROUP BY A"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rw, err := best(ctx, s, "SELECT A, SUM(C) FROM R1 WHERE D = 5 GROUP BY A")
	if rw != nil || !budget.IsCanceled(err) {
		t.Fatalf("want nil rewriting with typed Canceled, got r=%v err=%v", rw, err)
	}
}
