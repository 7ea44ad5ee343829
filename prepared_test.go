package aggview_test

import (
	"context"
	"testing"

	"aggview"
	"aggview/internal/engine"
)

func preparedFixture(t *testing.T) *aggview.System {
	ctx := context.Background()
	t.Helper()
	s := aggview.New()
	s.MustLoad(`
		CREATE TABLE Calls(cust, dur, toll);
		CREATE VIEW ByCust AS SELECT cust, SUM(dur), COUNT(dur) FROM Calls GROUP BY cust
	`)
	if err := s.InsertContext(ctx, "Calls",
		[]aggview.Value{aggview.Int(1), aggview.Int(10), aggview.Int(2)},
		[]aggview.Value{aggview.Int(1), aggview.Int(20), aggview.Int(3)},
		[]aggview.Value{aggview.Int(2), aggview.Int(5), aggview.Int(1)},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MaterializeContext(ctx, "ByCust"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPrepareExecMatchesQuery pins the extracted plan API the serving
// layer caches: a Prepared plan executes to exactly what the one-shot
// path answers, on both rewritten and direct shapes.
func TestPrepareExecMatchesQuery(t *testing.T) {
	s := preparedFixture(t)
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT cust, SUM(dur) FROM Calls GROUP BY cust", // rewritable over ByCust
		"SELECT cust, toll FROM Calls",                   // direct
	} {
		p, err := s.PrepareContext(ctx, sql)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", sql, err)
		}
		got, err := s.ExecPreparedOnContext(ctx, p, s.Store)
		if err != nil {
			t.Fatalf("ExecPrepared(%q): %v", sql, err)
		}
		want, err := s.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.ResultsEqualBag(want, got) {
			t.Fatalf("%s: prepared answer differs from direct\nwant %v\ngot %v", sql, want, got)
		}
	}
}

// TestPreparedReadsCurrentState pins execution-time reads: a plan
// prepared before an insert answers with the post-insert state, because
// Prepared captures the plan, not the data.
func TestPreparedReadsCurrentState(t *testing.T) {
	s := preparedFixture(t)
	ctx := context.Background()
	const sql = "SELECT cust, toll FROM Calls"
	p, err := s.PrepareContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.ExecPreparedOnContext(ctx, p, s.Store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertContext(context.Background(), "Calls", []aggview.Value{aggview.Int(3), aggview.Int(7), aggview.Int(9)}); err != nil {
		t.Fatal(err)
	}
	after, err := s.ExecPreparedOnContext(ctx, p, s.Store)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != before.Len()+1 {
		t.Fatalf("prepared plan answered stale data: before=%d after=%d", before.Len(), after.Len())
	}
}

// TestPlanKeyCanonical pins that PlanKey is invariant under the
// respellings the canonical renderer normalizes (FROM order), and
// distinguishes genuinely different queries.
func TestPlanKeyCanonical(t *testing.T) {
	s := aggview.New()
	s.MustLoad(`
		CREATE TABLE A(x, y);
		CREATE TABLE B(z, w)
	`)
	k1, err := s.PlanKey("SELECT x, z FROM A, B WHERE x = z")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.PlanKey("SELECT x, z FROM B, A WHERE x = z")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("FROM reordering changed the key:\n%s\n%s", k1, k2)
	}
	k3, err := s.PlanKey("SELECT x, z FROM A, B WHERE x = w")
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("different predicates share a key")
	}
}

// TestPreparedDeps pins the transitive dependency set the plan cache
// indexes on: a plan over a view depends on the view and its base
// table.
func TestPreparedDeps(t *testing.T) {
	s := preparedFixture(t)
	p, err := s.PrepareContext(context.Background(), "SELECT cust, SUM(dur) FROM Calls GROUP BY cust")
	if err != nil {
		t.Fatal(err)
	}
	deps := map[string]bool{}
	for _, d := range p.Deps {
		deps[d] = true
	}
	if !deps["calls"] {
		t.Fatalf("deps %v lack the base table", p.Deps)
	}
	if p.Rewritten() && !deps["bycust"] {
		t.Fatalf("rewritten plan deps %v lack the view", p.Deps)
	}
}
