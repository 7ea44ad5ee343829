package aggview_test

// Determinism tests for the parallel kernels: RewritingsContext and ExecContext must
// produce byte-identical output at every worker count. The engine
// guarantees this by partition-ordered merges and by folding each group
// on a single worker; the rewriter by committing concurrently-analyzed
// candidates in serial BFS order (see DESIGN.md, "Parallel execution &
// search").

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/obs"
)

// workerCounts are the pool sizes compared against the serial run.
var workerCounts = []int{2, 3, 4, 8}

// detWorkload is one system plus the queries to check on it.
type detWorkload struct {
	name    string
	build   func() *aggview.System
	queries []string
}

func detWorkloads() []detWorkload {
	ctx := context.Background()
	return []detWorkload{
		{
			name: "telco",
			build: func() *aggview.System {
				s := aggview.New()
				if err := datagen.Telco(datagen.TelcoConfig{Calls: 20000, Seed: 1}).Load(ctx, s); err != nil {
					panic(err)
				}
				s.MustDefineView("V1", `
					SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge)
					FROM Calls, Calling_Plans
					WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
					GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`)
				if _, err := s.TrackViewContext(ctx, "V1"); err != nil {
					panic(err)
				}
				return s
			},
			queries: []string{
				`SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
				 FROM Calls, Calling_Plans
				 WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
				 GROUP BY Calling_Plans.Plan_Id, Plan_Name
				 HAVING SUM(Charge) < 1000000`,
				`SELECT Plan_Id, Month, AVG(Charge) FROM Calls GROUP BY Plan_Id, Month`,
				`SELECT Call_Id, Charge FROM Calls WHERE Year = 1995 AND Month = 6`,
			},
		},
		{
			name: "chronicle",
			build: func() *aggview.System {
				s := aggview.New()
				if err := datagen.Chronicle(datagen.ChronicleConfig{Accounts: 200, Txns: 30000, Seed: 9}).Load(ctx, s); err != nil {
					panic(err)
				}
				s.MustDefineView("DailyAcct",
					"SELECT Acct_Id, Day, SUM(Amount), COUNT(Amount) FROM Txns GROUP BY Acct_Id, Day")
				if _, err := s.TrackViewContext(ctx, "DailyAcct"); err != nil {
					panic(err)
				}
				return s
			},
			queries: []string{
				"SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id",
				"SELECT Acct_Id, AVG(Amount) FROM Txns GROUP BY Acct_Id",
				"SELECT Day, COUNT(Amount) FROM Txns GROUP BY Day",
			},
		},
		{
			name: "mobilecache",
			build: func() *aggview.System {
				s := aggview.New()
				s.MustLoad("CREATE TABLE Readings(Reading_Id, Sensor, Region, Hour, Temp) KEY(Reading_Id);")
				rng := rand.New(rand.NewSource(7))
				var rows [][]aggview.Value
				for i := 0; i < 20000; i++ {
					rows = append(rows, []aggview.Value{
						aggview.Int(int64(i)),
						aggview.Int(int64(rng.Intn(40))),
						aggview.Int(int64(rng.Intn(4))),
						aggview.Int(int64(rng.Intn(24))),
						aggview.Int(int64(-10 + rng.Intn(45))),
					})
				}
				if err := s.InsertContext(ctx, "Readings", rows...); err != nil {
					panic(err)
				}
				s.MustDefineView("HourlyBySensor",
					`SELECT Sensor, Region, Hour, SUM(Temp), COUNT(Temp), MIN(Temp), MAX(Temp)
					 FROM Readings GROUP BY Sensor, Region, Hour`)
				if _, err := s.TrackViewContext(ctx, "HourlyBySensor"); err != nil {
					panic(err)
				}
				return s
			},
			queries: []string{
				"SELECT Sensor, AVG(Temp) FROM Readings GROUP BY Sensor",
				"SELECT Region, MIN(Temp), MAX(Temp) FROM Readings WHERE Hour = 12 GROUP BY Region",
				"SELECT Sensor, Hour, COUNT(Temp) FROM Readings WHERE Region = 0 GROUP BY Sensor, Hour",
			},
		},
	}
}

// renderRewritings serializes an enumeration for byte comparison.
func renderRewritings(rws []*aggview.Rewriting) string {
	var b strings.Builder
	for i, r := range rws {
		fmt.Fprintf(&b, "#%d used=%v setonly=%v\n%s\n", i, r.Used, r.SetOnly, r.SQL())
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  note: %s\n", n)
		}
	}
	return b.String()
}

// renderRelation serializes a result relation, order included, for byte
// comparison (Relation.String truncates; this does not).
func renderRelation(r *aggview.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Attrs, "|"))
	b.WriteByte('\n')
	for _, t := range r.Tuples {
		for j, v := range t {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelDeterminism asserts that rewrite enumeration and query
// execution are byte-identical between the serial path and every worker
// count, across three example workloads.
func TestParallelDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, wl := range detWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			// Serial reference.
			ref := wl.build()
			ref.Opts.Workers = 1
			type refOut struct {
				rewritings string
				direct     string
				rewritten  []string
			}
			refs := make([]refOut, len(wl.queries))
			for i, sql := range wl.queries {
				rws, err := ref.RewritingsContext(ctx, sql)
				if err != nil {
					t.Fatalf("serial Rewritings(%q): %v", sql, err)
				}
				refs[i].rewritings = renderRewritings(rws)
				res, err := ref.QueryContext(ctx, sql)
				if err != nil {
					t.Fatalf("serial Query(%q): %v", sql, err)
				}
				refs[i].direct = renderRelation(res)
				for _, r := range rws {
					rr, err := ref.ExecRewritingContext(ctx, r)
					if err != nil {
						t.Fatalf("serial ExecRewriting(%q): %v", sql, err)
					}
					refs[i].rewritten = append(refs[i].rewritten, renderRelation(rr))
				}
			}

			for _, w := range workerCounts {
				s := wl.build()
				s.Opts.Workers = w
				for i, sql := range wl.queries {
					rws, err := s.RewritingsContext(ctx, sql)
					if err != nil {
						t.Fatalf("workers=%d Rewritings(%q): %v", w, sql, err)
					}
					if got := renderRewritings(rws); got != refs[i].rewritings {
						t.Errorf("workers=%d: Rewritings(%q) differ from serial\nserial:\n%s\nparallel:\n%s",
							w, sql, refs[i].rewritings, got)
					}
					res, err := s.QueryContext(ctx, sql)
					if err != nil {
						t.Fatalf("workers=%d Query(%q): %v", w, sql, err)
					}
					if got := renderRelation(res); got != refs[i].direct {
						t.Errorf("workers=%d: Query(%q) output differs from serial", w, sql)
					}
					for k, r := range rws {
						rr, err := s.ExecRewritingContext(ctx, r)
						if err != nil {
							t.Fatalf("workers=%d ExecRewriting(%q): %v", w, sql, err)
						}
						if got := renderRelation(rr); got != refs[i].rewritten[k] {
							t.Errorf("workers=%d: rewriting %d of %q executes differently from serial", w, k, sql)
						}
					}
				}
			}
		})
	}
}

// TestMetricsSnapshotDeterminism asserts that the deterministic slice
// of the engine-metrics snapshot — row counters and histograms, with
// volatile timings and pool activity excluded — is byte-identical
// between the serial path and a GOMAXPROCS-wide pool, across every
// workload. This is the observable half of the determinism contract:
// not only the rows, but the instrumented account of how they were
// produced, must not depend on scheduling.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, wl := range detWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			render := func(workers int) string {
				s := wl.build()
				s.Opts.Workers = workers
				s.Metrics = obs.NewMetrics()
				for _, sql := range wl.queries {
					rws, err := s.RewritingsContext(ctx, sql)
					if err != nil {
						t.Fatalf("workers=%d Rewritings(%q): %v", workers, sql, err)
					}
					if _, err := s.QueryContext(ctx, sql); err != nil {
						t.Fatalf("workers=%d Query(%q): %v", workers, sql, err)
					}
					for _, r := range rws {
						if _, err := s.ExecRewritingContext(ctx, r); err != nil {
							t.Fatalf("workers=%d ExecRewriting(%q): %v", workers, sql, err)
						}
					}
				}
				snap := s.Metrics.Snapshot()
				return snap.Deterministic()
			}
			serial := render(1)
			if serial == "" {
				t.Fatal("serial run recorded no deterministic metrics")
			}
			if pool := render(0); pool != serial {
				t.Errorf("metrics snapshot differs between workers=1 and workers=0 (GOMAXPROCS)\nserial:\n%s\npool:\n%s",
					serial, pool)
			}
		})
	}
}

// TestBestDeterministicTieBreak asserts the plan choice is stable when
// several rewritings tie on cost: the first of them in the search's
// serial enumeration order must come out regardless of worker count.
func TestBestDeterministicTieBreak(t *testing.T) {
	ctx := context.Background()
	build := func(w int) *aggview.Rewriting {
		s := aggview.New()
		s.MustLoad(`CREATE TABLE R(A, B, C);`)
		// Two interchangeable single-table views with equal estimated cost.
		s.MustDefineView("VB", "SELECT A, B, C FROM R WHERE B = 1")
		s.MustDefineView("VA", "SELECT A, B, C FROM R WHERE B = 1")
		// A third of R's rows pass B = 1, so either view is cheaper than R.
		for i := 0; i < 30; i++ {
			if err := s.InsertContext(ctx, "R", []aggview.Value{aggview.Int(int64(i)), aggview.Int(int64(i % 3)), aggview.Int(int64(i % 5))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.TrackViewContext(ctx, "VA"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TrackViewContext(ctx, "VB"); err != nil {
			t.Fatal(err)
		}
		s.Opts.Workers = w
		p, err := s.PrepareContext(ctx, "SELECT A, C FROM R WHERE B = 1")
		if err != nil {
			t.Fatal(err)
		}
		return p.Rewriting()
	}
	ref := build(1)
	if ref == nil {
		t.Fatal("no rewriting found")
	}
	for _, w := range workerCounts {
		got := build(w)
		if got == nil {
			t.Fatalf("workers=%d: no rewriting", w)
		}
		if strings.Join(got.Used, ",") != strings.Join(ref.Used, ",") || got.Query.SQL() != ref.Query.SQL() {
			t.Errorf("workers=%d: Best picked %v %q, serial picked %v %q",
				w, got.Used, got.Query.SQL(), ref.Used, ref.Query.SQL())
		}
	}
}
