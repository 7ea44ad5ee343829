package oracle

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/core"
	"aggview/internal/ir"
	"aggview/internal/value"
)

// propertySeed fixes the suite's instance stream: failures print both
// the per-case seed and the shrunk script, so either replays the bug.
const propertySeed = 20260806

// TestOracleProperty is the bounded-budget property suite: every
// rewriting of every generated instance must be multiset-equivalent to
// the direct answer at every worker count. On failure it shrinks the
// case and prints a replayable SQL script.
func TestOracleProperty(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 120
	}
	runPropertySuite(t, trials, Options{})
}

// TestOraclePropertyPaperFaithful repeats a smaller sweep under the
// paper-faithful rewriter configuration (Va constructions, no
// arithmetic inside aggregates).
func TestOraclePropertyPaperFaithful(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 50
	}
	runPropertySuite(t, trials, Options{PaperFaithful: true})
}

func runPropertySuite(t *testing.T, trials int, opt Options) {
	ctx := context.Background()
	t.Helper()
	rng := rand.New(rand.NewSource(propertySeed))
	rewritings := 0
	for trial := 0; trial < trials; trial++ {
		c := Generate(rng, GenOptions{})
		out, err := CheckContext(ctx, c, opt)
		if err != nil {
			t.Fatalf("trial %d: generated case rejected (generator bug):\n%s\nerror: %v", trial, c.Script(), err)
		}
		rewritings += out.Rewritings
		if !out.OK() {
			min := ShrinkContext(ctx, c, opt)
			t.Fatalf("trial %d: equivalence violation\n%s\nminimal repro script:\n%s",
				trial, out.Violations[0].String(), min.Script())
		}
	}
	// The suite is only meaningful if the generator regularly produces
	// instances the rewriter can act on.
	if rewritings < trials/5 {
		t.Fatalf("only %d rewritings over %d trials: generator bias lost its teeth", rewritings, trials)
	}
	t.Logf("oracle: %d rewritings verified over %d instances", rewritings, trials)
}

// tamperDropResidual deletes the last WHERE predicate of the rewritten
// query — undoing part of step S3 (the residual conditions kept after
// view incorporation).
func tamperDropResidual(r *core.Rewriting) {
	if len(r.Query.Where) > 0 {
		r.Query = cloneQuery(r.Query)
		r.Query.Where = r.Query.Where[:len(r.Query.Where)-1]
	}
}

// tamperSwapAgg replaces the first SUM or COUNT in the rewritten select
// list with MAX — breaking the step-S4 aggregate reconstruction.
func tamperSwapAgg(r *core.Rewriting) {
	q := cloneQuery(r.Query)
	for i, it := range q.Select {
		if a, ok := it.Expr.(*ir.Agg); ok && (a.Func == ir.AggSum || a.Func == ir.AggCount) {
			q.Select[i].Expr = &ir.Agg{Func: ir.AggMax, Arg: a.Arg, Star: a.Star}
			r.Query = q
			return
		}
	}
}

func cloneQuery(q *ir.Query) *ir.Query { return q.Clone() }

// generators are the two case generators the tests sweep: one query
// step, and scenarios of mutations and queries.
var generators = []struct {
	name string
	gen  func(*rand.Rand, GenOptions) *Case
}{
	{"generate", Generate},
	{"mutation", GenerateMutation},
}

// TestOracleCatchesInjectedFaults deliberately breaks a rewrite step on
// every emitted rewriting and asserts, for cases of both generators,
// that the checker flags it, the shrinker produces a smaller case that
// still fails, and the shrunk script replays to a failing case. This is
// the end-to-end proof the oracle has teeth.
func TestOracleCatchesInjectedFaults(t *testing.T) {
	ctx := context.Background()
	faults := []struct {
		name   string
		tamper func(*core.Rewriting)
	}{
		{"drop-residual-S3", tamperDropResidual},
		{"swap-aggregate-S4", tamperSwapAgg},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			opt := Options{Tamper: fault.tamper, Readers: -1}
			for _, g := range generators {
				rng := rand.New(rand.NewSource(propertySeed + 1))
				caught := false
				for trial := 0; trial < 400 && !caught; trial++ {
					c := g.gen(rng, GenOptions{})
					out, err := CheckContext(ctx, c, opt)
					if err != nil || out.OK() {
						continue // fault not triggered by this case
					}
					caught = true
					min := ShrinkContext(ctx, c, opt)
					if size(min) > size(c) {
						t.Fatalf("%s: shrinking grew the case: %d -> %d", g.name, size(c), size(min))
					}
					script := min.Script()
					replayed, err := Replay(script)
					if err != nil {
						t.Fatalf("%s: shrunk script does not replay:\n%s\nerror: %v", g.name, script, err)
					}
					rout, err := CheckContext(ctx, replayed, opt)
					if err != nil {
						t.Fatalf("%s: replayed case rejected:\n%s\nerror: %v", g.name, script, err)
					}
					if rout.OK() {
						t.Fatalf("%s: replayed case no longer fails:\n%s", g.name, script)
					}
					t.Logf("fault %s caught in a %s case at trial %d; shrunk script:\n%s", fault.name, g.name, trial, script)
				}
				if !caught {
					t.Fatalf("fault %s never caught in 400 %s cases: oracle is blind to it", fault.name, g.name)
				}
			}
		})
	}
}

// size measures a case for shrink-monotonicity assertions.
func size(c *Case) int {
	n := len(c.Views) + len(c.Steps)
	for _, st := range c.Steps {
		n += len(st.Rows)
		if q := st.Query; q != nil {
			n += len(q.Select) + len(q.Where) + len(q.Having)
		}
	}
	for _, t := range c.Tables {
		n += 1 + len(t.Rows)
	}
	return n
}

// roundTripScript is one script of a Script → Replay → Script table.
// A hand-written script must also replay into the given number of
// setup rows (over all tables) and steps, and pass the checker.
type roundTripScript struct {
	sql         string
	rows, steps int
	handWritten bool
}

// generatedScripts renders 200 cases of a generator from a fixed seed.
func generatedScripts(gen func(*rand.Rand, GenOptions) *Case) []roundTripScript {
	rng := rand.New(rand.NewSource(7))
	var out []roundTripScript
	for trial := 0; trial < 200; trial++ {
		out = append(out, roundTripScript{sql: gen(rng, GenOptions{}).Script()})
	}
	return out
}

// checkRoundTrips asserts Script → Replay → Script is the identity on
// every script of the table, one subtest per name.
func checkRoundTrips(t *testing.T, scripts map[string][]roundTripScript) {
	t.Helper()
	for name, list := range scripts {
		t.Run(name, func(t *testing.T) {
			for i, sc := range list {
				back, err := Replay(sc.sql)
				if err != nil {
					t.Fatalf("script %d does not replay:\n%s\nerror: %v", i, sc.sql, err)
				}
				if got := back.Script(); got != sc.sql {
					t.Fatalf("script %d: round trip not stable:\n--- first\n%s\n--- second\n%s", i, sc.sql, got)
				}
				if !sc.handWritten {
					continue
				}
				rows := 0
				for _, tb := range back.Tables {
					rows += len(tb.Rows)
				}
				if rows != sc.rows || len(back.Steps) != sc.steps {
					t.Fatalf("replayed into %d setup rows and %d steps, want %d and %d", rows, len(back.Steps), sc.rows, sc.steps)
				}
				if out, err := CheckContext(context.Background(), back, Options{}); err != nil || !out.OK() {
					t.Fatalf("hand script fails the checker: %v %+v", err, out)
				}
			}
		})
	}
}

// TestScriptRoundTrip checks Script → Replay → Script is the identity
// over the query generator's output and three hand scripts: a case
// with no view; a slow-query repro as a server's /script renders its
// state (tables with contents, views with their column lists) plus the
// SELECT; and the one shape Script renders ambiguously — no view, and
// an INSERT into the last table right behind its CREATE TABLE, which
// replays as that table's contents, never as a step (ShrinkContext
// therefore checks candidates as they replay).
// TestMutationScriptRoundTrip covers the mutation generator.
func TestScriptRoundTrip(t *testing.T) {
	checkRoundTrips(t, map[string][]roundTripScript{
		"generate": generatedScripts(Generate),
		"no-view": {{sql: "CREATE TABLE T(A, B) KEY(A);\n" +
			"INSERT INTO T VALUES (1, 2), (2, 7);\n" +
			"INSERT INTO T VALUES (3, 4.5);\n" +
			"DELETE FROM T WHERE B = 2;\n" +
			"UPDATE T SET B = B + 1 WHERE A > 2;\n" +
			"SELECT A, B FROM T WHERE A < 3;\n", rows: 2, steps: 4, handWritten: true}},
		"slow-log": {{sql: "CREATE TABLE Sales(id, region, amount) KEY(id);\n" +
			"INSERT INTO Sales VALUES (1, 'n', 10), (2, 's', 3);\n" +
			"CREATE TABLE Empty(a);\n" +
			"CREATE VIEW ByRegion(region, sum_amount, count_amount) AS SELECT region, SUM(amount), COUNT(amount) FROM Sales WHERE amount > 1 GROUP BY region;\n" +
			"SELECT region, SUM(amount) FROM Sales WHERE amount > 1 GROUP BY region;\n", rows: 2, steps: 1, handWritten: true}},
		"insert-behind-last-table": {{sql: "CREATE TABLE T(A, B) KEY(A);\n" +
			"INSERT INTO T VALUES (1, 2), (2, 7);\n" +
			"CREATE TABLE U(C);\n" +
			"INSERT INTO U VALUES (5), (6);\n" +
			"SELECT C FROM U;\n", rows: 4, steps: 1, handWritten: true}},
	})
}

// A case whose script replays differently — an insert step into an
// empty table right behind its CREATE TABLE, replayed as that table's
// contents — is shrunk only as it replays. Here the step's insert makes
// the query's direct execution fail after a mutation (a violation);
// replayed, the rows are setup and the same failure rejects the case,
// so no candidate fails and the case comes back untouched rather than
// shrunk to a repro -replay cannot reproduce.
func TestShrinkChecksTheReplayedScript(t *testing.T) {
	ctx := context.Background()
	c := &Case{
		Tables: []*TableSpec{
			{Name: "T", Cols: []string{"A"}, Rows: [][]value.Value{{value.Int(1)}}},
			{Name: "U", Cols: []string{"C"}},
		},
		Steps: []Step{
			{Kind: StepInsert, Table: "U", Rows: [][]value.Value{{value.Int(0)}}},
			{Kind: StepQuery, Query: &QuerySpec{Select: []string{"1 / C"}, From: []string{"U"}}},
		},
	}
	out, err := CheckContext(ctx, c, Options{})
	if err != nil || len(out.Violations) != 1 || !strings.HasPrefix(out.Violations[0].Fault, directTag+":") {
		t.Fatalf("want one direct-execution violation, got %v %+v", err, out)
	}
	back, err := Replay(c.Script())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckContext(ctx, back, Options{}); err == nil {
		t.Fatalf("replayed case not rejected:\n%s", c.Script())
	}
	if got := ShrinkContext(ctx, c, Options{}); got != c {
		t.Fatalf("shrunk to a case -replay reads differently:\n%s", got.Script())
	}
}

// TestShrinkReducesRows pins the row-shrinking machinery on a synthetic
// always-failing predicate (a Tamper that clobbers results makes every
// rewriting-bearing case fail), asserting the minimized case is much
// smaller than the original.
func TestShrinkReducesRows(t *testing.T) {
	ctx := context.Background()
	opt := Options{Tamper: func(r *core.Rewriting) {
		q := r.Query.Clone()
		q.Where = append(q.Where, ir.Pred{
			Op: ir.OpEq,
			L:  ir.ConstTerm(value.Int(1)),
			R:  ir.ConstTerm(value.Int(2)),
		})
		r.Query = q
	}}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		c := Generate(rng, GenOptions{MaxRows: 40})
		out, err := CheckContext(ctx, c, opt)
		if err != nil || out.OK() {
			continue
		}
		// The tamper empties every rewriting, so any nonempty direct
		// answer fails; the minimal repro needs very few rows.
		min := ShrinkContext(ctx, c, opt)
		total := 0
		for _, tb := range min.Tables {
			total += len(tb.Rows)
		}
		if total > 4 {
			t.Fatalf("shrunk case still has %d rows:\n%s", total, min.Script())
		}
		if out, err := CheckContext(ctx, min, opt); err != nil || out.OK() {
			t.Fatalf("shrunk case no longer fails:\n%s", min.Script())
		}
		return
	}
	t.Skip("no instance triggered the synthetic fault (generator drift)")
}
