// Package experiments regenerates the evaluation tables recorded in
// EXPERIMENTS.md. The paper is a theory paper — its evaluation consists
// of the motivating example (Ex. 1.1), the worked examples of Sections
// 3-5, and three theorems — so each experiment either measures the
// performance effect a claim promises (E1-E4, E6, E9) or machine-checks
// the claim itself (E5, E7, E8, E10).
//
// Cases is the one definition of the series: cmd/benchrunner prints the
// tables by iterating it, and the top-level testing.B benchmarks build
// their systems, queries and rewritings from the same entries.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"aggview"
	"aggview/internal/core"
	"aggview/internal/datagen"
	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/value"
)

// table is a small markdown table builder.
type table struct {
	cols []string
	rows [][]string
}

func newTable(cols ...string) *table { return &table{cols: cols} }

func (t *table) row(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch x := c.(type) {
		case string:
			out[i] = x
		case time.Duration:
			out[i] = fmtDur(x)
		case float64:
			out[i] = fmt.Sprintf("%.1f", x)
		default:
			out[i] = fmt.Sprint(x)
		}
	}
	t.rows = append(t.rows, out)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

func (t *table) flush(w io.Writer) {
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.cols, " | "))
	seps := make([]string, len(t.cols))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprintln(w)
}

// bestOf measures the minimum duration of n runs of f.
func bestOf(n int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		if e := time.Since(start); e < best {
			best = e
		}
	}
	return best
}

// Point is one scale point of a direct-versus-rewritten case: the base
// table's row count and, for E3, how many view subgroups coalesce into
// each query group.
type Point struct{ Rows, FanIn int }

func rows(ns ...int) []Point {
	ps := make([]Point, len(ns))
	for i, n := range ns {
		ps[i] = Point{Rows: n}
	}
	return ps
}

func fanIns(rows int) []Point {
	return []Point{{rows, 4}, {rows, 16}, {rows, 64}}
}

// Case is one experiment of the E-series.
type Case struct {
	ID, Title, Claim string

	// A direct-versus-rewritten case (E1-E4) sets these: Build loads the
	// base tables at a point and defines View, which Prepare materializes;
	// Query runs over the base tables and through the rewriting Pick
	// chooses, at each point of Full (Quick under -quick), and one table
	// row per point lists Cols. Bench is the point the testing.B
	// benchmarks run at. Fold, when set, is a second query over the same
	// system that only scans and folds (no join, many groups).
	Full, Quick []Point
	Bench       Point
	Build       func(context.Context, Point) *aggview.System
	View        string
	Query, Fold string
	Pick        func([]*aggview.Rewriting) *aggview.Rewriting
	Cols        []string

	// run prints the tables of every other case, and on E4 the verdict
	// table that precedes the measured one.
	run func(ctx context.Context, w io.Writer, quick bool)
}

// Cases lists the E-series in EXPERIMENTS.md order.
var Cases = []*Case{
	{ID: "E1", Title: "Motivating example (Ex. 1.1)",
		Claim: "evaluating Q' over V1 is orders of magnitude faster than Q over Calls, and the gap grows with |Calls|",
		Full:  rows(10000, 30000, 100000, 300000), Quick: rows(2000, 10000), Bench: Point{Rows: 100000},
		Build: telcoSystem, View: "V1", Pick: first,
		Query: `
	SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
	FROM Calls, Calling_Plans
	WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
	GROUP BY Calling_Plans.Plan_Id, Plan_Name
	HAVING SUM(Charge) < 1000000`,
		Fold: "SELECT Plan_Id, Month, AVG(Charge) FROM Calls GROUP BY Plan_Id, Month",
		Cols: []string{"|Calls|", "|V1|", "direct", "rewritten", "speedup"}},
	{ID: "E2", Title: "Conjunctive views (Thm 3.1, Ex. 3.1)",
		Claim: "rewritings over a selective materialized join view are multiset-equivalent and faster",
		Full:  rows(10000, 50000, 200000), Quick: rows(2000, 10000), Bench: Point{Rows: 50000},
		Build: conjSystem, View: "V31", Pick: viewOnly,
		Query: "SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = 6 AND D = 6 GROUP BY A",
		Cols:  []string{"|R1|", "|V|", "direct", "rewritten", "speedup", "equal"}},
	{ID: "E3", Title: "Coalescing subgroups (Ex. 4.1)",
		Claim: "a finer-grouped COUNT view answers a coarser COUNT query by summing subgroup counts; the win is the base-to-view compression ratio",
		Full:  fanIns(200000), Quick: fanIns(20000), Bench: Point{Rows: 100000, FanIn: 16},
		Build: coalesceSystem, View: "Vc", Pick: first,
		Query: "SELECT A, COUNT(B) FROM R1 GROUP BY A",
		Cols:  []string{"|R1|", "subgroups/group", "|view|", "direct", "rewritten", "speedup", "equal"}},
	{ID: "E4", Title: "Multiplicity recovery (Ex. 4.2)",
		Claim: "a COUNT column in the view recovers multiplicities lost to grouping; the paper's literal Q' is incorrect on coalescing groups (see DESIGN.md)",
		Full:  rows(100000), Quick: rows(20000), Bench: Point{Rows: 50000},
		Build: multSystem, View: "V2", Pick: first,
		Query: "SELECT A, SUM(E) FROM R1, R2 GROUP BY A",
		Cols:  []string{"|R1|", "direct", "rewritten", "speedup", "equal"},
		run:   counterexampleVerdicts},
	{ID: "E5", Title: "Iterative multi-view rewriting (Thm 3.2)",
		Claim: "iterating single-view rewriting is sound, Church-Rosser, and complete: k independently usable views yield 2^k - 1 rewritings in any order",
		run:   multiView},
	{ID: "E6", Title: "Rewriting search cost (Sec. 6)",
		Claim: "usability checking is cheap enough for an optimizer: microseconds to low milliseconds per query even with dozens of candidate views",
		run:   searchCost},
	{ID: "E7", Title: "Sets and keys (Sec. 5, Ex. 5.1)",
		Claim: "with key metadata, many-to-1 mappings admit rewritings that multiset semantics forbids; without it the view is unusable",
		run:   keysCases},
	{ID: "E8", Title: "Negative results (Sec. 4.2, 4.4, 4.5)",
		Claim: "each construction below is unusable, and the rewriter must refuse it",
		run:   negative},
	{ID: "E9", Title: "Closure computation (Sec. 3, footnote 2)",
		Claim: "closing a conjunction of =, <>, <, <=, >, >= atoms and answering entailment stays in the microsecond range at optimizer-relevant sizes",
		run:   closure},
	{ID: "E10", Title: "HAVING pre-processing (Sec. 3.3)",
		Claim: "predicate move-around from HAVING to WHERE detects usability that the bare conditions miss",
		run:   having},
	{ID: "E11", Title: "Summary-table maintenance (extension; Sec. 1 scenarios)",
		Claim: "append-only SUM/COUNT/MIN/MAX summaries maintain in time proportional to the delta, not the base table — the property that makes the paper's cached summary tables practical",
		run:   maintenance},
	{ID: "E12", Title: "View selection (extension; Sec. 7 future work)",
		Claim: "greedily chosen summary views under a space budget cut the measured workload time, and the modeled benefit points the same way",
		run:   advisor},
	{ID: "E13", Title: "Baseline comparison (Sec. 6 vs [GHQ95]-style matching)",
		Claim: "the closure-based conditions detect usability that syntactic Sel/Groups comparison misses — including the motivating Example 1.1",
		run:   baselineCorpus},
}

// Lookup resolves an experiment id ("E4", "e13") to its case.
func Lookup(id string) (*Case, error) {
	for _, c := range Cases {
		if strings.EqualFold(c.ID, id) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want E1..E13)", id)
}

// Run prints the case's heading and tables under ctx: cancellation or
// deadline expiry propagates into every engine execution and rewrite
// search, so a driver can bound the whole suite without killing the
// process. quick shrinks scales so the suite finishes in seconds (used
// by tests); the full scales back EXPERIMENTS.md. Like every helper here
// Run panics on failure; drivers recover.
func (c *Case) Run(ctx context.Context, w io.Writer, quick bool) {
	fmt.Fprintf(w, "## %s — %s\n\n*Claim:* %s\n\n", c.ID, c.Title, c.Claim)
	if c.run != nil {
		c.run(ctx, w, quick)
	}
	if c.Build == nil {
		return
	}
	points := c.Full
	if quick {
		points = c.Quick
	}
	t := newTable(c.Cols...)
	for _, p := range points {
		s, q, rw := c.Prepare(ctx, p)
		if rw == nil {
			panic(c.ID + ": rewriting missing")
		}
		m := c.measure(ctx, p, s, q, rw)
		cells := make([]any, len(c.Cols))
		for i, col := range c.Cols {
			cells[i] = m.cell(col)
		}
		t.row(cells...)
	}
	t.flush(w)
}

// Prepare builds the case's system at p, tracks its view, and
// returns the system, the parsed query and the picked rewriting (nil
// when the search finds none).
func (c *Case) Prepare(ctx context.Context, p Point) (*aggview.System, *ir.Query, *aggview.Rewriting) {
	s := c.Build(ctx, p)
	if _, err := s.TrackViewContext(ctx, c.View); err != nil {
		panic(err)
	}
	q, err := s.Parse(c.Query)
	if err != nil {
		panic(err)
	}
	rws, err := s.RewritingsContext(ctx, c.Query)
	if err != nil {
		panic(err)
	}
	return s, q, c.Pick(rws)
}

// first picks the search's first rewriting.
func first(rws []*aggview.Rewriting) *aggview.Rewriting {
	if len(rws) == 0 {
		return nil
	}
	return rws[0]
}

// viewOnly picks the rewriting that reads the view and nothing else.
func viewOnly(rws []*aggview.Rewriting) *aggview.Rewriting {
	var best *aggview.Rewriting
	for _, r := range rws {
		if len(r.Query.Tables) == 1 {
			best = r
		}
	}
	return best
}

// measured is one timed point of a direct-versus-rewritten case.
type measured struct {
	Point
	ViewRows          int
	Direct, Rewritten time.Duration
	Equal             bool // the two result bags are multiset-equal
}

// measure times both evaluations of a prepared case.
func (c *Case) measure(ctx context.Context, p Point, s *aggview.System, q *ir.Query, rw *aggview.Rewriting) measured {
	exec := func(q *ir.Query) (res *engine.Relation) {
		res, err := engine.NewEvaluator(s.DB, s.Views).ExecContext(ctx, q)
		if err != nil {
			panic(err)
		}
		return res
	}
	m := measured{Point: p}
	var d1, d2 *engine.Relation
	m.Direct = bestOf(3, func() { d1 = exec(q) })
	m.Rewritten = bestOf(3, func() { d2 = exec(rw.Query) })
	m.ViewRows, _ = s.DB.NumRows(c.View)
	m.Equal = engine.ResultsEqualBag(d1, d2)
	return m
}

// cell returns the value under one column heading of Case.Cols.
func (m measured) cell(col string) any {
	switch col {
	case "|Calls|", "|R1|":
		return m.Rows
	case "|V1|", "|V|", "|view|":
		return m.ViewRows
	case "subgroups/group":
		return m.FanIn
	case "direct":
		return m.Direct
	case "rewritten":
		return m.Rewritten
	case "speedup":
		return float64(m.Direct) / float64(m.Rewritten)
	case "equal":
		return m.Equal
	}
	panic("unknown column " + col)
}

// load declares and fills a new system with d.
func load(ctx context.Context, d datagen.Data) *aggview.System {
	s := aggview.New()
	if err := d.Load(ctx, s); err != nil {
		panic(err)
	}
	return s
}

// telcoSystem is Example 1.1: the telco tables and view V1.
func telcoSystem(ctx context.Context, p Point) *aggview.System {
	s := load(ctx, datagen.Telco(datagen.TelcoConfig{Calls: p.Rows, Seed: 1}))
	s.MustDefineView("V1", `
		SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
		GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`)
	return s
}

// conjSystem is the Example 3.1 shape (Theorem 3.1): a conjunctive join
// view. R2 stays small and the domain wide, so the materialized view is
// selective (about |R1|/16 rows) rather than exploding.
func conjSystem(ctx context.Context, p Point) *aggview.System {
	s := load(ctx, datagen.R1R2(datagen.R1R2Config{R1Rows: p.Rows, R2Rows: 64, Domain: 32, Seed: 2}))
	s.MustDefineView("V31", "SELECT C, D FROM R1, R2 WHERE A = C AND B = D")
	return s
}

// coalesceSystem is Example 4.1: the query groups coarser than the view,
// so the speedup tracks the compression ratio p.FanIn sets.
func coalesceSystem(ctx context.Context, p Point) *aggview.System {
	r1 := make([][]value.Value, p.Rows)
	for i := range r1 {
		r1[i] = []value.Value{value.Int(int64(i % 8)), value.Int(int64(i % 5)), value.Int(int64(i % p.FanIn)), value.Int(int64(i % 3))}
	}
	s := load(ctx, datagen.Data{DDL: datagen.R1R2DDL, Tables: []datagen.Table{{Name: "R1", Rows: r1}, {Name: "R2"}}})
	s.MustDefineView("Vc", "SELECT A, C, COUNT(D) FROM R1 GROUP BY A, C")
	return s
}

// multSystem is Example 4.2: SUM over a cross join, answered from a view
// whose COUNT column recovers the multiplicities grouping lost.
func multSystem(ctx context.Context, p Point) *aggview.System {
	s := load(ctx, datagen.R1R2(datagen.R1R2Config{R1Rows: p.Rows, R2Rows: 30, Domain: 12, Seed: 4}))
	s.MustDefineView("V2", "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B")
	return s
}

// counterexampleVerdicts prints E4's correctness table: the published
// construction versus this library's scaled-aggregate rewriting on the
// counterexample.
func counterexampleVerdicts(ctx context.Context, w io.Writer, _ bool) {
	verdicts := newTable("construction", "answer on counterexample", "verdict")
	want, paper, ours := CounterexampleAnswers(ctx)
	verdicts.row("original Q", want, "ground truth")
	verdicts.row("published Q' (Ex. 4.2 verbatim)", paper, okness(paper == want))
	verdicts.row("scaled-aggregate rewriting (this library)", ours, okness(ours == want))
	verdicts.flush(w)
}

func okness(ok bool) string {
	if ok {
		return "correct"
	}
	return "WRONG"
}

// CounterexampleAnswers evaluates the Example 4.2 counterexample and
// returns the answers of the original query, the paper's literal Q',
// and this library's rewriting. ctx bounds the three evaluations and
// the rewrite search.
func CounterexampleAnswers(ctx context.Context) (want, paper, ours int64) {
	src := ir.MapSource{"R1": {"A", "B", "C", "D"}, "R2": {"E", "F"}}
	db := engine.NewDB()
	r1 := engine.NewRelation("A", "B", "C", "D")
	r1.Add(value.Int(1), value.Int(10), value.Int(0), value.Int(0))
	r1.Add(value.Int(1), value.Int(20), value.Int(0), value.Int(0))
	db.Put("R1", r1)
	r2 := engine.NewRelation("E", "F")
	r2.Add(value.Int(5), value.Int(0))
	db.Put("R2", r2)

	reg := ir.NewRegistry()
	v2, _ := ir.NewViewDef("V2", ir.MustBuild("SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B", src))
	_ = reg.Add(v2)
	va, _ := ir.NewViewDef("Va", ir.MustBuild("SELECT A, SUM(N) FROM V2 GROUP BY A",
		ir.MultiSource{src, ir.MapSource{"V2": {"A", "B", "S", "N"}}}))
	_ = reg.Add(va)

	full := ir.MultiSource{src, ir.MapSource{"V2": {"A", "B", "S", "N"}, "Va": {"A4", "Cnt_Va"}}}
	q := ir.MustBuild("SELECT A, SUM(E) FROM R1, R2 GROUP BY A", src)
	paperQ := ir.MustBuild("SELECT V2.A, Cnt_Va * SUM(E) FROM V2, Va, R2 WHERE V2.A = Va.A4 GROUP BY V2.A, Cnt_Va", full)

	rWant, err := engine.NewEvaluator(db, reg).ExecContext(ctx, q)
	if err != nil {
		panic(err)
	}
	rPaper, err := engine.NewEvaluator(db, reg).ExecContext(ctx, paperQ)
	if err != nil {
		panic(err)
	}

	rw := &core.Rewriter{Views: reg}
	rws, err := rw.RewriteOnceContext(ctx, q, v2)
	if err != nil {
		panic(err)
	}
	if len(rws) == 0 {
		panic("scaled-aggregate rewriting missing")
	}
	rOurs, err := engine.NewEvaluator(db, reg).ExecContext(ctx, rws[0].Query)
	if err != nil {
		panic(err)
	}
	return rWant.Tuples[0][1].AsInt(), rPaper.Tuples[0][1].AsInt(), rOurs.Tuples[0][1].AsInt()
}
