package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"aggview"
	"aggview/internal/constraints"
	"aggview/internal/core"
	"aggview/internal/datagen"
	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/keys"
	"aggview/internal/value"
)

// multiView machine-checks Theorem 3.2 (E5, table T5): iterative
// application over k slice views yields all 2^k - 1 combinations, every
// one multiset-equivalent, and view order does not matter.
func multiView(ctx context.Context, w io.Writer, _ bool) {
	t := newTable("views k", "expected 2^k-1", "found", "all equivalent", "order-independent")
	for k := 1; k <= 3; k++ {
		found, equal, orderFree := RunMultiView(ctx, k)
		t.row(k, (1<<k)-1, found, equal, orderFree)
	}
	t.flush(w)
}

// RunMultiView builds k slice views over a k-table query and checks the
// Theorem 3.2 properties.
func RunMultiView(ctx context.Context, k int) (found int, allEqual, orderFree bool) {
	// Schema: tables T0..T(k-1), each (X, Y); query joins them on X.
	src := ir.MapSource{}
	reg := ir.NewRegistry()
	qSQL := "SELECT t0.X, COUNT(t0.Y) FROM "
	where := ""
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("T%d", i)
		src[name] = []string{"X", "Y"}
		if i > 0 {
			qSQL += ", "
			where += fmt.Sprintf(" AND t%d.X = t0.X", i)
		}
		qSQL += fmt.Sprintf("%s t%d", name, i)
	}
	qSQL += " WHERE t0.Y > 0" + where + " GROUP BY t0.X"
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("T%d", i)
		def := ir.MustBuild(fmt.Sprintf("SELECT X, Y FROM %s", name), src)
		v, err := ir.NewViewDef("V"+name, def)
		if err != nil {
			panic(err)
		}
		if err := reg.Add(v); err != nil {
			panic(err)
		}
	}
	rw := &core.Rewriter{Views: reg}
	q := ir.MustBuild(qSQL, src)
	rws, err := rw.RewritingsContext(ctx, q)
	if err != nil {
		panic(err)
	}
	found = len(rws)

	// Soundness on random data.
	db := engine.NewDB()
	for i := 0; i < k; i++ {
		rel := engine.NewRelation("X", "Y")
		for r := 0; r < 40; r++ {
			rel.Add(value.Int(int64(r%5)), value.Int(int64((r*7+i)%4)))
		}
		db.Put(fmt.Sprintf("T%d", i), rel)
	}
	allEqual = true
	want, err := engine.NewEvaluator(db, reg).ExecContext(ctx, q)
	if err != nil {
		panic(err)
	}
	for _, r := range rws {
		got, err := engine.NewEvaluator(db, reg).ExecContext(ctx, r.Query)
		if err != nil || !engine.ResultsEqualBag(want, got) {
			allEqual = false
		}
	}

	// Church-Rosser: with k = 2, both orders reach the same two-view
	// rewriting; in general re-running RewritingsContext with a reversed view
	// list must find the same count.
	rev := ir.NewRegistry()
	all := reg.All()
	for i := len(all) - 1; i >= 0; i-- {
		if err := rev.Add(all[i]); err != nil {
			panic(err)
		}
	}
	rw2 := &core.Rewriter{Views: rev}
	rws2, err := rw2.RewritingsContext(ctx, q)
	if err != nil {
		panic(err)
	}
	orderFree = len(rws2) == found
	return found, allEqual, orderFree
}

// searchCost measures the rewriter's own cost (E6, table T6): time to
// enumerate all rewritings as views, query tables and predicates grow —
// the Section 6 concern that view usability enlarges the optimizer's
// search space.
func searchCost(ctx context.Context, w io.Writer, quick bool) {
	t := newTable("query tables", "candidate views", "rewritings", "enumeration time")
	sizes := [][2]int{{1, 4}, {1, 16}, {2, 8}, {2, 32}, {3, 12}, {3, 48}}
	if quick {
		sizes = [][2]int{{1, 4}, {2, 8}, {3, 12}}
	}
	for _, sz := range sizes {
		nTables, nViews := sz[0], sz[1]
		elapsed, found := RunSearchCost(ctx, nTables, nViews)
		t.row(nTables, nViews, found, elapsed)
	}
	t.flush(w)
}

// SearchCostSetup builds one point of E6: nViews slice views (B-slices
// of R1, F-slices of R2, H-slices of R3, only a few of which match the
// query's predicates) and the nTables-table query to rewrite over them.
func SearchCostSetup(nTables, nViews int) (*core.Rewriter, *ir.Query) {
	src := ir.MapSource{"R1": {"A", "B", "C", "D"}, "R2": {"E", "F"}, "R3": {"G", "H"}}
	reg := ir.NewRegistry()
	for i := 0; i < nViews; i++ {
		var def *ir.Query
		switch i % 3 {
		case 0:
			def = ir.MustBuild(fmt.Sprintf("SELECT A, B, C, D FROM R1 WHERE B = %d", i/3), src)
		case 1:
			def = ir.MustBuild(fmt.Sprintf("SELECT E, F FROM R2 WHERE F = %d", i/3), src)
		default:
			def = ir.MustBuild(fmt.Sprintf("SELECT G, H FROM R3 WHERE H = %d", i/3), src)
		}
		v, err := ir.NewViewDef(fmt.Sprintf("SV%d", i), def)
		if err != nil {
			panic(err)
		}
		if err := reg.Add(v); err != nil {
			panic(err)
		}
	}
	var qSQL string
	switch nTables {
	case 1:
		qSQL = "SELECT A, SUM(C) FROM R1 WHERE B = 0 GROUP BY A"
	case 2:
		qSQL = "SELECT A, SUM(E) FROM R1, R2 WHERE B = 0 AND F = 0 AND A = E GROUP BY A"
	default:
		qSQL = "SELECT A, SUM(E) FROM R1, R2, R3 WHERE B = 0 AND F = 0 AND H = 0 AND A = E AND A = G GROUP BY A"
	}
	return &core.Rewriter{Views: reg}, ir.MustBuild(qSQL, src)
}

// RunSearchCost measures one point of E6.
func RunSearchCost(ctx context.Context, nTables, nViews int) (time.Duration, int) {
	rw, q := SearchCostSetup(nTables, nViews)
	var found int
	elapsed := bestOf(3, func() {
		rws, err := rw.RewritingsContext(ctx, q)
		if err != nil {
			panic(err)
		}
		found = len(rws)
	})
	return elapsed, found
}

// keysCases machine-checks the Section 5 relaxation (E7, table T7):
// Example 5.1 is rewritable exactly when key metadata is available.
func keysCases(ctx context.Context, w io.Writer, _ bool) {
	t := newTable("metadata", "rewritings found", "verified on data")
	for _, withKeys := range []bool{false, true} {
		found, verified := RunKeysCase(ctx, withKeys)
		label := "none"
		if withKeys {
			label = "KEY(R1.A), KEY(R2.E)"
		}
		t.row(label, found, verified)
	}
	t.flush(w)
}

// KeysSetup builds Example 5.1 with or without key metadata: the system
// holding Example51's rows, the rewriter, the query and the self-join
// view V51.
func KeysSetup(ctx context.Context, withKeys bool) (*aggview.System, *core.Rewriter, *ir.Query, *ir.ViewDef) {
	s := load(ctx, datagen.Example51(withKeys))
	s.MustDefineView("V51", "SELECT r.A, s.A FROM R1 r, R1 s WHERE r.B = s.C")
	v, _ := s.Views.Get("V51")
	q, err := s.Parse("SELECT A FROM R1 WHERE B = C")
	if err != nil {
		panic(err)
	}
	rw := &core.Rewriter{Views: s.Views}
	if withKeys {
		rw.Meta = keys.CatalogMeta{Catalog: s.Catalog}
	}
	return s, rw, q, v
}

// RunKeysCase runs Example 5.1 with or without key metadata, and checks
// a rewriting it finds on Example51's rows.
func RunKeysCase(ctx context.Context, withKeys bool) (int, string) {
	s, rw, q, v := KeysSetup(ctx, withKeys)
	rws, err := rw.RewriteOnceContext(ctx, q, v)
	if err != nil {
		panic(err)
	}
	if len(rws) == 0 {
		return 0, "n/a"
	}
	want, err := engine.NewEvaluator(s.DB, rw.Views).ExecContext(ctx, q)
	if err != nil {
		panic(err)
	}
	got, err := engine.NewEvaluator(s.DB, rw.Views).ExecContext(ctx, rws[0].Query)
	if err != nil {
		panic(err)
	}
	if engine.ResultsEqualBag(want, got) {
		return len(rws), "yes"
	}
	return len(rws), "NO"
}

// negative machine-checks the paper's impossibility results (E8, table
// T8): each case must yield zero rewritings. ctx bounds the searches.
func negative(ctx context.Context, w io.Writer, _ bool) {
	t := newTable("case", "paper section", "rewritings (want 0)")
	for _, c := range NegativeCases(ctx) {
		t.row(c.Name, c.Section, c.Found)
	}
	t.flush(w)
}

// NegativeCase is one impossibility check.
type NegativeCase struct {
	Name    string
	Section string
	Found   int
}

// NegativeCases runs the gallery of must-fail constructions under ctx.
func NegativeCases(ctx context.Context) []NegativeCase {
	src := ir.MapSource{"R1": {"A", "B", "C", "D"}, "R2": {"E", "F"}}
	mk := func(name, section, viewSQL, querySQL string, opts core.Options) NegativeCase {
		reg := ir.NewRegistry()
		v, err := ir.NewViewDef("V", ir.MustBuild(viewSQL, src))
		if err != nil {
			panic(err)
		}
		if err := reg.Add(v); err != nil {
			panic(err)
		}
		rw := &core.Rewriter{Views: reg, Opts: opts}
		q := ir.MustBuild(querySQL, src)
		rws, err := rw.RewriteOnceContext(ctx, q, v)
		if err != nil {
			panic(err)
		}
		return NegativeCase{Name: name, Section: section, Found: len(rws)}
	}
	return []NegativeCase{
		mk("view without COUNT cannot recover multiplicities",
			"4.2", "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B",
			"SELECT A, SUM(E) FROM R1, R2 GROUP BY A", core.Options{}),
		mk("query constrains a column the view aggregated away",
			"4.2 (Ex. 4.4)", "SELECT A, E, F, SUM(B) FROM R1, R2 GROUP BY A, E, F",
			"SELECT A, E, SUM(B) FROM R1, R2 WHERE B = F GROUP BY A, E", core.Options{}),
		mk("aggregation view for a conjunctive query",
			"4.5 (Ex. 4.5)", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
			"SELECT A, B FROM R1", core.Options{}),
		mk("view filters tuples the query needs",
			"3.1 (C3)", "SELECT A, B, C, D FROM R1 WHERE B = 7",
			"SELECT A, SUM(B) FROM R1 WHERE B = 6 GROUP BY A", core.Options{}),
		mk("view HAVING stronger than the query's",
			"4.3", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 3",
			"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1", core.Options{}),
		mk("coalescing past a view HAVING",
			"4.3", "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B HAVING SUM(C) > 2",
			"SELECT A, SUM(C) FROM R1 GROUP BY A", core.Options{}),
		mk("DISTINCT view under multiset semantics",
			"5.2", "SELECT DISTINCT A, B, C, D FROM R1",
			"SELECT A, B FROM R1", core.Options{}),
		mk("paper-faithful mode refuses the unguarded Va construction",
			"4.2 (S5')", "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
			"SELECT A, SUM(E) FROM R1, R2 GROUP BY A", core.Options{PaperFaithful: true}),
	}
}

// closure measures the constraint-closure substrate (E9, table T9): the
// footnote-2 claim that the closure is polynomial and cheap.
func closure(_ context.Context, w io.Writer, quick bool) {
	sizes := []int{8, 16, 32, 64}
	if quick {
		sizes = []int{8, 16}
	}
	t := newTable("atoms", "variables", "Close", "Implies (per query)", "closure atoms")
	for _, n := range sizes {
		closeT, impliesT, atoms, vars := RunClosure(n)
		t.row(n, vars, closeT, impliesT, atoms)
	}
	t.flush(w)
}

// ClosureWorkload builds a satisfiable-by-construction conjunction of
// nAtoms mixed atoms: the assignment v_i = floor(i/2) satisfies every
// atom, so the closure exercises real derivations rather than collapsing
// to a contradiction. It is shared with the E9 benchmarks.
func ClosureWorkload(nAtoms int) constraints.Conj {
	nVars := nAtoms/2 + 4
	conj := make(constraints.Conj, 0, nAtoms)
	vi := func(i int) constraints.Term { return constraints.V(constraints.Var(i)) }
	for i := 0; i < nAtoms; i++ {
		a := i % nVars
		b := (a + 2 + i%3) % nVars
		if a/2 >= b/2 {
			a, b = b, a
		}
		switch i % 5 {
		case 0: // equality within a level pair
			p := 2 * ((i / 5) % (nVars / 2))
			conj = append(conj, constraints.Atom{Op: ir.OpEq, L: vi(p), R: vi(p + 1)})
		case 1: // strict order across levels
			if a/2 < b/2 {
				conj = append(conj, constraints.Atom{Op: ir.OpLt, L: vi(a), R: vi(b)})
			} else {
				conj = append(conj, constraints.Atom{Op: ir.OpLeq, L: vi(a), R: vi(b)})
			}
		case 2: // non-strict order
			conj = append(conj, constraints.Atom{Op: ir.OpLeq, L: vi(a), R: vi(b)})
		case 3: // consistent constant bounds
			conj = append(conj, constraints.Atom{Op: ir.OpGeq, L: vi(a), R: constraints.C(value.Int(0))})
		default: // disequality against an unreachable constant
			conj = append(conj, constraints.Atom{Op: ir.OpNeq, L: vi(b), R: constraints.C(value.Int(-7))})
		}
	}
	return conj
}

// RunClosure measures closure construction and entailment at one size.
func RunClosure(nAtoms int) (closeT, impliesT time.Duration, closureAtoms, vars int) {
	nVars := nAtoms/2 + 4
	conj := ClosureWorkload(nAtoms)
	var cl *constraints.Closure
	closeT = bestOf(5, func() { cl = constraints.Close(conj) })
	if !cl.Sat() {
		panic("E9 workload must be satisfiable")
	}
	probe := constraints.Atom{Op: ir.OpLeq, L: constraints.V(0), R: constraints.V(constraints.Var(nVars - 1))}
	impliesT = bestOf(5, func() {
		for i := 0; i < 100; i++ {
			cl.Implies(probe)
		}
	}) / 100
	return closeT, impliesT, len(cl.Atoms()), nVars
}

// having machine-checks the Section 3.3 pre-processing (E10, table
// T10): moving HAVING conditions into WHERE enables rewritings that are
// otherwise missed (ablation via Options.NoNormalize).
func having(ctx context.Context, w io.Writer, _ bool) {
	t := newTable("case", "with pre-processing", "without (ablation)")
	for _, c := range HavingCases(ctx) {
		t.row(c.Name, c.With, c.Without)
	}
	t.flush(w)
}

// HavingCase is one E10 ablation row.
type HavingCase struct {
	Name          string
	With, Without int
}

// HavingCases runs the E10 workloads with and without normalization,
// under ctx.
func HavingCases(ctx context.Context) []HavingCase {
	src := ir.MapSource{"R1": {"A", "B", "C", "D"}}
	mk := func(name, viewSQL, querySQL string) HavingCase {
		reg := ir.NewRegistry()
		v, err := ir.NewViewDef("V", ir.MustBuild(viewSQL, src))
		if err != nil {
			panic(err)
		}
		if err := reg.Add(v); err != nil {
			panic(err)
		}
		q := ir.MustBuild(querySQL, src)
		with := &core.Rewriter{Views: reg}
		without := &core.Rewriter{Views: reg, Opts: core.Options{NoNormalize: true}}
		withRws, err := with.RewriteOnceContext(ctx, q, v)
		if err != nil {
			panic(err)
		}
		withoutRws, err := without.RewriteOnceContext(ctx, q, v)
		if err != nil {
			panic(err)
		}
		return HavingCase{Name: name, With: len(withRws), Without: len(withoutRws)}
	}
	return []HavingCase{
		mk("HAVING A > 1 vs view slicing A > 1",
			"SELECT A, B, COUNT(C) FROM R1 WHERE A > 1 GROUP BY A, B",
			"SELECT A, COUNT(C) FROM R1 GROUP BY A HAVING A > 1"),
		mk("HAVING MAX(B) > 10 (sole aggregate) vs view slicing B > 10",
			"SELECT A, B, C, D FROM R1 WHERE B > 10",
			"SELECT A, MAX(B) FROM R1 GROUP BY A HAVING MAX(B) > 10"),
		mk("group-column HAVING on both sides",
			"SELECT A, B, COUNT(C) FROM R1 WHERE A = B GROUP BY A, B",
			"SELECT A, COUNT(C) FROM R1 GROUP BY A, B HAVING A = B"),
	}
}
