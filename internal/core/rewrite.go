package core

import (
	"fmt"

	"aggview/internal/constraints"
	"aggview/internal/ir"
	"aggview/internal/keys"
)

// errNotUsable signals that a usability condition failed; the message
// names the condition for explanations.
type errNotUsable struct{ reason string }

func (e *errNotUsable) Error() string { return e.reason }

func fail(format string, args ...any) error {
	return &errNotUsable{reason: fmt.Sprintf(format, args...)}
}

// analyzer checks the usability conditions for one (query, view,
// mapping) triple and constructs the rewritten query. What depends on
// the query alone (qf) or the view alone (vf) is shared with every other
// analyzer of the wave and only read here; the analyzer's own state is
// what the mapping adds.
type analyzer struct {
	rw     *Rewriter
	qf     *queryFacts
	vf     *viewFacts
	q, v   *ir.Query // qf.qn and vf.vn: the normalized query and view definition
	m      mapping
	setSem bool

	covered       []bool // q col -> in the mapping's image
	coveredTables []bool // q table -> in the mapping's image
	nCovered      int    // number of covered tables
	sigmaBare     []int  // q col -> select position of a bare view item mapped exactly onto it, -1 when none

	// Construction state.
	nq       *ir.Query
	viewCols []ir.ColID // nq cols of the view instance, by select position
	oldToNew []ir.ColID // q col -> nq col; -1 when unavailable
	repl     []ir.ColID // q col -> its C2 replacement in nq; replUnknown until asked, -1 when none exists
	aux      []*ir.ViewDef
	notes    []string

	vaCnt ir.ColID // Cnt_Va column in nq; -1 until built
}

const replUnknown = ir.ColID(-2)

func newAnalyzer(rw *Rewriter, qf *queryFacts, vf *viewFacts, m mapping, setSem bool) *analyzer {
	qf.close()
	return &analyzer{rw: rw, qf: qf, vf: vf, q: qf.qn, v: vf.vn, m: m, setSem: setSem, vaCnt: -1}
}

func (a *analyzer) analyze() (*Rewriting, error) {
	n := a.q.NumCols()
	a.covered = make([]bool, n)
	a.sigmaBare = make([]int, n)
	a.repl = make([]ir.ColID, n)
	for c := 0; c < n; c++ {
		a.sigmaBare[c], a.repl[c] = -1, replUnknown
	}
	for _, qc := range a.m.colMap {
		a.covered[qc] = true
	}
	a.coveredTables = make([]bool, len(a.q.Tables))
	for _, qi := range a.m.tableMap {
		if !a.coveredTables[qi] {
			a.coveredTables[qi] = true
			a.nCovered++
		}
	}
	for _, it := range a.vf.bare {
		if qc := a.m.sigma(it.col); a.sigmaBare[qc] < 0 {
			a.sigmaBare[qc] = it.pos
		}
	}

	if err := a.residualStep(); err != nil {
		return nil, err
	}
	if err := a.groupByStep(); err != nil {
		return nil, err
	}
	if err := a.selectStep(); err != nil {
		return nil, err
	}
	if err := a.havingStep(); err != nil {
		return nil, err
	}

	a.nq.Distinct = a.q.Distinct
	setOnly := false
	if a.setSem {
		setOnly = true
		a.addSameImageEqualities()
		meta := a.rw.meta()
		// Many-to-1 mappings are justified by key reasoning, not by
		// set-ness alone (the chase in Example 5.1 relies on A being a
		// key). Verify the candidate by unfolding and checking mutual
		// containment under the dependencies.
		if !setEquivalent(a.q, a.nq, a.rw.Views, meta) {
			return nil, fail("set-semantics candidate failed the containment verification")
		}
		// Multiset equivalence needs the rewriting to also be a set. If
		// that cannot be established from keys, force DISTINCT: since the
		// original is a set, deduplicating a set-equivalent query yields
		// the same multiset.
		if meta == nil || !keys.IsSetResult(a.nq, a.auxAwareMeta(meta)) {
			a.nq.Distinct = true
			a.note("added DISTINCT to restore set-ness of the rewriting")
		}
	}
	return &Rewriting{Query: a.nq, Aux: a.aux, Used: []string{a.vf.def.Name}, SetOnly: setOnly, Notes: a.notes, groupPreserving: a.groupPreserving()}, nil
}

// groupPreserving reports whether each group of the rewritten query is
// exactly one view row: a 1-1 mapping of an aggregation query onto an
// aggregation view that covers every query table, with no auxiliary view,
// and whose grouping columns the query's groups determine. Every row of a
// view group then satisfies Conds(Q) or none does (the residual reads only
// exposed grouping columns), and the view's grouping columns are its key
// (Section 5, Prop 5.1), so no two surviving view rows share a group.
func (a *analyzer) groupPreserving() bool {
	return len(a.aux) == 0 && a.readsOneViewRow()
}

// readsOneViewRow is groupPreserving before any auxiliary view is built:
// each query group reads exactly one row of the view.
func (a *analyzer) readsOneViewRow() bool {
	return !a.setSem && a.m.oneToOne && a.qf.isAgg && a.vf.isAgg &&
		a.nCovered == len(a.q.Tables) && a.vGroupsDeterminedByQ()
}

// addSameImageEqualities adds, for a many-to-1 mapping, equality
// predicates between exposed view outputs whose sigma images coincide
// under Conds(Q) — the paper's "minor modifications to handle repeated
// column names" in Section 5.2. Without them the view's rows are not
// constrained to collapse onto single query rows (Example 5.1's
// A1 = A4 predicate).
func (a *analyzer) addSameImageEqualities() {
	items := a.vf.bare
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if a.equalCols(a.m.sigma(items[i].col), a.m.sigma(items[j].col)) {
				a.nq.Where = append(a.nq.Where, ir.Pred{
					Op: ir.OpEq,
					L:  ir.ColTerm(a.viewCols[items[i].pos]),
					R:  ir.ColTerm(a.viewCols[items[j].pos]),
				})
			}
		}
	}
}

// auxAwareMeta extends the metadata with this rewriting's auxiliary
// views so set-ness checks can see them.
func (a *analyzer) auxAwareMeta(meta keys.MetaSource) keys.MetaSource {
	if len(a.aux) == 0 {
		return meta
	}
	reg := ir.NewRegistry()
	for _, v := range a.aux {
		_ = reg.Add(v)
	}
	return keys.ViewMeta{Base: meta, Views: reg}
}

func (a *analyzer) note(format string, args ...any) {
	a.notes = append(a.notes, fmt.Sprintf(format, args...))
}

func (a *analyzer) canon(c ir.ColID) ir.ColID { return a.qf.canon[c] }

// equalCols reports whether two query columns are provably equal under
// Conds(Q).
func (a *analyzer) equalCols(x, y ir.ColID) bool { return a.qf.canon[x] == a.qf.canon[y] }

// residualStep checks condition C3/C3' and starts building the
// rewritten query: the view instance replaces the covered tables (steps
// S1/S1'), and the WHERE clause becomes the residual Conds' (S3/S3').
func (a *analyzer) residualStep() error {
	condsV := make(constraints.Conj, len(a.vf.conds))
	for i, at := range a.vf.conds {
		condsV[i] = constraints.Atom{Op: at.Op, L: a.sigmaTerm(at.L), R: a.sigmaTerm(at.R)}
	}
	// Allowed residual columns: those of tables outside the mapping's
	// image, plus exact sigma-images of the view's exposed bare columns
	// (Sel(V) for conjunctive views, ColSel(V) for aggregation views,
	// which is what the bare items are in both cases).
	allowed := func(v constraints.Var) bool {
		c := ir.ColID(v)
		return !a.covered[c] || a.sigmaBare[c] >= 0
	}
	res, ok := constraints.Residual(a.qf.cl, condsV, allowed)
	if !ok {
		return fail("condition C3: no residual Conds' over the available columns")
	}

	// Step S1/S1': build the new query's FROM clause.
	a.nq = &ir.Query{}
	vt := a.nq.AddTable(a.vf.def.Name, "", a.vf.def.OutCols)
	a.viewCols = append([]ir.ColID{}, a.nq.Tables[vt].Cols...)
	a.oldToNew = make([]ir.ColID, a.q.NumCols())
	for i := range a.oldToNew {
		a.oldToNew[i] = -1
	}
	for ti, t := range a.q.Tables {
		if a.coveredTables[ti] {
			continue
		}
		attrs := make([]string, len(t.Cols))
		for pos, id := range t.Cols {
			attrs[pos] = a.q.Col(id).Attr
		}
		nt := a.nq.AddTable(t.Source, t.Alias, attrs)
		for pos, id := range t.Cols {
			a.oldToNew[id] = a.nq.Tables[nt].Cols[pos]
		}
	}

	// Step S3: install the residual as the new WHERE clause, sized once
	// with room for the query's HAVING conjuncts, which DropFold moves in
	// should this rewriting turn out group-preserving.
	if n := len(res) + len(a.q.Having); n > 0 {
		a.nq.Where = make([]ir.Pred, 0, n)
	}
	for _, at := range res {
		l, err := a.residualTerm(at.L)
		if err != nil {
			return err
		}
		r, err := a.residualTerm(at.R)
		if err != nil {
			return err
		}
		a.nq.Where = append(a.nq.Where, ir.Pred{Op: at.Op, L: l, R: r})
	}
	a.note("condition C3: Conds' = %s", a.renderConj(res))
	return nil
}

// renderConj renders a constraint conjunction over the original query's
// column names, for explanations.
func (a *analyzer) renderConj(c constraints.Conj) string {
	if len(c) == 0 {
		return "TRUE"
	}
	term := func(t constraints.Term) string {
		if t.IsConst {
			return t.C.String()
		}
		v := int(t.V)
		if v >= 0 && v < a.q.NumCols() {
			return a.q.Col(ir.ColID(v)).Name
		}
		return t.String()
	}
	out := ""
	for i, at := range c {
		if i > 0 {
			out += " AND "
		}
		out += term(at.L) + " " + at.Op.String() + " " + term(at.R)
	}
	return out
}

// sigmaTerm maps a term of Conds(V) into the query's columns.
func (a *analyzer) sigmaTerm(t constraints.Term) constraints.Term {
	if t.IsConst {
		return t
	}
	return constraints.V(constraints.Var(a.m.sigma(ir.ColID(t.V))))
}

func (a *analyzer) residualTerm(t constraints.Term) (ir.Term, error) {
	if t.IsConst {
		return ir.ConstTerm(t.C), nil
	}
	c := ir.ColID(t.V)
	if !a.covered[c] {
		return ir.ColTerm(a.oldToNew[c]), nil
	}
	pos := a.sigmaBare[c]
	if pos < 0 {
		return ir.Term{}, fail("internal: residual mentions unavailable column %s", a.q.Col(c).Name)
	}
	return ir.ColTerm(a.viewCols[pos]), nil
}

// replacement finds the view output standing for a covered query column
// (condition C2/C2'): a bare select item B with Conds(Q) implying
// A = sigma(B). It returns the nq column of that output.
func (a *analyzer) replacement(c ir.ColID) (ir.ColID, error) {
	if a.repl[c] == replUnknown {
		a.repl[c] = -1
		if pos := a.sigmaBare[c]; pos >= 0 {
			a.repl[c] = a.viewCols[pos]
		} else {
			for _, it := range a.vf.bare {
				if a.equalCols(a.m.sigma(it.col), c) {
					a.repl[c] = a.viewCols[it.pos]
					break
				}
			}
		}
	}
	if a.repl[c] < 0 {
		return 0, fail("condition C2: no view output equals column %s", a.q.Col(c).Name)
	}
	return a.repl[c], nil
}

// mapCol maps a query column into the rewritten query: uncovered columns
// keep their table's copy, covered ones need a C2 replacement.
func (a *analyzer) mapCol(c ir.ColID) (ir.ColID, error) {
	if !a.covered[c] {
		return a.oldToNew[c], nil
	}
	return a.replacement(c)
}

// groupByStep applies step S2/S2' to the GROUP BY list.
func (a *analyzer) groupByStep() error {
	for _, g := range a.q.GroupBy {
		nc, err := a.mapCol(g)
		if err != nil {
			return err
		}
		a.nq.GroupBy = append(a.nq.GroupBy, nc)
	}
	return nil
}

// selectStep applies steps S2/S4/S5 (and their primed versions) to the
// SELECT list.
func (a *analyzer) selectStep() error {
	for _, it := range a.q.Select {
		e, err := a.rewriteExpr(it.Expr)
		if err != nil {
			return err
		}
		a.nq.Select = append(a.nq.Select, ir.SelectItem{Expr: e, Alias: it.Alias})
	}
	return nil
}

// rewriteExpr rewrites a SELECT or HAVING expression into the new query.
func (a *analyzer) rewriteExpr(e ir.Expr) (ir.Expr, error) {
	switch x := e.(type) {
	case *ir.ColRef:
		nc, err := a.mapCol(x.Col)
		if err != nil {
			return nil, err
		}
		return &ir.ColRef{Col: nc}, nil
	case *ir.Const:
		return &ir.Const{Val: x.Val}, nil
	case *ir.Arith:
		l, err := a.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := a.rewriteExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &ir.Arith{Op: x.Op, L: l, R: r}, nil
	case *ir.Agg:
		return a.rewriteAgg(x)
	default:
		return nil, fail("unsupported expression %T", e)
	}
}

// rewriteAgg implements conditions C4/C4' and steps S4/S4'/S5'.
func (a *analyzer) rewriteAgg(agg *ir.Agg) (ir.Expr, error) {
	if !a.vf.isAgg {
		return a.rewriteAggConjView(agg)
	}
	return a.rewriteAggAggView(agg)
}

// rewriteAggConjView handles a conjunctive view: multiplicities are
// preserved, so aggregates only need their argument columns re-routed
// (condition C4, steps S2/S4).
func (a *analyzer) rewriteAggConjView(agg *ir.Agg) (ir.Expr, error) {
	newArg, err := a.rewriteExpr(agg.Arg)
	if err != nil {
		if agg.Func == ir.AggCount {
			// Step S4: COUNT only needs multiplicities; count any view
			// output instead (condition C4 part 2: Sel(V) non-empty).
			if len(a.viewCols) > 0 {
				a.note("step S4: COUNT argument replaced by a view output")
				return &ir.Agg{Func: ir.AggCount, Arg: &ir.ColRef{Col: a.viewCols[0]}}, nil
			}
		}
		return nil, err
	}
	return &ir.Agg{Func: agg.Func, Arg: newArg}, nil
}

// rewriteAggAggView handles an aggregation view (condition C4', steps
// S4'/S5'), using scaled aggregates by default and the guarded Va
// construction in paper-faithful mode.
func (a *analyzer) rewriteAggAggView(agg *ir.Agg) (ir.Expr, error) {
	coveredCols := false
	bare := ir.ColID(-1)
	isSingleCol := false
	if c, ok := agg.Arg.(*ir.ColRef); ok {
		isSingleCol = true
		bare = c.Col
	}
	ir.WalkExprCols(agg.Arg, func(c ir.ColID) {
		if a.covered[c] {
			coveredCols = true
		}
	})

	if !coveredCols {
		// Case C4' part 2: the argument comes entirely from tables the
		// view does not cover; only the lost multiplicities matter.
		newArg, err := a.rewriteExpr(agg.Arg)
		if err != nil {
			return nil, err
		}
		switch agg.Func {
		case ir.AggMin, ir.AggMax:
			return &ir.Agg{Func: agg.Func, Arg: newArg}, nil
		case ir.AggCount:
			return a.countAsSum()
		case ir.AggSum:
			return a.scaledSum(newArg, a.rw.floatExpr(a.q, agg.Arg))
		case ir.AggAvg:
			return a.avgFromSumCount(func() (ir.Expr, error) { return a.scaledSum(newArg, a.rw.floatExpr(a.q, agg.Arg)) })
		}
		return nil, fail("unknown aggregate %v", agg.Func)
	}

	if !isSingleCol {
		return nil, fail("condition C4': aggregate over an expression mixing view-covered columns")
	}

	// Case C4' part 1: AGG(A) with A covered by the view.
	switch agg.Func {
	case ir.AggMin, ir.AggMax:
		if pos, ok := a.findAggItem(agg.Func, bare); ok {
			return &ir.Agg{Func: agg.Func, Arg: &ir.ColRef{Col: a.viewCols[pos]}}, nil
		}
		nc, err := a.replacement(bare)
		if err != nil {
			return nil, fail("condition C4': no %s(%s) or bare column in the view", agg.Func, a.q.Col(bare).Name)
		}
		return &ir.Agg{Func: agg.Func, Arg: &ir.ColRef{Col: nc}}, nil
	case ir.AggCount:
		return a.countAsSum()
	case ir.AggSum:
		return a.sumOfCovered(bare)
	case ir.AggAvg:
		return a.avgFromSumCount(func() (ir.Expr, error) { return a.sumOfCovered(bare) })
	}
	return nil, fail("unknown aggregate %v", agg.Func)
}

// findAggItem finds a view aggregate item AGG(B) with sigma(B) provably
// equal to the query column c.
func (a *analyzer) findAggItem(fn ir.AggFunc, c ir.ColID) (int, bool) {
	for _, it := range a.vf.aggItems {
		if it.fn == fn && a.equalCols(a.m.sigma(it.arg), c) {
			return it.pos, true
		}
	}
	return 0, false
}

// cntCol returns the nq column of the view's COUNT output (condition
// C4' parts 1(b) and 2).
func (a *analyzer) cntCol() (ir.ColID, error) {
	if a.vf.countPos < 0 {
		return 0, fail("condition C4': the view exposes no COUNT column to recover multiplicities")
	}
	return a.viewCols[a.vf.countPos], nil
}

// countAsSum rewrites COUNT(...) as SUM of the view's COUNT column
// (step S4' part 2 / S5').
func (a *analyzer) countAsSum() (ir.Expr, error) {
	cnt, err := a.cntCol()
	if err != nil {
		return nil, err
	}
	return &ir.Agg{Func: ir.AggSum, Arg: &ir.ColRef{Col: cnt}}, nil
}

// scaledSum computes SUM(arg) when arg comes from uncovered tables:
// SUM(arg * N) by default, or Cnt_Va * SUM(arg) in paper-faithful mode
// (step S5', guarded). Over floats (float) both add rounded products or
// multiply a rounded sum, and are refused (roundedSum).
func (a *analyzer) scaledSum(newArg ir.Expr, float bool) (ir.Expr, error) {
	cnt, err := a.cntCol()
	if err != nil {
		return nil, err
	}
	if err := a.roundedSum(float, true, "SUM(arg × N) over an uncovered argument"); err != nil {
		return nil, err
	}
	if a.rw.Opts.PaperFaithful {
		return a.vaMultiply(&ir.Agg{Func: ir.AggSum, Arg: newArg})
	}
	return &ir.Agg{Func: ir.AggSum, Arg: &ir.Arith{Op: ir.ArithMul, L: newArg, R: &ir.ColRef{Col: cnt}}}, nil
}

// sumOfCovered computes SUM(A) for a covered column A (step S4' part 1),
// from the view's SUM(A) or its bare A. A view's AVG(A) × COUNT is not
// one: true over the reals, it rounds in float64 where the sum it stands
// for is exact. Over a float view column either form is kept only where
// each query group reads one view row (roundedSum).
func (a *analyzer) sumOfCovered(c ir.ColID) (ir.Expr, error) {
	if pos, ok := a.findAggItem(ir.AggSum, c); ok {
		// Coalescing subgroups: SUM of the view's partial sums.
		if err := a.roundedSum(a.rw.floatCol(a.vf.def.Name, pos), false, "SUM of a view's SUM cells"); err != nil {
			return nil, err
		}
		return &ir.Agg{Func: ir.AggSum, Arg: &ir.ColRef{Col: a.viewCols[pos]}}, nil
	}
	if nc, err := a.replacement(c); err == nil {
		// Bare column exposed: each view row stands for N rows with that
		// value (condition C4' part 1(b) requires the COUNT column).
		cnt, err := a.cntCol()
		if err != nil {
			return nil, err
		}
		col := a.nq.Col(nc)
		float := a.rw.floatCol(a.nq.Tables[col.Table].Source, col.Pos)
		if err := a.roundedSum(float, a.rw.Opts.PaperFaithful, "SUM(B × N) over a view's bare column"); err != nil {
			return nil, err
		}
		if a.rw.Opts.PaperFaithful {
			return a.vaMultiply(&ir.Agg{Func: ir.AggSum, Arg: &ir.ColRef{Col: nc}})
		}
		return &ir.Agg{Func: ir.AggSum, Arg: &ir.Arith{Op: ir.ArithMul, L: &ir.ColRef{Col: nc}, R: &ir.ColRef{Col: cnt}}}, nil
	}
	return nil, fail("condition C4': view cannot provide SUM(%s)", a.q.Col(c).Name)
}

// roundedSum is condition C4' for a SUM over floats (float): a form that
// adds rounded float values — a view's SUM cells, products with its
// COUNT — is the exact total rounded once only when each query group
// reads one view row, and one that multiplies a sum from outside (the Va
// construction, va) never is; such a form is refused, so that every
// rewriting answers what the direct query does, bit for bit.
func (a *analyzer) roundedSum(float, va bool, form string) error {
	if float && (va || !a.readsOneViewRow()) {
		return fail("condition C4': %s adds rounded floats", form)
	}
	return nil
}

// avgFromSumCount reconstructs AVG as SUM/COUNT (Section 4.4); it is not
// available in paper-faithful mode (no division).
func (a *analyzer) avgFromSumCount(sum func() (ir.Expr, error)) (ir.Expr, error) {
	if a.rw.Opts.PaperFaithful {
		return nil, fail("AVG reconstruction needs division, unavailable in paper-faithful mode")
	}
	s, err := sum()
	if err != nil {
		return nil, err
	}
	cntExpr, err := a.countAsSum()
	if err != nil {
		return nil, err
	}
	return &ir.Arith{Op: ir.ArithDiv, L: s, R: cntExpr}, nil
}
