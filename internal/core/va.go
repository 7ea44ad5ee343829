package core

import (
	"aggview/internal/ir"
)

// vaMultiply implements the paper-faithful multiplicity recovery of
// steps S4'(1b)/S5': instead of scaling inside the aggregate, it joins
// an auxiliary view Va that pre-aggregates the view's COUNT column and
// multiplies the aggregate from outside: Cnt_Va * SUM(...).
//
// The published construction is unsound when a query group coalesces
// several view groups (the factorization Sum_v Sum_d N_v*A_d =
// (Sum_v N_v)(Sum_d A_d) fails; see DESIGN.md and Example 4.2's
// counterexample in the tests). It is therefore guarded: every view
// grouping column's image must be determined by the query's grouping
// columns, which makes each query group contain exactly one view row and
// the outside multiplication exact.
func (a *analyzer) vaMultiply(sumAgg *ir.Agg) (ir.Expr, error) {
	if !a.vGroupsDeterminedByQ() {
		return nil, fail("paper-faithful Va construction requires query groups to determine the view's groups (the published step S5' is unsound otherwise)")
	}
	if err := a.ensureVa(); err != nil {
		return nil, err
	}
	return &ir.Arith{Op: ir.ArithMul, L: &ir.ColRef{Col: a.vaCnt}, R: sumAgg}, nil
}

// ensureVa builds the auxiliary view Va (once per rewriting):
//
//	Va: SELECT QV_Groups, SUM(N) AS Cnt_Va FROM V GROUP BY QV_Groups
//
// where QV_Groups are the view's exposed grouping columns, joins it into
// the rewritten query on all of QV_Groups (a super-key of Va, so
// multiplicities are unchanged), and adds Cnt_Va to the GROUP BY list.
func (a *analyzer) ensureVa() error {
	if a.vaCnt >= 0 {
		return nil
	}
	if a.vf.countPos < 0 {
		return fail("condition C4': the view exposes no COUNT column to recover multiplicities")
	}
	// QV_Groups: the bare (exposed) select positions of the view, in
	// select order.
	var barePositions []int
	for _, it := range a.vf.bare {
		if a.vf.barePos[it.col] == it.pos { // the column's first exposure
			barePositions = append(barePositions, it.pos)
		}
	}

	def := &ir.Query{}
	vt := def.AddTable(a.vf.def.Name, "", a.vf.def.OutCols)
	inst := def.Tables[vt]
	for _, pos := range barePositions {
		def.Select = append(def.Select, ir.SelectItem{
			Expr:  &ir.ColRef{Col: inst.Cols[pos]},
			Alias: a.vf.def.OutCols[pos],
		})
		def.GroupBy = append(def.GroupBy, inst.Cols[pos])
	}
	def.Select = append(def.Select, ir.SelectItem{
		Expr:  &ir.Agg{Func: ir.AggSum, Arg: &ir.ColRef{Col: inst.Cols[a.vf.countPos]}},
		Alias: "Cnt_Va",
	})

	name := a.vf.def.Name + "_va"
	vaDef, err := ir.NewViewDef(name, def)
	if err != nil {
		return err
	}
	a.aux = append(a.aux, vaDef)

	// Join Va into the rewritten query on all of QV_Groups.
	nt := a.nq.AddTable(name, "", vaDef.OutCols)
	vaCols := a.nq.Tables[nt].Cols
	for i, pos := range barePositions {
		a.nq.Where = append(a.nq.Where, ir.Pred{
			Op: ir.OpEq,
			L:  ir.ColTerm(a.viewCols[pos]),
			R:  ir.ColTerm(vaCols[i]),
		})
	}
	a.vaCnt = vaCols[len(vaCols)-1]
	a.nq.GroupBy = append(a.nq.GroupBy, a.vaCnt)
	a.note("steps S4'/S5': auxiliary view %s joined to recover multiplicities (Cnt_Va)", name)
	return nil
}
