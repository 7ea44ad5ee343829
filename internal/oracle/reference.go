package oracle

// The reference: the one definition of a query's answer that the checker
// holds the engine to (Definition 2.2's multiset semantics, per group as
// Cohen & Nutt make precise). It is deliberately naive — a nested-loop
// cross product of the FROM list, WHERE, HAVING and SELECT through
// eval.go's row evaluator, groups found by a linear scan under
// value.KeyEqual, SUM and AVG folded exactly in math/big — and shares no
// code with the engine: of internal/engine it uses only Relation, and it
// binds every name itself, never through ir.Build. It reads the oracle's
// own model of the tables, kept by the DELETE/UPDATE reference.

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"

	"aggview/internal/engine"
	"aggview/internal/sqlparser"
	"aggview/internal/value"
)

// refRows bounds the FROM row product of one evaluation: the generators'
// largest is about 2073 × 24, so none should reach it.
const refRows = 1 << 20

// errRefSkipped is the error of an evaluation whose FROM row product
// exceeds refRows; the checker counts it and falls back on the engine's
// serial answer.
var errRefSkipped = errors.New("oracle: reference skipped: FROM row product past its bound")

// model is the oracle's own picture of a case's database: each table's
// rows as the case declares them, with every mutation step the system
// applied applied again by ReferenceChange, under the store's one kind
// rule (widen); and the view definitions, evaluated on demand.
type model struct {
	tables []*TableSpec
	views  []*ViewSpec
}

func newModel(c *Case) *model {
	m := &model{tables: c.Clone().Tables, views: c.Views}
	for _, t := range m.tables {
		widen(t.Rows)
	}
	return m
}

// widen applies the store's kind rule to a table's rows: a column that
// holds a float holds only floats.
func widen(rows [][]value.Value) {
	if len(rows) == 0 {
		return
	}
	for c := range rows[0] {
		if !slices.ContainsFunc(rows, func(r []value.Value) bool { return r[c].Kind() == value.KindFloat }) {
			continue
		}
		for _, r := range rows {
			if r[c].Kind() == value.KindInt {
				r[c] = value.Float(float64(r[c].AsInt()))
			}
		}
	}
}

// table returns the model's table named name, in any letter case.
func (m *model) table(name string) *TableSpec {
	for _, t := range m.tables {
		if strings.EqualFold(t.Name, name) {
			return t
		}
	}
	return nil
}

// apply applies a mutation step the system applied: an INSERT's rows
// appended, a DELETE's or UPDATE's change as ReferenceChange computes it.
func (m *model) apply(st *Step) error {
	t := m.table(st.Table)
	if t == nil {
		return fmt.Errorf("oracle: no table %s", st.Table)
	}
	if st.Kind == StepInsert {
		t.Rows = append(t.Rows, cloneRows(st.Rows)...)
		widen(t.Rows)
		return nil
	}
	stmts, err := sqlparser.ParseScript(st.SQL())
	if err != nil {
		return err
	}
	var where sqlparser.Expr
	var set []sqlparser.Assignment
	switch x := stmts[0].(type) {
	case *sqlparser.Delete:
		where = x.Where
	case *sqlparser.Update:
		where, set = x.Where, x.Set
	}
	pos, news, err := ReferenceChange(t.Name, &engine.Relation{Attrs: t.Cols, Tuples: t.Rows}, where, set)
	if err != nil {
		return err
	}
	if st.Kind == StepDelete {
		kept := t.Rows[:0:0]
		for i, r := range t.Rows {
			if _, hit := slices.BinarySearch(pos, int32(i)); !hit {
				kept = append(kept, r)
			}
		}
		t.Rows = kept
		return nil
	}
	for i, p := range pos {
		t.Rows[p] = news[i]
	}
	widen(t.Rows)
	return nil
}

// query evaluates a SELECT's text.
func (m *model) query(sql string) (*engine.Relation, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return m.eval(sel)
}

// view evaluates a view's definition, its columns named as the view
// declares them.
func (m *model) view(v *ViewSpec) (*engine.Relation, error) {
	rel, err := m.query(v.Def.SQL())
	if err == nil && len(v.Cols) > 0 {
		rel.Attrs = v.Cols
	}
	return rel, err
}

// relation reads a FROM item's named relation: a table's rows, or a
// view's definition evaluated.
func (m *model) relation(name string) (*engine.Relation, error) {
	if t := m.table(name); t != nil {
		return &engine.Relation{Attrs: t.Cols, Tuples: t.Rows}, nil
	}
	for _, v := range m.views {
		if strings.EqualFold(v.Name, name) {
			return m.view(v)
		}
	}
	return nil, fmt.Errorf("oracle: unknown table or view %q", name)
}

// scope binds the column names of a SELECT's FROM list to positions in
// its joined rows.
type scope struct {
	items []fromItem
	attrs []string                     // every item's columns, in FROM order: a joined row's layout
	at    map[*sqlparser.ColumnRef]int // the references bound so far
}

// fromItem is one FROM item: the names that qualify its columns, and
// where they start in a joined row.
type fromItem struct {
	names []string
	attrs []string
	off   int
}

// col binds a column reference as SQL scopes it: a qualifier names one
// FROM item, by its range variable or, unless another item shares it, its
// table's name; the item must have the column. An unqualified name must
// be the column of exactly one item. Names match in any letter case.
func (s *scope) col(c *sqlparser.ColumnRef) (int, error) {
	if at, ok := s.at[c]; ok {
		return at, nil
	}
	var hits []int
	items := 0
	for _, it := range s.items {
		if c.Qualifier != "" {
			if !slices.ContainsFunc(it.names, func(n string) bool { return strings.EqualFold(n, c.Qualifier) }) {
				continue
			}
			items++
		}
		for j, a := range it.attrs {
			if strings.EqualFold(a, c.Name) {
				hits = append(hits, it.off+j)
			}
		}
	}
	switch {
	case items > 1:
		return 0, fmt.Errorf("oracle: ambiguous qualifier %q in %s", c.Qualifier, c.SQL())
	case len(hits) == 0:
		return 0, fmt.Errorf("oracle: unknown column %s", c.SQL())
	case len(hits) > 1:
		return 0, fmt.Errorf("oracle: ambiguous column %s", c.SQL())
	}
	s.at[c] = hits[0]
	return hits[0], nil
}

// row resolves the leaves of a row expression over one joined row.
func (s *scope) row(r []value.Value) Leaf {
	return func(e sqlparser.Expr) (value.Value, error) {
		c, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return value.Value{}, fmt.Errorf("oracle: aggregate %s outside a group", e.SQL())
		}
		at, err := s.col(c)
		if err != nil {
			return value.Value{}, err
		}
		return r[at], nil
	}
}

// eval evaluates a SELECT over the model.
func (m *model) eval(sel *sqlparser.Select) (*engine.Relation, error) {
	s := &scope{at: map[*sqlparser.ColumnRef]int{}}
	var rels []*engine.Relation
	product := 1
	for _, tr := range sel.From {
		var rel *engine.Relation
		var err error
		names := []string{tr.Alias, tr.Table}
		switch {
		case tr.Subquery != nil:
			rel, err = m.eval(tr.Subquery)
			names = names[:1]
		case tr.Alias == "":
			rel, err = m.relation(tr.Table)
			names = names[1:]
		default:
			rel, err = m.relation(tr.Table)
		}
		if err != nil {
			return nil, err
		}
		s.items = append(s.items, fromItem{names: names, attrs: rel.Attrs, off: len(s.attrs)})
		s.attrs = append(s.attrs, rel.Attrs...)
		rels = append(rels, rel)
		product = min(product*len(rel.Tuples), refRows+1)
	}
	if product > refRows {
		return nil, errRefSkipped
	}
	out := &engine.Relation{}
	used := map[string]int{}
	for _, it := range sel.Items {
		name, err := s.name(it)
		if err != nil {
			return nil, err
		}
		k := strings.ToLower(name) // a repeated name takes its ordinal, as in ir.OutputNames
		if used[k]++; used[k] > 1 {
			name = fmt.Sprintf("%s_%d", name, used[k])
		}
		out.Attrs = append(out.Attrs, name)
	}

	// The nested loop: every combination of one row per FROM item, kept
	// when WHERE holds of it.
	var rows [][]value.Value
	row := make([]value.Value, 0, len(s.attrs))
	var join func(i int) error
	join = func(i int) error {
		if i == len(rels) {
			hit, err := EvalCond(sel.Where, s.row(row))
			if hit {
				rows = append(rows, slices.Clone(row))
			}
			return err
		}
		for _, t := range rels[i].Tuples {
			row = append(row[:s.items[i].off], t...)
			if err := join(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := join(0); err != nil {
		return nil, err
	}

	// Groups, by a linear scan: a row joins the first group whose key
	// cells it equals, or opens a new one. Without GROUP BY every row of
	// an aggregation is one group, and no row is none; a query that does
	// not aggregate makes each row its own.
	var aggs []*sqlparser.AggExpr
	for _, it := range sel.Items {
		aggs = aggsOf(it.Expr, aggs)
	}
	aggs = aggsOf(sel.Having, aggs)
	grouped := len(sel.GroupBy) > 0 || sel.Having != nil || len(aggs) > 0
	var keys []int
	for _, g := range sel.GroupBy {
		at, err := s.col(g)
		if err != nil {
			return nil, err
		}
		keys = append(keys, at)
	}
	var groups [][][]value.Value
	for _, r := range rows {
		g := -1
		if grouped {
			g = slices.IndexFunc(groups, func(g [][]value.Value) bool {
				return !slices.ContainsFunc(keys, func(k int) bool { return !value.KeyEqual(g[0][k], r[k]) })
			})
		}
		if g < 0 {
			groups = append(groups, nil)
			g = len(groups) - 1
		}
		groups[g] = append(groups[g], r)
	}
	for _, g := range groups {
		vals := map[*sqlparser.AggExpr]value.Value{}
		for _, a := range aggs {
			v, err := s.fold(a, g)
			if err != nil {
				return nil, err
			}
			vals[a] = v
		}
		leaf := func(e sqlparser.Expr) (value.Value, error) {
			if a, ok := e.(*sqlparser.AggExpr); ok {
				return vals[a], nil
			}
			return s.row(g[0])(e) // a grouped column: every row of the group holds it
		}
		if hit, err := EvalCond(sel.Having, leaf); err != nil || !hit {
			if err != nil {
				return nil, err
			}
			continue
		}
		t := make([]value.Value, len(sel.Items))
		for i, it := range sel.Items {
			v, err := EvalExpr(it.Expr, leaf)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		out.Tuples = append(out.Tuples, t)
	}
	if sel.Distinct {
		out = dedup(out)
	}
	return out, nil
}

// name is the column a SELECT item outputs, by ir.OutputNames' rule
// before repeats are numbered: its alias, a column's declared name, an
// aggregate's function and argument column ("sum_X", "count_all",
// "avg_expr"), "const" or "expr".
func (s *scope) name(it sqlparser.SelectItem) (string, error) {
	if it.Alias != "" {
		return it.Alias, nil
	}
	switch x := it.Expr.(type) {
	case *sqlparser.ColumnRef:
		at, err := s.col(x)
		return s.attrs[at], err
	case *sqlparser.AggExpr:
		fn := strings.ToLower(string(x.Func))
		c, ok := x.Arg.(*sqlparser.ColumnRef)
		switch {
		case x.Star:
			return fn + "_all", nil
		case !ok:
			return fn + "_expr", nil
		}
		at, err := s.col(c)
		return fn + "_" + s.attrs[at], err
	case *sqlparser.Lit:
		return "const", nil
	}
	return "expr", nil
}

// aggsOf appends the aggregates of e to out.
func aggsOf(e sqlparser.Expr, out []*sqlparser.AggExpr) []*sqlparser.AggExpr {
	switch x := e.(type) {
	case *sqlparser.AggExpr:
		return append(out, x)
	case *sqlparser.BinExpr:
		return aggsOf(x.R, aggsOf(x.L, out))
	}
	return out
}

// fold computes an aggregate over a group's rows: COUNT the rows, MIN and
// MAX the least and greatest under value.Compare (a NaN above +Inf) as
// its canonical member, SUM the exact total rounded once (exactSum), and
// AVG that total over the count.
func (s *scope) fold(a *sqlparser.AggExpr, rows [][]value.Value) (value.Value, error) {
	if a.Star {
		return value.Int(int64(len(rows))), nil
	}
	vals := make([]value.Value, len(rows))
	for i, r := range rows {
		v, err := EvalExpr(a.Arg, s.row(r))
		if err != nil {
			return value.Value{}, err
		}
		vals[i] = v
	}
	switch a.Func {
	case sqlparser.AggCount:
		return value.Int(int64(len(vals))), nil
	case sqlparser.AggMin:
		return slices.MinFunc(vals, value.Compare).Canon(), nil
	case sqlparser.AggMax:
		return slices.MaxFunc(vals, value.Compare).Canon(), nil
	}
	total, err := exactSum(a.Func, vals)
	if err != nil || a.Func == sqlparser.AggSum {
		return total, err
	}
	return value.Float(value.CanonFloat(total.AsFloat() / float64(len(vals)))), nil
}

// exactSum is the exact total of numeric values, rounded once: an int
// when every value is one (a *value.OverflowError past int64); otherwise
// NaN when a NaN or both infinities were added, the infinity when one
// was, and else the float64 nearest the finite values' exact sum, ties to
// even, 0 for a zero sum.
func exactSum(fn sqlparser.AggFunc, vals []value.Value) (value.Value, error) {
	total, floats := new(big.Rat), false
	var nan, posInf, negInf bool
	for _, v := range vals {
		f := v.AsFloat()
		switch {
		case v.Kind() == value.KindInt:
			total.Add(total, new(big.Rat).SetInt64(v.AsInt()))
		case v.Kind() != value.KindFloat:
			return value.Value{}, fmt.Errorf("oracle: %s over non-numeric value %s", fn, v)
		case math.IsNaN(f):
			nan = true
		case math.IsInf(f, 1):
			posInf = true
		case math.IsInf(f, -1):
			negInf = true
		default:
			total.Add(total, new(big.Rat).SetFloat64(f))
		}
		floats = floats || v.Kind() == value.KindFloat
	}
	switch {
	case !floats && !total.Num().IsInt64():
		return value.Value{}, &value.OverflowError{Op: '+'}
	case !floats:
		return value.Int(total.Num().Int64()), nil
	case nan || posInf && negInf:
		return value.Float(math.NaN()), nil
	case posInf:
		return value.Float(math.Inf(1)), nil
	case negInf:
		return value.Float(math.Inf(-1)), nil
	}
	f, _ := total.Float64()
	return value.Float(f), nil
}
