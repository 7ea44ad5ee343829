package ir

import (
	"fmt"
	"strings"

	"aggview/internal/sqlparser"
)

// SchemaSource resolves a FROM-clause name (base table or view), in any
// letter case, to the name it was declared under and its ordered
// columns: the catalog and the view registry. Build binds every FROM
// item to the declared name, so below it names compare exactly.
type SchemaSource interface {
	Resolve(name string) (declared string, cols []string, ok bool)
}

// MultiSource tries several schema sources in order.
type MultiSource []SchemaSource

// Resolve implements SchemaSource.
func (m MultiSource) Resolve(name string) (string, []string, bool) {
	for _, s := range m {
		if declared, cols, ok := s.Resolve(name); ok {
			return declared, cols, true
		}
	}
	return "", nil, false
}

// MapSource is a SchemaSource backed by a plain map (case-insensitive);
// a key is the name its relation was declared under.
type MapSource map[string][]string

// Resolve implements SchemaSource.
func (m MapSource) Resolve(name string) (string, []string, bool) {
	for k, v := range m {
		if strings.EqualFold(k, name) {
			return k, v, true
		}
	}
	return "", nil, false
}

// builder resolves AST names against the query under construction.
type builder struct {
	q *Query
	// byAlias maps a range variable or (unambiguous) table name to a
	// table index; ambiguous names map to -1. An unqualified column is
	// resolved by scanning q's columns: a query has a few dozen, and a
	// name map would cost more to fill than the scans it saves.
	byAlias map[string]int
}

// Build converts a parsed SELECT into the canonical form, resolving
// table and column names through src. It enforces the paper's
// well-formedness rules: WHERE predicates compare columns and constants
// only; in a grouped query every bare SELECT or HAVING column must be a
// grouping column. Derived tables (FROM subqueries) are rejected here;
// use BuildMulti for multi-block queries.
func Build(sel *sqlparser.Select, src SchemaSource) (*Query, error) {
	q, anon, err := BuildMulti(sel, src)
	if err != nil {
		return nil, err
	}
	if len(anon.All()) > 0 {
		return nil, fmt.Errorf("ir: derived tables in FROM require BuildMulti")
	}
	return q, nil
}

// BuildMulti converts a parsed SELECT that may contain derived tables
// (FROM (SELECT ...) x) into canonical form. Each subquery is hoisted
// into an anonymous view definition; the returned registry holds those
// definitions, which evaluators and flatteners must be given alongside
// the query.
func BuildMulti(sel *sqlparser.Select, src SchemaSource) (*Query, *Registry, error) {
	anon := NewRegistry()
	counter := 0
	q, err := buildInto(sel, src, anon, &counter)
	return q, anon, err
}

func buildInto(sel *sqlparser.Select, src SchemaSource, anon *Registry, counter *int) (*Query, error) {
	b := &builder{q: &Query{}, byAlias: map[string]int{}}
	b.q.Distinct = sel.Distinct

	// Resolve every FROM item's attributes first, so the columns are
	// allocated once.
	sources, attrsOf, nCols := make([]string, len(sel.From)), make([][]string, len(sel.From)), 0
	for i, tr := range sel.From {
		source := tr.Table
		var attrs []string
		if tr.Subquery != nil {
			subQ, err := buildInto(tr.Subquery, MultiSource{src, anon}, anon, counter)
			if err != nil {
				return nil, err
			}
			// Number a derived table past every name src resolves, so
			// its name means no other relation.
			for taken := true; taken; _, _, taken = src.Resolve(source) {
				*counter++
				source = fmt.Sprintf("subq_%d", *counter)
			}
			v, err := NewViewDef(source, subQ)
			if err != nil {
				return nil, err
			}
			if err := anon.Add(v); err != nil {
				return nil, err
			}
			attrs = v.OutCols
		} else {
			var ok bool
			source, attrs, ok = src.Resolve(tr.Table)
			if !ok {
				return nil, fmt.Errorf("ir: unknown table or view %q", tr.Table)
			}
		}
		sources[i], attrsOf[i] = source, attrs
		nCols += len(attrs)
	}
	b.q.Columns = make([]Column, 0, nCols)
	b.q.Tables = make([]TableInstance, 0, len(sel.From))
	for i, tr := range sel.From {
		source := sources[i]
		idx := b.q.AddTable(source, tr.Alias, attrsOf[i])
		name := tr.Alias
		if name == "" {
			name = source
		}
		b.register(name, idx)
		if tr.Alias != "" && tr.Subquery == nil {
			// A table referenced through an alias may still be qualified
			// by its table name if that is unambiguous.
			b.register(tr.Table, idx)
		}
	}

	for _, it := range sel.Items {
		e, err := b.expr(it.Expr, false)
		if err != nil {
			return nil, err
		}
		b.q.Select = append(b.q.Select, SelectItem{Expr: e, Alias: it.Alias})
	}

	for _, c := range sqlparser.Conjuncts(sel.Where) {
		p, err := b.wherePred(c)
		if err != nil {
			return nil, err
		}
		b.q.Where = append(b.q.Where, p)
	}

	seenGroup := map[ColID]bool{}
	for _, g := range sel.GroupBy {
		id, err := b.column(g)
		if err != nil {
			return nil, err
		}
		// Repeating a grouping column is at best redundant and usually a
		// typo'd query; internally-constructed queries (where rewrite
		// column mappings can legitimately merge GroupBy entries) do not
		// pass through this builder.
		if seenGroup[id] {
			return nil, &DuplicateGroupByError{Col: b.q.Col(id).Name}
		}
		seenGroup[id] = true
		b.q.GroupBy = append(b.q.GroupBy, id)
	}

	for _, c := range sqlparser.Conjuncts(sel.Having) {
		cmp, ok := c.(*sqlparser.BinExpr)
		if !ok || !sqlparser.IsComparison(cmp.Op) {
			return nil, fmt.Errorf("ir: HAVING conjunct %s is not a comparison", c.SQL())
		}
		l, err := b.expr(cmp.L, true)
		if err != nil {
			return nil, err
		}
		r, err := b.expr(cmp.R, true)
		if err != nil {
			return nil, err
		}
		b.q.Having = append(b.q.Having, HPred{Op: CompareOp(cmp.Op), L: l, R: r})
	}

	if err := validate(b.q); err != nil {
		return nil, err
	}
	return b.q, nil
}

func (b *builder) register(name string, idx int) {
	key := strings.ToLower(name)
	if prev, ok := b.byAlias[key]; ok && prev != idx {
		b.byAlias[key] = -1 // ambiguous
	} else {
		b.byAlias[key] = idx
	}
}

// column resolves a column reference to a ColID.
func (b *builder) column(c *sqlparser.ColumnRef) (ColID, error) {
	if c.Qualifier != "" {
		idx, ok := b.byAlias[strings.ToLower(c.Qualifier)]
		if !ok {
			return 0, fmt.Errorf("ir: unknown table or alias %q in %s", c.Qualifier, c.SQL())
		}
		if idx < 0 {
			return 0, fmt.Errorf("ir: ambiguous qualifier %q in %s", c.Qualifier, c.SQL())
		}
		for _, id := range b.q.Tables[idx].Cols {
			if strings.EqualFold(b.q.Col(id).Attr, c.Name) {
				return id, nil
			}
		}
		return 0, fmt.Errorf("ir: table %q has no column %q", c.Qualifier, c.Name)
	}
	id := ColID(-1)
	for i := range b.q.Columns {
		if !strings.EqualFold(b.q.Columns[i].Attr, c.Name) {
			continue
		}
		if id >= 0 {
			return 0, fmt.Errorf("ir: ambiguous column %q; qualify it with a table name or alias", c.Name)
		}
		id = ColID(i)
	}
	if id < 0 {
		return 0, fmt.Errorf("ir: unknown column %q", c.Name)
	}
	return id, nil
}

// expr converts an AST expression. Aggregates are allowed only when
// inHaving is true or the expression is a SELECT item (callers pass
// false for SELECT; aggregates are still permitted there — the flag only
// forbids nested aggregates).
func (b *builder) expr(e sqlparser.Expr, _ bool) (Expr, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		id, err := b.column(x)
		if err != nil {
			return nil, err
		}
		return &ColRef{Col: id}, nil
	case *sqlparser.Lit:
		return &Const{Val: x.Val}, nil
	case *sqlparser.AggExpr:
		fn, err := convAgg(x.Func)
		if err != nil {
			return nil, err
		}
		if x.Star {
			// COUNT(*): with no NULLs in the data model, counting rows
			// equals counting any column; normalize to COUNT over the
			// first column in scope so the rewriter sees a plain column.
			if len(b.q.Columns) == 0 {
				return nil, fmt.Errorf("ir: COUNT(*) with empty FROM scope")
			}
			return &Agg{Func: fn, Arg: &ColRef{Col: 0}}, nil
		}
		arg, err := b.expr(x.Arg, false)
		if err != nil {
			return nil, err
		}
		if ExprHasAgg(arg) {
			return nil, fmt.Errorf("ir: nested aggregate in %s", e.SQL())
		}
		return &Agg{Func: fn, Arg: arg}, nil
	case *sqlparser.BinExpr:
		var op ArithOp
		switch x.Op {
		case sqlparser.OpAdd:
			op = ArithAdd
		case sqlparser.OpSub:
			op = ArithSub
		case sqlparser.OpMul:
			op = ArithMul
		case sqlparser.OpDiv:
			op = ArithDiv
		default:
			return nil, fmt.Errorf("ir: operator %s not valid in a scalar expression", x.Op)
		}
		l, err := b.expr(x.L, false)
		if err != nil {
			return nil, err
		}
		r, err := b.expr(x.R, false)
		if err != nil {
			return nil, err
		}
		return &Arith{Op: op, L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("ir: unsupported expression %T", e)
	}
}

// wherePred converts one WHERE conjunct; both sides must be columns or
// constants (the paper's predicate language).
func (b *builder) wherePred(e sqlparser.Expr) (Pred, error) {
	cmp, ok := e.(*sqlparser.BinExpr)
	if !ok || !sqlparser.IsComparison(cmp.Op) {
		return Pred{}, fmt.Errorf("ir: WHERE conjunct %s is not a comparison", e.SQL())
	}
	l, err := b.whereTerm(cmp.L)
	if err != nil {
		return Pred{}, err
	}
	r, err := b.whereTerm(cmp.R)
	if err != nil {
		return Pred{}, err
	}
	return Pred{Op: CompareOp(cmp.Op), L: l, R: r}, nil
}

func (b *builder) whereTerm(e sqlparser.Expr) (Term, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		id, err := b.column(x)
		if err != nil {
			return Term{}, err
		}
		return ColTerm(id), nil
	case *sqlparser.Lit:
		return ConstTerm(x.Val), nil
	default:
		return Term{}, fmt.Errorf("ir: WHERE terms must be columns or constants, found %s", e.SQL())
	}
}

// RowChange is the row expressions of a DELETE or UPDATE, resolved
// against the one table the statement names: column i of the table is
// ColID i. The WHERE conjuncts come apart by shape, each list in WHERE
// order: Where holds the conjuncts of the paper's predicate language (a
// column or a constant on either side), which a scan prunes chunks by
// and refines first; Rest holds the others (arithmetic on a side). An
// UPDATE assigns Set[i] to column SetCols[i], every expression reading
// the row's old values.
type RowChange struct {
	Where   []Pred
	Rest    []HPred
	SetCols []ColID
	Set     []Expr
}

// BuildRowChange lowers a DELETE's or UPDATE's condition (nil: every
// row) and assignments (none for a DELETE) over a table of the given
// attributes. Names resolve as in a single-table SELECT, so a column the
// table lacks — or an aggregate, which a row expression cannot hold — is
// an error whatever the table's rows are.
func BuildRowChange(table string, attrs []string, where sqlparser.Expr, set []sqlparser.Assignment) (*RowChange, error) {
	b := &builder{q: &Query{}, byAlias: map[string]int{}}
	b.register(table, b.q.AddTable(table, "", attrs))
	isTerm := func(e sqlparser.Expr) bool {
		_, lit := e.(*sqlparser.Lit)
		_, col := e.(*sqlparser.ColumnRef)
		return lit || col
	}
	rc := &RowChange{}
	for _, c := range sqlparser.Conjuncts(where) {
		cmp, ok := c.(*sqlparser.BinExpr)
		if !ok || !sqlparser.IsComparison(cmp.Op) {
			return nil, fmt.Errorf("ir: WHERE conjunct %s is not a comparison", c.SQL())
		}
		if isTerm(cmp.L) && isTerm(cmp.R) {
			p, err := b.wherePred(c)
			if err != nil {
				return nil, err
			}
			rc.Where = append(rc.Where, p)
			continue
		}
		l, err := b.rowExpr(cmp.L)
		if err != nil {
			return nil, err
		}
		r, err := b.rowExpr(cmp.R)
		if err != nil {
			return nil, err
		}
		rc.Rest = append(rc.Rest, HPred{Op: CompareOp(cmp.Op), L: l, R: r})
	}
	for _, a := range set {
		col, err := b.column(&sqlparser.ColumnRef{Name: a.Col})
		if err != nil {
			return nil, err
		}
		e, err := b.rowExpr(a.Expr)
		if err != nil {
			return nil, err
		}
		rc.SetCols, rc.Set = append(rc.SetCols, col), append(rc.Set, e)
	}
	return rc, nil
}

// rowExpr converts an expression evaluated once per row: no aggregates.
func (b *builder) rowExpr(e sqlparser.Expr) (Expr, error) {
	out, err := b.expr(e, false)
	if err == nil && ExprHasAgg(out) {
		err = fmt.Errorf("ir: aggregate in row expression %s", e.SQL())
	}
	return out, err
}

// CompareOp maps one of the six comparison operators of the SQL grammar
// (sqlparser.IsComparison) onto its predicate operator; it panics on
// any other operator.
func CompareOp(op sqlparser.BinOp) Op {
	switch op {
	case sqlparser.OpEq:
		return OpEq
	case sqlparser.OpNeq:
		return OpNeq
	case sqlparser.OpLt:
		return OpLt
	case sqlparser.OpLeq:
		return OpLeq
	case sqlparser.OpGt:
		return OpGt
	case sqlparser.OpGeq:
		return OpGeq
	default:
		panic("ir: not a comparison: " + string(op))
	}
}

func convAgg(f sqlparser.AggFunc) (AggFunc, error) {
	switch f {
	case sqlparser.AggMin:
		return AggMin, nil
	case sqlparser.AggMax:
		return AggMax, nil
	case sqlparser.AggSum:
		return AggSum, nil
	case sqlparser.AggCount:
		return AggCount, nil
	case sqlparser.AggAvg:
		return AggAvg, nil
	default:
		return 0, fmt.Errorf("ir: unknown aggregate %q", f)
	}
}

// validate enforces SQL's grouping rules on the built query.
func validate(q *Query) error {
	grouped := q.IsAggregationQuery()
	if !grouped {
		return nil
	}
	inGroup := map[ColID]bool{}
	for _, g := range q.GroupBy {
		inGroup[g] = true
	}
	check := func(e Expr, clause string) error {
		var err error
		var walk func(e Expr, inAgg bool)
		walk = func(e Expr, inAgg bool) {
			switch x := e.(type) {
			case *ColRef:
				if !inAgg && !inGroup[x.Col] {
					err = fmt.Errorf("ir: column %s appears in %s but not in GROUP BY",
						q.Col(x.Col).Name, clause)
				}
			case *Agg:
				if x.Arg != nil {
					walk(x.Arg, true)
				}
			case *Arith:
				walk(x.L, inAgg)
				walk(x.R, inAgg)
			}
		}
		walk(e, false)
		return err
	}
	for _, it := range q.Select {
		if err := check(it.Expr, "SELECT"); err != nil {
			return err
		}
	}
	for _, h := range q.Having {
		if err := check(h.L, "HAVING"); err != nil {
			return err
		}
		if err := check(h.R, "HAVING"); err != nil {
			return err
		}
	}
	return nil
}

// MustBuild parses and builds a query, panicking on error; a test and
// example helper.
func MustBuild(sql string, src SchemaSource) *Query {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		panic(err)
	}
	q, err := Build(sel, src)
	if err != nil {
		panic(err)
	}
	return q
}

// DuplicateGroupByError refuses a GROUP BY list that names a column
// twice.
type DuplicateGroupByError struct {
	Col string // the column, as the query names it
}

func (e *DuplicateGroupByError) Error() string {
	return "ir: duplicate GROUP BY column " + e.Col
}
