package ir

import (
	"fmt"
	"strings"
)

// SQL renders the query as executable SQL text. Table occurrences whose
// source appears more than once (or that carry an alias) are rendered
// with range variables; column references are qualified whenever the
// bare attribute name would be ambiguous.
func (q *Query) SQL() string {
	quals := q.qualifiers()
	attrCount := map[string]int{}
	for i := range q.Columns {
		attrCount[strings.ToLower(q.Columns[i].Attr)]++
	}
	colSQL := func(id ColID) string {
		c := q.Col(id)
		if attrCount[strings.ToLower(c.Attr)] > 1 {
			return quals[c.Table] + "." + c.Attr
		}
		return c.Attr
	}

	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(q.exprSQL(it.Expr, colSQL))
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Source)
		if quals[i] != t.Source {
			b.WriteString(" " + quals[i])
		}
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(q.termSQL(p.L, colSQL) + " " + p.Op.String() + " " + q.termSQL(p.R, colSQL))
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(colSQL(g))
		}
	}
	if len(q.Having) > 0 {
		b.WriteString(" HAVING ")
		for i, h := range q.Having {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(q.exprSQL(h.L, colSQL) + " " + h.Op.String() + " " + q.exprSQL(h.R, colSQL))
		}
	}
	return b.String()
}

// qualifiers picks a rendering qualifier for each table occurrence: the
// declared alias if any, the bare source name when unique, or a
// generated t<i> range variable.
func (q *Query) qualifiers() []string {
	srcCount := map[string]int{}
	for _, t := range q.Tables {
		srcCount[strings.ToLower(t.Source)]++
	}
	used := map[string]bool{}
	quals := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		switch {
		case t.Alias != "" && !used[strings.ToLower(t.Alias)]:
			quals[i] = t.Alias
		case srcCount[strings.ToLower(t.Source)] == 1 && !used[strings.ToLower(t.Source)]:
			quals[i] = t.Source
		default:
			quals[i] = fmt.Sprintf("t%d", i)
			for used[strings.ToLower(quals[i])] {
				quals[i] += "_"
			}
		}
		used[strings.ToLower(quals[i])] = true
	}
	return quals
}

func (q *Query) termSQL(t Term, colSQL func(ColID) string) string {
	if t.IsConst {
		return t.Val.String()
	}
	return colSQL(t.Col)
}

func (q *Query) exprSQL(e Expr, colSQL func(ColID) string) string {
	switch x := e.(type) {
	case *ColRef:
		return colSQL(x.Col)
	case *Const:
		return x.Val.String()
	case *Agg:
		if x.Star {
			return x.Func.String() + "(*)"
		}
		return x.Func.String() + "(" + q.exprSQL(x.Arg, colSQL) + ")"
	case *Arith:
		l := q.exprSQL(x.L, colSQL)
		r := q.exprSQL(x.R, colSQL)
		if lb, ok := x.L.(*Arith); ok && lb.Op != x.Op {
			l = "(" + l + ")"
		}
		if _, ok := x.R.(*Arith); ok {
			r = "(" + r + ")"
		}
		return l + " " + x.Op.String() + " " + r
	default:
		return "?"
	}
}

// PredSQL renders a single WHERE predicate using the query's column
// names (for explanations and error messages).
func (q *Query) PredSQL(p Pred) string {
	name := func(id ColID) string { return q.Col(id).Name }
	return q.termSQL(p.L, name) + " " + p.Op.String() + " " + q.termSQL(p.R, name)
}

// ExprSQLByName renders an expression using the query's unique column
// names rather than qualified SQL names; used in explanations.
func (q *Query) ExprSQLByName(e Expr) string {
	return q.ExprSQLNamed(e, func(id ColID) string { return q.Col(id).Name })
}

// ExprSQLNamed renders an expression with caller-chosen column names
// (the canonical plan key names columns as a canonical table order
// would, without building the reordered query).
func (q *Query) ExprSQLNamed(e Expr, name func(ColID) string) string {
	return q.exprSQL(e, name)
}

// String renders a compact one-line description for debugging.
func (q *Query) String() string { return q.SQL() }
