package oracle

import (
	"fmt"
	"slices"
	"strings"

	"aggview/internal/engine"
	"aggview/internal/sqlparser"
	"aggview/internal/value"
)

// This file is a row-at-a-time evaluator for the scalar fragment of the
// expression grammar — column references, aggregates, literals,
// arithmetic, comparisons and AND — and, on it, the reference for what
// DELETE ... WHERE and UPDATE ... SET mean (ReferenceChange). The product
// evaluates both in the engine's vector kernels
// (engine.Evaluator.ChangeContext), and the kernel == reference tests
// (match_test.go) hold those to this; the query reference (reference.go)
// evaluates its WHERE, HAVING and SELECT expressions here too.

// Leaf resolves the leaves of an expression the evaluator does not
// compute itself: a *sqlparser.ColumnRef, by whatever scope the caller
// binds names in (qualifiers included), and a *sqlparser.AggExpr, which
// only a group's scope can answer.
type Leaf func(e sqlparser.Expr) (value.Value, error)

// EvalExpr evaluates a scalar expression, its column references and
// aggregates resolved by leaf.
func EvalExpr(e sqlparser.Expr, leaf Leaf) (value.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Lit:
		return x.Val, nil
	case *sqlparser.ColumnRef, *sqlparser.AggExpr:
		return leaf(e)
	case *sqlparser.BinExpr:
		if x.Op == sqlparser.OpAnd || sqlparser.IsComparison(x.Op) {
			return value.Value{}, fmt.Errorf("sqlparser: condition %s where a scalar is required", x.SQL())
		}
		l, err := EvalExpr(x.L, leaf)
		if err != nil {
			return value.Value{}, err
		}
		r, err := EvalExpr(x.R, leaf)
		if err != nil {
			return value.Value{}, err
		}
		switch x.Op {
		case sqlparser.OpAdd:
			return value.Add(l, r)
		case sqlparser.OpSub:
			return value.Sub(l, r)
		case sqlparser.OpMul:
			return value.Mul(l, r)
		case sqlparser.OpDiv:
			return value.Div(l, r)
		}
		return value.Value{}, fmt.Errorf("sqlparser: unsupported operator %q", x.Op)
	default:
		return value.Value{}, fmt.Errorf("sqlparser: unsupported expression %T", e)
	}
}

// EvalCond evaluates a condition — an AND-tree of comparisons — its
// leaves resolved by leaf. A nil condition is true (the unconditional
// WHERE).
func EvalCond(e sqlparser.Expr, leaf Leaf) (bool, error) {
	if e == nil {
		return true, nil
	}
	b, ok := e.(*sqlparser.BinExpr)
	if !ok {
		return false, fmt.Errorf("sqlparser: %s is not a condition", e.SQL())
	}
	if b.Op == sqlparser.OpAnd {
		l, err := EvalCond(b.L, leaf)
		if err != nil || !l {
			return false, err
		}
		return EvalCond(b.R, leaf)
	}
	if !sqlparser.IsComparison(b.Op) {
		return false, fmt.Errorf("sqlparser: %s is not a condition", e.SQL())
	}
	l, err := EvalExpr(b.L, leaf)
	if err != nil {
		return false, err
	}
	r, err := EvalExpr(b.R, leaf)
	if err != nil {
		return false, err
	}
	// Incomparable kinds compare false (and != true), matching the
	// engine's compare — a WHERE clause must select the same rows here
	// as it does in a query.
	if !value.Comparable(l, r) {
		return b.Op == sqlparser.OpNeq, nil
	}
	c := value.Compare(l, r)
	switch b.Op {
	case sqlparser.OpEq:
		return c == 0, nil
	case sqlparser.OpNeq:
		return c != 0, nil
	case sqlparser.OpLt:
		return c < 0, nil
	case sqlparser.OpLeq:
		return c <= 0, nil
	case sqlparser.OpGt:
		return c > 0, nil
	case sqlparser.OpGeq:
		return c >= 0, nil
	}
	return false, fmt.Errorf("sqlparser: unsupported comparison %q", b.Op)
}

// tableRow is the scope of a DELETE or UPDATE: the columns of one row of
// the named table, matched case-insensitively and qualified, if at all,
// by the table's name. Aggregates are rejected.
func tableRow(table string, cols []string, row []value.Value) Leaf {
	return func(e sqlparser.Expr) (value.Value, error) {
		c, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return value.Value{}, fmt.Errorf("sqlparser: aggregate %s not allowed in a row expression", e.SQL())
		}
		if c.Qualifier != "" && !strings.EqualFold(c.Qualifier, table) {
			return value.Value{}, fmt.Errorf("sqlparser: unknown table %q in %s", c.Qualifier, c.SQL())
		}
		for i, name := range cols {
			if strings.EqualFold(name, c.Name) {
				return row[i], nil
			}
		}
		return value.Value{}, fmt.Errorf("sqlparser: unknown column %q", c.Name)
	}
}

// isTerm reports whether e is a column or a literal: a conjunct with one
// on both sides is refined before any other (ir.RowChange).
func isTerm(e sqlparser.Expr) bool {
	_, lit := e.(*sqlparser.Lit)
	_, col := e.(*sqlparser.ColumnRef)
	return lit || col
}

// ReferenceChange is what a DELETE or UPDATE of the named table changes
// in rel, a row at a time over every row: the matched positions and, for
// an UPDATE, the replacement rows. The conjuncts run in the order the
// engine refines in — those comparing columns and constants first, then
// the others, each kind in WHERE order — and a conjunct sees a row only
// if the row passed those before it, so the reference raises exactly
// when some conjunct of the engine's sees a row it fails on. The
// assignments are evaluated once every row has matched.
func ReferenceChange(table string, rel *engine.Relation, where sqlparser.Expr, set []sqlparser.Assignment) (pos []int32, news [][]value.Value, err error) {
	var terms, rest []sqlparser.Expr
	for _, c := range sqlparser.Conjuncts(where) {
		if b, ok := c.(*sqlparser.BinExpr); ok && isTerm(b.L) && isTerm(b.R) {
			terms = append(terms, c)
		} else {
			rest = append(rest, c)
		}
	}
	conds := append(terms, rest...)
rows:
	for i, row := range rel.Tuples {
		leaf := tableRow(table, rel.Attrs, row)
		for _, c := range conds {
			hit, err := EvalCond(c, leaf)
			if err != nil {
				return nil, nil, err
			}
			if !hit {
				continue rows
			}
		}
		pos = append(pos, int32(i))
	}
	if set == nil {
		return pos, nil, nil
	}
	for _, p := range pos {
		row := rel.Tuples[p]
		next, leaf := slices.Clone(row), tableRow(table, rel.Attrs, row)
		for _, a := range set {
			at := slices.IndexFunc(rel.Attrs, func(c string) bool { return strings.EqualFold(c, a.Col) })
			if at < 0 {
				return nil, nil, fmt.Errorf("unknown column %q", a.Col)
			}
			if next[at], err = EvalExpr(a.Expr, leaf); err != nil {
				return nil, nil, err
			}
		}
		news = append(news, next)
	}
	return pos, news, nil
}
