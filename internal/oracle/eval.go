package oracle

import (
	"fmt"
	"strings"

	"aggview/internal/sqlparser"
	"aggview/internal/value"
)

// This file is a row-at-a-time evaluator for the scalar fragment of the
// expression grammar — column references, literals, arithmetic,
// comparisons and AND. It is the reference for what DELETE ... WHERE and
// UPDATE ... SET mean: the product evaluates both in the engine's vector
// kernels (engine.Evaluator.ChangeContext), and the script replayer and
// the kernel == reference tests (match_test.go) hold those to this.

// EvalExpr evaluates a scalar expression against a single row whose
// attribute names are cols (matched case-insensitively; qualifiers on
// column references are ignored — the mutation grammar is
// single-table). Aggregates are rejected.
func EvalExpr(e sqlparser.Expr, cols []string, row []value.Value) (value.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Lit:
		return x.Val, nil
	case *sqlparser.ColumnRef:
		for i, c := range cols {
			if strings.EqualFold(c, x.Name) {
				return row[i], nil
			}
		}
		return value.Value{}, fmt.Errorf("sqlparser: unknown column %q", x.Name)
	case *sqlparser.BinExpr:
		if x.Op == sqlparser.OpAnd || sqlparser.IsComparison(x.Op) {
			return value.Value{}, fmt.Errorf("sqlparser: condition %s where a scalar is required", x.SQL())
		}
		l, err := EvalExpr(x.L, cols, row)
		if err != nil {
			return value.Value{}, err
		}
		r, err := EvalExpr(x.R, cols, row)
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
	case *sqlparser.AggExpr:
		return value.Value{}, fmt.Errorf("sqlparser: aggregate %s not allowed in a row expression", x.SQL())
	default:
		return value.Value{}, fmt.Errorf("sqlparser: unsupported expression %T", e)
	}
}

// EvalCond evaluates a condition — an AND-tree of comparisons — against
// a single row. A nil condition is true (the unconditional WHERE).
func EvalCond(e sqlparser.Expr, cols []string, row []value.Value) (bool, error) {
	if e == nil {
		return true, nil
	}
	b, ok := e.(*sqlparser.BinExpr)
	if !ok {
		return false, fmt.Errorf("sqlparser: %s is not a condition", e.SQL())
	}
	if b.Op == sqlparser.OpAnd {
		l, err := EvalCond(b.L, cols, row)
		if err != nil || !l {
			return false, err
		}
		return EvalCond(b.R, cols, row)
	}
	if !sqlparser.IsComparison(b.Op) {
		return false, fmt.Errorf("sqlparser: %s is not a condition", e.SQL())
	}
	l, err := EvalExpr(b.L, cols, row)
	if err != nil {
		return false, err
	}
	r, err := EvalExpr(b.R, cols, row)
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
