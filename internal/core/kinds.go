package core

import (
	"aggview/internal/ir"
	"aggview/internal/value"
)

// Kinds reports the kinds a store holds: Kind returns the kind of column
// pos of the relation stored under rel, and false when no relation of
// that name is stored. engine.DB is one.
type Kinds interface {
	Kind(rel string, pos int) (value.Kind, bool)
}

// floatCol reports whether column pos of relation rel holds floats: the
// store's kind when it holds rel, what the definition computes there for
// a view it does not hold. Without a store no column is float.
func (rw *Rewriter) floatCol(rel string, pos int) bool {
	if rw.Kinds == nil {
		return false
	}
	if k, ok := rw.Kinds.Kind(rel, pos); ok {
		return k == value.KindFloat
	}
	if v, ok := rw.Views.Get(rel); ok && pos < len(v.Def.Select) {
		return rw.floatExpr(v.Def, v.Def.Select[pos].Expr)
	}
	return false
}

// floatExpr reports whether e, an expression of q, evaluates to floats:
// an AVG or a division always does; a float constant or column makes any
// other expression over it float. Without a store nothing is float.
func (rw *Rewriter) floatExpr(q *ir.Query, e ir.Expr) bool {
	if rw.Kinds == nil {
		return false
	}
	switch x := e.(type) {
	case *ir.ColRef:
		c := q.Col(x.Col)
		return rw.floatCol(q.Tables[c.Table].Source, c.Pos)
	case *ir.Const:
		return x.Val.Kind() == value.KindFloat
	case *ir.Arith:
		return x.Op == ir.ArithDiv || rw.floatExpr(q, x.L) || rw.floatExpr(q, x.R)
	case *ir.Agg:
		switch {
		case x.Func == ir.AggAvg:
			return true
		case x.Func == ir.AggCount || x.Star:
			return false
		}
		return rw.floatExpr(q, x.Arg)
	}
	return false
}
