// Package ir defines the canonical internal representation of
// single-block SQL queries used throughout the rewriter, following
// Section 2 of the paper: every table occurrence in the FROM clause gets
// its own range of unique column identifiers (the paper's R(A1,...,An)
// renaming), so that conditions, select lists and grouping lists can
// refer to columns unambiguously even when a table appears several times.
package ir

import (
	"fmt"
	"slices"
	"strconv"

	"aggview/internal/value"
)

// ColID identifies one column of one table occurrence within one query.
// IDs are dense: a query with n columns uses IDs 0..n-1.
type ColID int32

// Column carries the metadata of a ColID.
type Column struct {
	ID    ColID
	Table int    // index into Query.Tables
	Pos   int    // position within the table occurrence's schema
	Name  string // unique name within the query (paper-style A1, B1, ...)
	Attr  string // attribute name in the base table or view
}

// TableInstance is one occurrence of a base table or view in FROM.
type TableInstance struct {
	Source string  // base table or view name
	Alias  string  // range variable from the original SQL, may be empty
	Cols   []ColID // one entry per column of the source, in schema order
}

// Op is a comparison operator.
type Op uint8

// The six comparison operators of the paper's predicate language.
const (
	OpEq Op = iota
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
)

// String renders the operator in SQL syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "<>"
	case OpLt:
		return "<"
	case OpLeq:
		return "<="
	case OpGt:
		return ">"
	case OpGeq:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Flip returns the operator with its operands swapped: a op b iff b op' a.
func (o Op) Flip() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLeq:
		return OpGeq
	case OpGt:
		return OpLt
	case OpGeq:
		return OpLeq
	default:
		return o
	}
}

// Negate returns the complement operator: NOT (a op b) iff a op' b.
func (o Op) Negate() Op {
	switch o {
	case OpEq:
		return OpNeq
	case OpNeq:
		return OpEq
	case OpLt:
		return OpGeq
	case OpLeq:
		return OpGt
	case OpGt:
		return OpLeq
	case OpGeq:
		return OpLt
	default:
		return o
	}
}

// Term is one side of a WHERE predicate: a column or a constant.
type Term struct {
	IsConst bool
	Col     ColID
	Val     value.Value
}

// ColTerm builds a column term.
func ColTerm(c ColID) Term { return Term{Col: c} }

// ConstTerm builds a constant term.
func ConstTerm(v value.Value) Term { return Term{IsConst: true, Val: v} }

// Pred is one conjunct of the WHERE clause: Term op Term.
type Pred struct {
	Op   Op
	L, R Term
}

// AggFunc is an aggregate function.
type AggFunc uint8

// The paper's aggregate functions.
const (
	AggMin AggFunc = iota
	AggMax
	AggSum
	AggCount
	AggAvg
)

// String renders the aggregate function name.
func (f AggFunc) String() string {
	switch f {
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// ArithOp is an arithmetic operator in a scalar expression.
type ArithOp uint8

// Arithmetic operators (the paper's "+ and ×" extension, plus - and /
// which the rewriter needs for AVG reconstruction).
const (
	ArithAdd ArithOp = iota
	ArithSub
	ArithMul
	ArithDiv
)

// String renders the arithmetic operator.
func (o ArithOp) String() string {
	switch o {
	case ArithAdd:
		return "+"
	case ArithSub:
		return "-"
	case ArithMul:
		return "*"
	case ArithDiv:
		return "/"
	default:
		return fmt.Sprintf("ArithOp(%d)", uint8(o))
	}
}

// Expr is a scalar expression appearing in SELECT items or HAVING
// predicates. Input queries use only the paper's restricted forms
// (columns, constants, AGG(column)); rewritten queries may additionally
// contain arithmetic and aggregates over products (e.g. SUM(N * B)).
type Expr interface {
	expr()
}

// ColRef is a column reference expression.
type ColRef struct{ Col ColID }

// Const is a literal constant expression.
type Const struct{ Val value.Value }

// Agg applies an aggregate function to a scalar argument. Arg is nil
// exactly when Star is true (COUNT(*)).
type Agg struct {
	Func AggFunc
	Arg  Expr
	Star bool
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (*ColRef) expr() {}
func (*Const) expr()  {}
func (*Agg) expr()    {}
func (*Arith) expr()  {}

// SelectItem is one output column of a query.
type SelectItem struct {
	Expr  Expr
	Alias string // output column name hint; may be empty
}

// HPred is one conjunct of the HAVING clause; its sides may contain
// aggregate expressions.
type HPred struct {
	Op   Op
	L, R Expr
}

// Query is the canonical form of a single-block query.
type Query struct {
	Distinct bool
	Select   []SelectItem
	Tables   []TableInstance
	Where    []Pred
	GroupBy  []ColID
	Having   []HPred

	// Columns is indexed by ColID.
	Columns []Column
}

// Col returns the metadata for a column ID.
func (q *Query) Col(id ColID) *Column { return &q.Columns[id] }

// NumCols returns the number of columns in scope (|Cols(Q)|).
func (q *Query) NumCols() int { return len(q.Columns) }

// AddTable appends a table occurrence with the given source name, alias
// and attribute names, allocating fresh column IDs; it returns the new
// table's index.
func (q *Query) AddTable(source, alias string, attrs []string) int {
	ti := TableInstance{Source: source, Alias: alias, Cols: make([]ColID, 0, len(attrs))}
	idx := len(q.Tables)
	q.Columns = slices.Grow(q.Columns, len(attrs))
	for pos, attr := range attrs {
		id := ColID(len(q.Columns))
		q.Columns = append(q.Columns, Column{ID: id, Table: idx, Pos: pos, Attr: attr})
		ti.Cols = append(ti.Cols, id)
	}
	q.Tables = append(q.Tables, ti)
	q.assignNames()
	return idx
}

// assignNames recomputes the unique per-query column names: the bare
// attribute name when it is unique across all occurrences, otherwise
// attr_<k> numbered per occurrence (the paper's A1/A2 renaming). It
// counts by scanning, as a query has a few dozen columns, and rewrites
// only the names an added table changed.
func (q *Query) assignNames() {
	for i := range q.Columns {
		c := &q.Columns[i]
		k, dup := 0, false
		for j := range q.Columns {
			if j != i && q.Columns[j].Attr == c.Attr {
				dup = true
				if j < i {
					k++
				}
			}
		}
		if !dup {
			c.Name = c.Attr
			continue
		}
		var buf [24]byte
		suffix := strconv.AppendInt(append(buf[:0], '_'), int64(k+1), 10)
		if len(c.Name) != len(c.Attr)+len(suffix) || c.Name[:len(c.Attr)] != c.Attr || c.Name[len(c.Attr):] != string(suffix) {
			c.Name = c.Attr + string(suffix)
		}
	}
}

// IsAggregationQuery reports whether the query has grouping, aggregation
// or a HAVING clause (the paper's "aggregation query"); otherwise it is a
// conjunctive query.
func (q *Query) IsAggregationQuery() bool {
	if len(q.GroupBy) > 0 || len(q.Having) > 0 {
		return true
	}
	for _, it := range q.Select {
		if exprHasAgg(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAgg(e Expr) bool {
	switch x := e.(type) {
	case *Agg:
		return true
	case *Arith:
		return exprHasAgg(x.L) || exprHasAgg(x.R)
	default:
		return false
	}
}

// ExprHasAgg reports whether the expression contains an aggregate.
func ExprHasAgg(e Expr) bool { return exprHasAgg(e) }

// ColSel returns the non-aggregation columns of the SELECT clause
// (paper's ColSel(Q)): bare column references among the select items.
func (q *Query) ColSel() []ColID {
	var out []ColID
	for _, it := range q.Select {
		if c, ok := it.Expr.(*ColRef); ok {
			out = append(out, c.Col)
		}
	}
	return out
}

// IsGrouping reports whether the column is in the GROUP BY list.
func (q *Query) IsGrouping(c ColID) bool {
	for _, g := range q.GroupBy {
		if g == c {
			return true
		}
	}
	return false
}

// WalkExprCols calls fn for every column referenced in the expression.
func WalkExprCols(e Expr, fn func(ColID)) {
	switch x := e.(type) {
	case *ColRef:
		fn(x.Col)
	case *Agg:
		if x.Arg != nil {
			WalkExprCols(x.Arg, fn)
		}
	case *Arith:
		WalkExprCols(x.L, fn)
		WalkExprCols(x.R, fn)
	}
}

// MapExprCols returns a copy of the expression with every column ID
// replaced through fn.
func MapExprCols(e Expr, fn func(ColID) ColID) Expr {
	switch x := e.(type) {
	case *ColRef:
		return &ColRef{Col: fn(x.Col)}
	case *Const:
		return &Const{Val: x.Val}
	case *Agg:
		n := &Agg{Func: x.Func, Star: x.Star}
		if x.Arg != nil {
			n.Arg = MapExprCols(x.Arg, fn)
		}
		return n
	case *Arith:
		return &Arith{Op: x.Op, L: MapExprCols(x.L, fn), R: MapExprCols(x.R, fn)}
	default:
		panic(fmt.Sprintf("ir: unknown expr %T", e))
	}
}

// MapPredCols rewrites the column IDs of a WHERE predicate through fn.
func MapPredCols(p Pred, fn func(ColID) ColID) Pred {
	out := p
	if !out.L.IsConst {
		out.L.Col = fn(out.L.Col)
	}
	if !out.R.IsConst {
		out.R.Col = fn(out.R.Col)
	}
	return out
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	n := &Query{
		Distinct: q.Distinct,
		Select:   make([]SelectItem, len(q.Select)),
		Tables:   make([]TableInstance, len(q.Tables)),
		Where:    append([]Pred{}, q.Where...),
		GroupBy:  append([]ColID{}, q.GroupBy...),
		Having:   make([]HPred, len(q.Having)),
		Columns:  append([]Column{}, q.Columns...),
	}
	ident := func(c ColID) ColID { return c }
	for i, it := range q.Select {
		n.Select[i] = SelectItem{Expr: MapExprCols(it.Expr, ident), Alias: it.Alias}
	}
	for i, t := range q.Tables {
		n.Tables[i] = TableInstance{Source: t.Source, Alias: t.Alias, Cols: append([]ColID{}, t.Cols...)}
	}
	for i, h := range q.Having {
		n.Having[i] = HPred{Op: h.Op, L: MapExprCols(h.L, ident), R: MapExprCols(h.R, ident)}
	}
	return n
}
