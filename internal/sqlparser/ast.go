package sqlparser

import (
	"strconv"
	"strings"

	"aggview/internal/value"
)

// Expr is a parsed SQL expression node.
type Expr interface {
	// SQL renders the expression back to SQL text.
	SQL() string
}

// ColumnRef is a possibly-qualified column reference, e.g. Calls.Plan_Id
// or Charge.
type ColumnRef struct {
	Qualifier string // table name or range-variable alias; may be empty
	Name      string
}

// SQL implements Expr.
func (c *ColumnRef) SQL() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// Lit is a literal constant.
type Lit struct {
	Val value.Value
}

// SQL implements Expr.
func (l *Lit) SQL() string { return l.Val.String() }

// AggFunc names an SQL aggregate function.
type AggFunc string

// The aggregate functions of the paper.
const (
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
	AggSum   AggFunc = "SUM"
	AggCount AggFunc = "COUNT"
	AggAvg   AggFunc = "AVG"
)

// AggExpr is an application of an aggregate function. Arg is nil only for
// COUNT(*), in which case Star is true.
type AggExpr struct {
	Func AggFunc
	Arg  Expr
	Star bool
}

// SQL implements Expr.
func (a *AggExpr) SQL() string {
	if a.Star {
		return string(a.Func) + "(*)"
	}
	return string(a.Func) + "(" + a.Arg.SQL() + ")"
}

// BinOp is a binary operator in a parsed expression.
type BinOp string

// Comparison and arithmetic operators, plus AND.
const (
	OpEq  BinOp = "="
	OpNeq BinOp = "<>"
	OpLt  BinOp = "<"
	OpLeq BinOp = "<="
	OpGt  BinOp = ">"
	OpGeq BinOp = ">="
	OpAnd BinOp = "AND"
	OpAdd BinOp = "+"
	OpSub BinOp = "-"
	OpMul BinOp = "*"
	OpDiv BinOp = "/"
)

// BinExpr is a binary expression.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

// SQL implements Expr.
func (b *BinExpr) SQL() string {
	l, r := b.L.SQL(), b.R.SQL()
	switch b.Op {
	case OpAnd:
		return l + " AND " + r
	case OpAdd, OpSub, OpMul, OpDiv:
		// Parenthesise nested arithmetic conservatively.
		if lb, ok := b.L.(*BinExpr); ok && isArith(lb.Op) {
			l = "(" + l + ")"
		}
		if rb, ok := b.R.(*BinExpr); ok && isArith(rb.Op) {
			r = "(" + r + ")"
		}
		return l + " " + string(b.Op) + " " + r
	default:
		return l + " " + string(b.Op) + " " + r
	}
}

func isArith(op BinOp) bool {
	return op == OpAdd || op == OpSub || op == OpMul || op == OpDiv
}

// IsComparison reports whether op is one of the six comparison operators.
func IsComparison(op BinOp) bool {
	switch op {
	case OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq:
		return true
	}
	return false
}

// SelectItem is one entry of a SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional AS alias
}

// TableRef is one entry of a FROM list: a base table or view name with
// an optional range-variable alias, or an inline subquery
// (FROM (SELECT ...) alias).
type TableRef struct {
	Table    string
	Alias    string
	Subquery *Select // non-nil for derived tables; Table is then empty
}

// Select is a parsed single-block query.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent; otherwise an AND-tree of comparisons
	GroupBy  []*ColumnRef
	Having   Expr // nil when absent
}

// SQL renders the query back to SQL text.
func (s *Select) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.Expr.SQL())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		if t.Subquery != nil {
			b.WriteString("(" + t.Subquery.SQL() + ")")
		} else {
			b.WriteString(t.Table)
		}
		if t.Alias != "" {
			b.WriteString(" " + t.Alias)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.SQL())
	}
	return b.String()
}

// Conjuncts flattens an AND-tree into its list of conjunct expressions.
// A nil expression yields an empty list.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinExpr); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Statement is a parsed script statement.
type Statement interface{ stmt() }

// CreateTable declares a base table with optional keys and FDs, e.g.
//
//	CREATE TABLE Calls(Call_Id, Cust_Id, Charge) KEY(Call_Id) FD(Cust_Id -> Charge)
type CreateTable struct {
	Name    string
	Columns []string
	Keys    [][]string
	FDs     [][2][]string // pairs (from, to)
}

func (*CreateTable) stmt() {}

// CreateView names a query whose materialization is available for
// rewriting: CREATE VIEW V1 AS SELECT ... An optional column list
// (CREATE VIEW V1(a, b) AS ...) renames the query's output columns —
// the form ViewDef.SQL emits, so server /script output and slow-query
// repros parse back verbatim.
type CreateView struct {
	Name    string
	Columns []string // optional explicit output column names
	Query   *Select
}

func (*CreateView) stmt() {}

// Insert loads literal rows into a base table:
//
//	INSERT INTO R1 VALUES (1, 2.5, 'x'), (3, -4, 'y')
//
// Only literal tuples are supported — the scripts the differential
// oracle emits (and replays) carry their data inline.
type Insert struct {
	Table string
	Rows  [][]value.Value
}

func (*Insert) stmt() {}

// SQL renders the statement back to script text; every value reads back
// as itself (see value.Value.String).
func (ins *Insert) SQL() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + ins.Table + " VALUES ")
	for i, row := range ins.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String()) // Value.String quotes strings
		}
		b.WriteString(")")
	}
	return b.String()
}

// Delete removes the rows of a base table matching a condition (all
// rows when Where is nil):
//
//	DELETE FROM R1 WHERE A > 3 AND B = 'x'
//
// The condition grammar is the same conjunctive comparison language as
// SELECT's WHERE, so mutation scripts round-trip through the oracle.
type Delete struct {
	Table string
	Where Expr // nil = unconditional
}

func (*Delete) stmt() {}

// SQL renders the statement back to script text.
func (d *Delete) SQL() string {
	s := "DELETE FROM " + d.Table
	if d.Where != nil {
		s += " WHERE " + d.Where.SQL()
	}
	return s
}

// Assignment is one SET clause of an UPDATE: column := expression over
// the row's old values (arithmetic and literals; no aggregates).
type Assignment struct {
	Col  string
	Expr Expr
}

// Update rewrites the rows of a base table matching a condition (all
// rows when Where is nil):
//
//	UPDATE R1 SET B = B + 1, C = 'y' WHERE A = 3
type Update struct {
	Table string
	Set   []Assignment
	Where Expr // nil = unconditional
}

func (*Update) stmt() {}

// SQL renders the statement back to script text.
func (u *Update) SQL() string {
	var b strings.Builder
	b.WriteString("UPDATE " + u.Table + " SET ")
	for i, a := range u.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Col + " = " + a.Expr.SQL())
	}
	if u.Where != nil {
		b.WriteString(" WHERE " + u.Where.SQL())
	}
	return b.String()
}

// QueryStatement is a bare SELECT to be rewritten/evaluated.
type QueryStatement struct {
	Query *Select
}

func (*QueryStatement) stmt() {}

// formatNumber parses a number literal into an int or float Value.
func formatNumber(text string) (value.Value, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return value.Value{}, err
		}
		return value.Float(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return value.Value{}, err
	}
	return value.Int(i), nil
}
