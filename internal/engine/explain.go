package engine

import (
	"fmt"
	"strings"

	"aggview/internal/ir"
)

// Explain renders the plan the evaluator would execute for a query:
// per-table scans with pushed-down filters, the greedy hash-join order,
// residual predicates, and the grouping/HAVING/projection pipeline. It
// resolves relation sizes when the database is available (nil is fine).
func (ev *Evaluator) Explain(q *ir.Query) string {
	var b strings.Builder
	tableOf := func(c ir.ColID) int { return q.Col(c).Table }

	perTable := make([][]ir.Pred, len(q.Tables))
	var joinEq, residual []ir.Pred
	for _, p := range q.Where {
		lt, rt := -1, -1
		if !p.L.IsConst {
			lt = tableOf(p.L.Col)
		}
		if !p.R.IsConst {
			rt = tableOf(p.R.Col)
		}
		switch {
		case lt < 0 && rt < 0:
			residual = append(residual, p)
		case (lt < 0) != (rt < 0) || lt == rt:
			// Single-table predicate: push it to that table's scan.
			t := lt
			if t < 0 {
				t = rt
			}
			perTable[t] = append(perTable[t], p)
		case p.Op == ir.OpEq:
			joinEq = append(joinEq, p)
		default:
			residual = append(residual, p)
		}
	}

	size := func(name string) string {
		if ev == nil || ev.DB == nil {
			return ""
		}
		if n, ok := ev.DB.NumRows(name); ok {
			return fmt.Sprintf(" [%d rows]", n)
		}
		if ev.Views != nil {
			if _, ok := ev.Views.Get(name); ok {
				return " [view]"
			}
		}
		return ""
	}

	for i, t := range q.Tables {
		fmt.Fprintf(&b, "scan %s%s", t.Source, size(t.Source))
		if len(perTable[i]) > 0 {
			parts := make([]string, len(perTable[i]))
			for j, p := range perTable[i] {
				parts[j] = q.PredSQL(p)
			}
			fmt.Fprintf(&b, " filter(%s)", strings.Join(parts, " AND "))
		}
		b.WriteByte('\n')
	}
	if len(joinEq) > 0 {
		parts := make([]string, len(joinEq))
		for j, p := range joinEq {
			parts[j] = q.PredSQL(p)
		}
		fmt.Fprintf(&b, "hash join on %s\n", strings.Join(parts, " AND "))
	} else if len(q.Tables) > 1 {
		b.WriteString("cross product (no equality join predicates)\n")
	}
	if len(residual) > 0 {
		parts := make([]string, len(residual))
		for j, p := range residual {
			parts[j] = q.PredSQL(p)
		}
		fmt.Fprintf(&b, "residual filter %s\n", strings.Join(parts, " AND "))
	}
	if q.IsAggregationQuery() {
		if len(q.GroupBy) > 0 {
			names := make([]string, len(q.GroupBy))
			for i, g := range q.GroupBy {
				names[i] = q.Col(g).Name
			}
			fmt.Fprintf(&b, "group by %s\n", strings.Join(names, ", "))
		} else {
			b.WriteString("single global group\n")
		}
		if len(q.Having) > 0 {
			parts := make([]string, len(q.Having))
			for i, h := range q.Having {
				parts[i] = q.ExprSQLByName(h.L) + " " + h.Op.String() + " " + q.ExprSQLByName(h.R)
			}
			fmt.Fprintf(&b, "having %s\n", strings.Join(parts, " AND "))
		}
	}
	proj := make([]string, len(q.Select))
	for i, it := range q.Select {
		proj[i] = q.ExprSQLByName(it.Expr)
	}
	fmt.Fprintf(&b, "project %s", strings.Join(proj, ", "))
	if q.Distinct {
		b.WriteString(" distinct")
	}
	b.WriteByte('\n')
	return b.String()
}
