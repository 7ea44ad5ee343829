package engine

import (
	"fmt"
	"strings"

	"aggview/internal/ir"
)

// Explain renders the plan the evaluator would execute for a query, from
// the executor's own classification and join order (classifyWhere,
// joinOrder, keyingOf): per-table scans with pushed-down filters,
// constant predicates with their verdict, the join steps in the order
// joinBatch takes them, residual predicates, and the
// grouping/HAVING/projection pipeline. When the database holds every
// table (nil is fine) it orders the joins by the stored row counts —
// the executor uses the counts after each scan's filter, which Explain
// does not run — and says, for the first step, which input is walked,
// which is laid out per key and how the keys are numbered; from the
// second step on one input is the joined rows so far, whose count only
// a run knows.
func (ev *Evaluator) Explain(q *ir.Query) string {
	var b strings.Builder
	wc := classifyWhere(q)
	conj := func(preds []ir.Pred) string {
		parts := make([]string, len(preds))
		for j, p := range preds {
			parts[j] = q.PredSQL(p)
		}
		return strings.Join(parts, " AND ")
	}

	// Stored tables, where the database has them.
	cts := make([]*ColTable, len(q.Tables))
	rows := make([]int, len(q.Tables))
	sized := true
	for i, t := range q.Tables {
		if ev != nil && ev.DB != nil {
			if ct, ok, _ := ev.DB.Scan(t.Source); ok && len(ct.cols) == len(t.Cols) {
				cts[i], rows[i] = ct, ct.n
			}
		}
		sized = sized && cts[i] != nil
	}
	name := func(i int) string {
		t := q.Tables[i]
		switch {
		case cts[i] != nil:
			return fmt.Sprintf("%s [%d rows]", t.Source, cts[i].n)
		case ev != nil && ev.Views != nil:
			if _, ok := ev.Views.Get(t.Source); ok {
				return t.Source + " [view]"
			}
		}
		return t.Source
	}

	for i := range q.Tables {
		fmt.Fprintf(&b, "scan %s", name(i))
		if len(wc.perTable[i]) > 0 {
			fmt.Fprintf(&b, " filter(%s)", conj(wc.perTable[i]))
		}
		b.WriteByte('\n')
	}
	for _, p := range wc.consts {
		switch ok, err := constPred(p); {
		case err != nil:
			fmt.Fprintf(&b, "constant predicate %s: %v\n", q.PredSQL(p), err)
		case ok:
			fmt.Fprintf(&b, "constant predicate %s holds\n", q.PredSQL(p))
		default:
			fmt.Fprintf(&b, "constant predicate %s is false: empty result, no row is read\n", q.PredSQL(p))
		}
	}

	if !sized {
		clear(rows) // unknown counts order nothing: FROM order, connected tables first
	}
	first, steps := joinOrder(q, rows, wc.joinEq)
	if len(steps) > 0 {
		by := "FROM order; the executor orders by rows after filters"
		if sized {
			by = "stored row counts; the executor orders by rows after filters"
		}
		fmt.Fprintf(&b, "join order (%s): start with %s\n", by, q.Tables[first].Source)
	}
	for k, st := range steps {
		if len(st.keys) == 0 {
			fmt.Fprintf(&b, "cross product with %s (no equality join predicates)\n", q.Tables[st.next].Source)
			continue
		}
		fmt.Fprintf(&b, "hash join %s on %s", q.Tables[st.next].Source, conj(st.keys))
		if k > 0 || !sized {
			b.WriteString(": walk the larger input, lay out the smaller\n")
			continue
		}
		// The executor's choice of sides (joinPairs) and of keying, from
		// the stored columns.
		walk, lay := first, st.next
		if rows[first] < rows[st.next] {
			walk, lay = st.next, first
		}
		build, probe := make([]*column, len(st.keys)), make([]*column, len(st.keys))
		for j, p := range st.keys {
			lc, rc := q.Col(p.L.Col), q.Col(p.R.Col)
			if lc.Table != lay {
				lc, rc = rc, lc
			}
			build[j], probe[j] = cts[lay].cols[lc.Pos], cts[walk].cols[rc.Pos]
		}
		fmt.Fprintf(&b, ": walk %s, lay out %s, keys: %v\n", name(walk), name(lay), keyingOf(build, probe))
	}
	if len(wc.residual) > 0 {
		fmt.Fprintf(&b, "residual filter %s\n", conj(wc.residual))
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
