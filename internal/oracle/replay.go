package oracle

import (
	"fmt"
	"slices"
	"strings"

	"aggview/internal/sqlparser"
	"aggview/internal/value"
)

// Replay parses a script in the format Script emits — CREATE TABLE,
// INSERT, CREATE VIEW and a final SELECT — back into a Case, so a
// failure printed by the test log (or stored in a soak report) can be
// re-checked verbatim. Mutation-soak scripts also pass through here:
// DELETE and UPDATE statements are collapsed into the declared table
// contents (so the Case captures the final instance), and when a
// script carries several SELECTs the last one becomes the Case query —
// the state every earlier statement built up is exactly the state that
// last query ran against.
func Replay(script string) (*Case, error) {
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return nil, fmt.Errorf("oracle: replay: %w", err)
	}
	c := &Case{}
	byName := map[string]*TableSpec{}
	sawQuery := false
	for _, st := range stmts {
		switch x := st.(type) {
		case *sqlparser.CreateTable:
			t := &TableSpec{Name: x.Name, Cols: x.Columns}
			if len(x.Keys) > 0 {
				t.Key = x.Keys[0]
			}
			c.Tables = append(c.Tables, t)
			byName[x.Name] = t
		case *sqlparser.Insert:
			t, ok := byName[x.Table]
			if !ok {
				return nil, fmt.Errorf("oracle: replay: INSERT into undeclared table %s", x.Table)
			}
			for _, row := range x.Rows {
				if len(row) != len(t.Cols) {
					return nil, fmt.Errorf("oracle: replay: %s expects %d values, got %d", t.Name, len(t.Cols), len(row))
				}
			}
			t.Rows = append(t.Rows, x.Rows...)
		case *sqlparser.CreateView:
			spec, err := specFromSelect(x.Query)
			if err != nil {
				return nil, fmt.Errorf("oracle: replay: view %s: %w", x.Name, err)
			}
			c.Views = append(c.Views, &ViewSpec{Name: x.Name, Cols: x.Columns, Def: spec})
		case *sqlparser.Delete:
			t, ok := byName[x.Table]
			if !ok {
				return nil, fmt.Errorf("oracle: replay: DELETE from undeclared table %s", x.Table)
			}
			if err := collapse(t, x.SQL(), x.Where, nil); err != nil {
				return nil, err
			}
		case *sqlparser.Update:
			t, ok := byName[x.Table]
			if !ok {
				return nil, fmt.Errorf("oracle: replay: UPDATE of undeclared table %s", x.Table)
			}
			if err := collapse(t, x.SQL(), x.Where, x.Set); err != nil {
				return nil, err
			}
		case *sqlparser.QueryStatement:
			spec, err := specFromSelect(x.Query)
			if err != nil {
				return nil, fmt.Errorf("oracle: replay: query: %w", err)
			}
			c.Query = spec
			sawQuery = true
		default:
			return nil, fmt.Errorf("oracle: replay: unsupported statement %T", st)
		}
	}
	if !sawQuery {
		return nil, fmt.Errorf("oracle: replay: script has no SELECT statement")
	}
	return c, nil
}

// collapse folds a DELETE (set nil) or an UPDATE into the table's declared
// rows by the reference evaluator (eval.go); assignment expressions see
// the old row values.
func collapse(t *TableSpec, stmt string, where sqlparser.Expr, set []sqlparser.Assignment) error {
	setAt := make([]int, len(set))
	for i, a := range set {
		setAt[i] = slices.IndexFunc(t.Cols, func(c string) bool { return strings.EqualFold(c, a.Col) })
		if setAt[i] < 0 {
			return fmt.Errorf("oracle: replay: %s: unknown column %q", stmt, a.Col)
		}
	}
	kept := t.Rows[:0:0]
	for _, row := range t.Rows {
		hit, err := EvalCond(where, t.Cols, row)
		if err != nil {
			return fmt.Errorf("oracle: replay: %s: %w", stmt, err)
		}
		if hit && set == nil {
			continue
		}
		if hit {
			old := row
			row = append([]value.Value{}, old...)
			for i, a := range set {
				if row[setAt[i]], err = EvalExpr(a.Expr, t.Cols, old); err != nil {
					return fmt.Errorf("oracle: replay: %s: %w", stmt, err)
				}
			}
		}
		kept = append(kept, row)
	}
	t.Rows = kept
	return nil
}

// specFromSelect converts a parsed single-block SELECT back into clause
// strings via the AST's SQL renderer. Derived tables are rejected — the
// oracle's scripts never contain them.
func specFromSelect(sel *sqlparser.Select) (QuerySpec, error) {
	q := QuerySpec{Distinct: sel.Distinct}
	for _, it := range sel.Items {
		s := it.Expr.SQL()
		if it.Alias != "" {
			s += " AS " + it.Alias
		}
		q.Select = append(q.Select, s)
	}
	for _, t := range sel.From {
		if t.Subquery != nil {
			return QuerySpec{}, fmt.Errorf("derived tables are not supported in oracle scripts")
		}
		name := t.Table
		if t.Alias != "" {
			name += " " + t.Alias
		}
		q.From = append(q.From, name)
	}
	for _, e := range sqlparser.Conjuncts(sel.Where) {
		q.Where = append(q.Where, e.SQL())
	}
	for _, g := range sel.GroupBy {
		q.GroupBy = append(q.GroupBy, g.SQL())
	}
	for _, e := range sqlparser.Conjuncts(sel.Having) {
		q.Having = append(q.Having, e.SQL())
	}
	return q, nil
}
