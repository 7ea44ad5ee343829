package oracle

import (
	"fmt"
	"strings"

	"aggview/internal/sqlparser"
)

// Replay parses a script in the format Script emits back into a Case,
// so a failure printed by the test log (or stored in a soak report)
// can be re-checked verbatim. The setup is the leading run of CREATE
// TABLE and CREATE VIEW statements, an INSERT directly behind its
// table's CREATE TABLE giving that table's contents; the first other
// statement starts the steps — INSERT, DELETE, UPDATE or SELECT, each
// one step — and no CREATE may follow it. A server's slow-query repro
// (its tables, contents and views, then the SELECT) replays as the
// same setup and one query step.
func Replay(script string) (*Case, error) {
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return nil, fmt.Errorf("oracle: replay: %w", err)
	}
	c := &Case{}
	byName := map[string]*TableSpec{}
	var prev sqlparser.Statement
	for _, st := range stmts {
		setup := len(c.Steps) == 0
		switch x := st.(type) {
		case *sqlparser.CreateTable:
			if !setup {
				return nil, fmt.Errorf("oracle: replay: CREATE TABLE %s after the first step", x.Name)
			}
			t := &TableSpec{Name: x.Name, Cols: x.Columns}
			if len(x.Keys) > 0 {
				t.Key = x.Keys[0]
			}
			c.Tables = append(c.Tables, t)
			byName[x.Name] = t
		case *sqlparser.CreateView:
			if !setup {
				return nil, fmt.Errorf("oracle: replay: CREATE VIEW %s after the first step", x.Name)
			}
			spec, err := specFromSelect(x.Query)
			if err != nil {
				return nil, fmt.Errorf("oracle: replay: view %s: %w", x.Name, err)
			}
			c.Views = append(c.Views, &ViewSpec{Name: x.Name, Cols: x.Columns, Def: spec})
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
			if ct, ok := prev.(*sqlparser.CreateTable); ok && setup && ct.Name == x.Table {
				t.Rows = x.Rows
			} else {
				c.Steps = append(c.Steps, Step{Kind: StepInsert, Table: x.Table, Rows: x.Rows})
			}
		case *sqlparser.Delete:
			where := ""
			if x.Where != nil {
				where = x.Where.SQL()
			}
			c.Steps = append(c.Steps, Step{Kind: StepDelete, Table: x.Table, Where: where})
		case *sqlparser.Update:
			var sets []string
			for _, a := range x.Set {
				sets = append(sets, a.Col+" = "+a.Expr.SQL())
			}
			where := ""
			if x.Where != nil {
				where = x.Where.SQL()
			}
			c.Steps = append(c.Steps, Step{Kind: StepUpdate, Table: x.Table, Set: strings.Join(sets, ", "), Where: where})
		case *sqlparser.QueryStatement:
			spec, err := specFromSelect(x.Query)
			if err != nil {
				return nil, fmt.Errorf("oracle: replay: query: %w", err)
			}
			c.Steps = append(c.Steps, Step{Kind: StepQuery, Query: &spec})
		default:
			return nil, fmt.Errorf("oracle: replay: unsupported statement %T", st)
		}
		prev = st
	}
	return c, nil
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
