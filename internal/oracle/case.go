// Package oracle implements differential testing of the rewriter: a
// seeded generator of random schemas, table contents, view definitions
// and queries; a checker executing each query directly and through
// every rewriting the rewriter emits, asserting multiset-equal results
// at several worker counts; and a shrinker reducing any violation to a
// minimal SQL script that replays the failure.
//
// Everything a case needs travels as SQL text plus literal rows, so a
// failing instance prints as a self-contained script (CREATE TABLE /
// INSERT / CREATE VIEW / SELECT) that Replay parses back verbatim.
package oracle

import (
	"context"
	"fmt"
	"strings"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/value"
)

// TableSpec declares one base table and its full contents.
type TableSpec struct {
	Name string
	Cols []string
	Key  []string // optional key columns (unique over Rows when set)
	Rows [][]value.Value
}

// SQL renders the CREATE TABLE statement.
func (t *TableSpec) SQL() string {
	s := "CREATE TABLE " + t.Name + "(" + strings.Join(t.Cols, ", ") + ")"
	if len(t.Key) > 0 {
		s += " KEY(" + strings.Join(t.Key, ", ") + ")"
	}
	return s
}

// Relation materializes the rows as an engine relation.
func (t *TableSpec) Relation() *engine.Relation {
	rel := engine.NewRelation(t.Cols...)
	for _, row := range t.Rows {
		rel.Add(row...)
	}
	return rel
}

// QuerySpec is a single-block query kept as clause strings: the
// generator and the shrinker both manipulate clause lists, and the SQL
// round-trips through the parser unchanged.
type QuerySpec struct {
	Distinct bool
	Select   []string
	From     []string
	Where    []string // conjuncts
	GroupBy  []string
	Having   []string // conjuncts
}

// SQL renders the query.
func (q *QuerySpec) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(q.Select, ", "))
	b.WriteString(" FROM " + strings.Join(q.From, ", "))
	if len(q.Where) > 0 {
		b.WriteString(" WHERE " + strings.Join(q.Where, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(q.GroupBy, ", "))
	}
	if len(q.Having) > 0 {
		b.WriteString(" HAVING " + strings.Join(q.Having, " AND "))
	}
	return b.String()
}

// clone deep-copies the clause lists.
func (q *QuerySpec) clone() QuerySpec {
	return QuerySpec{
		Distinct: q.Distinct,
		Select:   append([]string{}, q.Select...),
		From:     append([]string{}, q.From...),
		Where:    append([]string{}, q.Where...),
		GroupBy:  append([]string{}, q.GroupBy...),
		Having:   append([]string{}, q.Having...),
	}
}

// ViewSpec names a view definition. Cols, when set, are explicit
// output column names (the CREATE VIEW V(a, b) AS form server scripts
// emit); empty means the engine derives them from the SELECT items.
type ViewSpec struct {
	Name string
	Cols []string
	Def  QuerySpec
}

// SQL renders the CREATE VIEW statement.
func (v *ViewSpec) SQL() string {
	s := "CREATE VIEW " + v.Name
	if len(v.Cols) > 0 {
		s += "(" + strings.Join(v.Cols, ", ") + ")"
	}
	return s + " AS " + v.Def.SQL()
}

// Case is one differential-test instance: a schema with contents, view
// definitions, and the query under test.
type Case struct {
	Tables []*TableSpec
	Views  []*ViewSpec
	Query  QuerySpec
}

// MultiChunk reports whether the case's largest base table spans at
// least three storage chunks, so that executing it crosses chunk
// boundaries in scans, selections and deltas.
func (c *Case) MultiChunk() bool {
	for _, t := range c.Tables {
		if len(t.Rows) >= engine.RowsSpanning(3) {
			return true
		}
	}
	return false
}

// Script renders the case as a replayable SQL script: tables, their
// contents, views, then the query.
func (c *Case) Script() string {
	var b strings.Builder
	for _, t := range c.Tables {
		b.WriteString(t.SQL() + ";\n")
		if len(t.Rows) > 0 {
			ins := "INSERT INTO " + t.Name + " VALUES "
			for i, row := range t.Rows {
				if i > 0 {
					ins += ", "
				}
				ins += "(" + renderRow(row) + ")"
			}
			b.WriteString(ins + ";\n")
		}
	}
	for _, v := range c.Views {
		b.WriteString(v.SQL() + ";\n")
	}
	b.WriteString(c.Query.SQL() + ";\n")
	return b.String()
}

func renderRow(row []value.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String() // Value.String quotes strings
	}
	return strings.Join(parts, ", ")
}

// Clone deep-copies the case, so the shrinker can mutate candidates
// freely.
func (c *Case) Clone() *Case {
	out := &Case{Query: c.Query.clone()}
	for _, t := range c.Tables {
		nt := &TableSpec{
			Name: t.Name,
			Cols: append([]string{}, t.Cols...),
			Key:  append([]string{}, t.Key...),
		}
		for _, row := range t.Rows {
			nt.Rows = append(nt.Rows, append([]value.Value{}, row...))
		}
		out.Tables = append(out.Tables, nt)
	}
	for _, v := range c.Views {
		out.Views = append(out.Views, &ViewSpec{Name: v.Name, Cols: append([]string{}, v.Cols...), Def: v.Def.clone()})
	}
	return out
}

// CompileContext loads the case into a fresh aggview.System: schema and
// view definitions, table contents, and every view materialized. The
// returned system is ready for direct execution and rewriting. The view
// materializations it performs honor ctx's cancellation, deadline and
// budget.
func (c *Case) CompileContext(ctx context.Context, opts aggview.Options) (*aggview.System, error) {
	sys := aggview.New()
	sys.Opts = opts
	for _, t := range c.Tables {
		if err := sys.Load(t.SQL()); err != nil {
			return nil, fmt.Errorf("oracle: table %s: %w", t.Name, err)
		}
	}
	for _, v := range c.Views {
		if err := sys.Load(v.SQL()); err != nil {
			return nil, fmt.Errorf("oracle: view %s: %w", v.Name, err)
		}
	}
	for _, t := range c.Tables {
		if err := sys.SetRelation(t.Name, t.Relation()); err != nil {
			return nil, fmt.Errorf("oracle: rows of %s: %w", t.Name, err)
		}
	}
	for _, v := range c.Views {
		if _, err := sys.MaterializeContext(ctx, v.Name); err != nil {
			return nil, fmt.Errorf("oracle: materialize %s: %w", v.Name, err)
		}
	}
	return sys, nil
}
