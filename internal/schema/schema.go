// Package schema holds the database catalog: table definitions, keys and
// functional dependencies. The rewriter consults the catalog both to
// resolve column references during parsing and to infer set-ness of query
// results (Section 5 of the paper).
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Table describes a base table: an ordered list of column names, plus
// optional meta-information (keys, functional dependencies).
type Table struct {
	Name    string
	Columns []string
	// Keys lists candidate keys; each key is a set of column names. A
	// table with at least one key is guaranteed to be a set (no duplicate
	// rows).
	Keys [][]string
	// FDs lists functional dependencies beyond the keys.
	FDs []FD
}

// FD is a functional dependency From -> To over the columns of one table.
type FD struct {
	From []string
	To   []string
}

// Catalog is a collection of table definitions, looked up by name
// case-insensitively (SQL identifiers are case-insensitive here).
type Catalog struct {
	tables map[string]*Table
	order  []string // insertion order, for deterministic listings
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// canon maps an identifier to its canonical (lower-case) form.
func canon(name string) string { return strings.ToLower(name) }

// AddTable registers a table definition. It fails on duplicate table
// names, duplicate column names, and keys or FDs that mention unknown
// columns.
func (c *Catalog) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("schema: table with empty name")
	}
	key := canon(t.Name)
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("schema: duplicate table %q", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %q has no columns", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, col := range t.Columns {
		cc := canon(col)
		if seen[cc] {
			return fmt.Errorf("schema: table %q has duplicate column %q", t.Name, col)
		}
		seen[cc] = true
	}
	for _, k := range t.Keys {
		if len(k) == 0 {
			return fmt.Errorf("schema: table %q has an empty key", t.Name)
		}
		for _, col := range k {
			if !seen[canon(col)] {
				return fmt.Errorf("schema: table %q key mentions unknown column %q", t.Name, col)
			}
		}
	}
	for _, fd := range t.FDs {
		if len(fd.From) == 0 || len(fd.To) == 0 {
			return fmt.Errorf("schema: table %q has a degenerate FD", t.Name)
		}
		for _, col := range append(append([]string{}, fd.From...), fd.To...) {
			if !seen[canon(col)] {
				return fmt.Errorf("schema: table %q FD mentions unknown column %q", t.Name, col)
			}
		}
	}
	c.tables[key] = t
	c.order = append(c.order, key)
	return nil
}

// ColumnsOf returns the ordered column names of a table; it makes
// Catalog usable wherever a schema source is needed (ir.SchemaSource).
func (c *Catalog) ColumnsOf(name string) ([]string, bool) {
	t, ok := c.Table(name)
	if !ok {
		return nil, false
	}
	return t.Columns, true
}

// Table looks up a table by name; the second result reports success.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[canon(name)]
	return t, ok
}

// Tables returns the table definitions in registration order.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.order))
	for _, k := range c.order {
		out = append(out, c.tables[k])
	}
	return out
}

// ColumnIndex returns the position of column col in table t, or -1.
// Matching is case-insensitive.
func (t *Table) ColumnIndex(col string) int {
	cc := canon(col)
	for i, c := range t.Columns {
		if canon(c) == cc {
			return i
		}
	}
	return -1
}

// String renders the catalog as CREATE TABLE-style declarations, sorted
// by table name, for debugging and golden tests.
func (c *Catalog) String() string {
	names := make([]string, 0, len(c.tables))
	for k := range c.tables {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		t := c.tables[n]
		fmt.Fprintf(&b, "TABLE %s(%s)", t.Name, strings.Join(t.Columns, ", "))
		for _, k := range t.Keys {
			fmt.Fprintf(&b, " KEY(%s)", strings.Join(k, ", "))
		}
		for _, fd := range t.FDs {
			fmt.Fprintf(&b, " FD(%s -> %s)", strings.Join(fd.From, ", "), strings.Join(fd.To, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
