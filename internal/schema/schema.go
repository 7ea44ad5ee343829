// Package schema holds the database catalog: table definitions, keys and
// functional dependencies. The rewriter consults the catalog both to
// resolve column references during parsing and to infer set-ness of query
// results (Section 5 of the paper).
package schema

import (
	"fmt"
	"slices"
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

// Catalog is a collection of table definitions. With the view registry
// (ir.Registry), it is one of the two case-insensitive name tables: a
// lookup finds a table under any spelling of its name, without
// allocating.
type Catalog struct {
	tables []*Table // in registration order
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{} }

// AddTable registers a table definition. It fails on duplicate table
// names, duplicate column names, and keys or FDs that mention unknown
// columns. It stores every key and FD column in the spelling of the
// column list, so they compare exactly with the columns a query binds.
func (c *Catalog) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("schema: table with empty name")
	}
	if _, ok := c.Table(t.Name); ok {
		return fmt.Errorf("schema: duplicate table %q", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %q has no columns", t.Name)
	}
	for i, col := range t.Columns {
		if t.ColumnIndex(col) < i {
			return fmt.Errorf("schema: table %q has duplicate column %q", t.Name, col)
		}
	}
	declared := func(cols []string, what string) ([]string, error) {
		out := make([]string, len(cols))
		for i, col := range cols {
			j := t.ColumnIndex(col)
			if j < 0 {
				return nil, fmt.Errorf("schema: table %q %s mentions unknown column %q", t.Name, what, col)
			}
			out[i] = t.Columns[j]
		}
		return out, nil
	}
	var keys [][]string
	for _, k := range t.Keys {
		if len(k) == 0 {
			return fmt.Errorf("schema: table %q has an empty key", t.Name)
		}
		key, err := declared(k, "key")
		if err != nil {
			return err
		}
		keys = append(keys, key)
	}
	var fds []FD
	for _, fd := range t.FDs {
		if len(fd.From) == 0 || len(fd.To) == 0 {
			return fmt.Errorf("schema: table %q has a degenerate FD", t.Name)
		}
		cols, err := declared(append(slices.Clone(fd.From), fd.To...), "FD")
		if err != nil {
			return err
		}
		fds = append(fds, FD{From: cols[:len(fd.From)], To: cols[len(fd.From):]})
	}
	t.Keys, t.FDs = keys, fds
	c.tables = append(c.tables, t)
	return nil
}

// Resolve implements ir.SchemaSource: a table's declared name and columns.
func (c *Catalog) Resolve(name string) (string, []string, bool) {
	t, ok := c.Table(name)
	if !ok {
		return "", nil, false
	}
	return t.Name, t.Columns, true
}

// Table looks up a table by name, in any letter case; the second result
// reports success.
func (c *Catalog) Table(name string) (*Table, bool) {
	for _, t := range c.tables {
		if strings.EqualFold(t.Name, name) {
			return t, true
		}
	}
	return nil, false
}

// Tables returns the table definitions in registration order.
func (c *Catalog) Tables() []*Table { return slices.Clone(c.tables) }

// ColumnIndex returns the position of column col in table t, or -1.
// Matching is case-insensitive.
func (t *Table) ColumnIndex(col string) int {
	return slices.IndexFunc(t.Columns, func(c string) bool { return strings.EqualFold(c, col) })
}
