package ir

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ViewDef names a query whose materialization is available: the view's
// output schema is the ordered list OutCols, one name per SELECT item of
// Def.
type ViewDef struct {
	Name    string
	Def     *Query
	OutCols []string

	derivedOnce sync.Once
	derived     any
}

// Derived returns the value build computes from the view, running build
// on the first call and sharing its result afterwards; concurrent
// callers are safe. The value lives and dies with this ViewDef, so what
// a planner derives from a registered definition alone (package core's
// per-view facts, the slot's one owner) is computed once per registry
// entry rather than once per search. Def must not change afterwards.
func (v *ViewDef) Derived(build func(*ViewDef) any) any {
	v.derivedOnce.Do(func() { v.derived = build(v) })
	return v.derived
}

// NewViewDef builds a view definition, deriving output column names from
// the select items: an explicit alias wins; a bare column uses its
// attribute name; an aggregate uses fn_attr (e.g. sum_Charge). Duplicate
// names get numeric suffixes so the output schema is unambiguous.
func NewViewDef(name string, def *Query) (*ViewDef, error) {
	if name == "" {
		return nil, fmt.Errorf("ir: view with empty name")
	}
	if len(def.Select) == 0 {
		return nil, fmt.Errorf("ir: view %q selects nothing", name)
	}
	return &ViewDef{Name: name, Def: def, OutCols: OutputNames(def)}, nil
}

// OutputNames derives one unique name per SELECT item of a query: an
// explicit alias wins; a bare column uses its attribute name; an
// aggregate uses fn_attr. Duplicates get numeric suffixes.
func OutputNames(q *Query) []string {
	used := map[string]int{}
	cols := make([]string, len(q.Select))
	for i, it := range q.Select {
		base := it.Alias
		if base == "" {
			base = deriveColName(q, it.Expr)
		}
		key := strings.ToLower(base)
		used[key]++
		if used[key] > 1 {
			base = fmt.Sprintf("%s_%d", base, used[key])
		}
		cols[i] = base
	}
	return cols
}

func deriveColName(q *Query, e Expr) string {
	switch x := e.(type) {
	case *ColRef:
		return q.Col(x.Col).Attr
	case *Agg:
		if x.Star {
			return strings.ToLower(x.Func.String()) + "_all"
		}
		if c, ok := x.Arg.(*ColRef); ok {
			return strings.ToLower(x.Func.String()) + "_" + q.Col(c.Col).Attr
		}
		return strings.ToLower(x.Func.String()) + "_expr"
	case *Const:
		return "const"
	default:
		return "expr"
	}
}

// SQL renders the view as a CREATE VIEW statement.
func (v *ViewDef) SQL() string {
	return fmt.Sprintf("CREATE VIEW %s(%s) AS %s", v.Name, strings.Join(v.OutCols, ", "), v.Def.SQL())
}

// Registry is a set of view definitions and a SchemaSource. With the
// catalog, it is one of the two case-insensitive name tables: a lookup
// finds a view under any spelling of its name, without allocating.
type Registry struct {
	views []*ViewDef // in registration order
}

// NewRegistry returns an empty view registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers a view; a name another view holds in any letter case is
// rejected, and so are output columns that repeat a name in any letter
// case, as a table's would be (schema.Catalog.AddTable).
func (r *Registry) Add(v *ViewDef) error {
	if _, ok := r.Get(v.Name); ok {
		return fmt.Errorf("ir: duplicate view %q", v.Name)
	}
	for i, c := range v.OutCols {
		if slices.IndexFunc(v.OutCols[:i], func(d string) bool { return strings.EqualFold(c, d) }) >= 0 {
			return fmt.Errorf("ir: view %q has duplicate column %q", v.Name, c)
		}
	}
	r.views = append(r.views, v)
	return nil
}

// Get looks up a view by name, in any letter case.
func (r *Registry) Get(name string) (*ViewDef, bool) {
	for _, v := range r.views {
		if strings.EqualFold(v.Name, name) {
			return v, true
		}
	}
	return nil, false
}

// All returns the views in registration order.
func (r *Registry) All() []*ViewDef { return slices.Clone(r.views) }

// Resolve implements SchemaSource.
func (r *Registry) Resolve(name string) (string, []string, bool) {
	v, ok := r.Get(name)
	if !ok {
		return "", nil, false
	}
	return v.Name, v.OutCols, true
}
