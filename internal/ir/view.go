package ir

import (
	"fmt"
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

// Registry is a set of view definitions; it implements SchemaSource so
// queries can range over views.
type Registry struct {
	views map[string]*ViewDef
	order []string
}

// NewRegistry returns an empty view registry.
func NewRegistry() *Registry { return &Registry{views: map[string]*ViewDef{}} }

// Add registers a view; duplicate names are rejected.
func (r *Registry) Add(v *ViewDef) error {
	key := strings.ToLower(v.Name)
	if _, ok := r.views[key]; ok {
		return fmt.Errorf("ir: duplicate view %q", v.Name)
	}
	r.views[key] = v
	r.order = append(r.order, key)
	return nil
}

// Get looks up a view by name.
func (r *Registry) Get(name string) (*ViewDef, bool) {
	v, ok := r.views[strings.ToLower(name)]
	return v, ok
}

// All returns the views in registration order.
func (r *Registry) All() []*ViewDef {
	out := make([]*ViewDef, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.views[k])
	}
	return out
}

// ColumnsOf implements SchemaSource.
func (r *Registry) ColumnsOf(name string) ([]string, bool) {
	v, ok := r.Get(name)
	if !ok {
		return nil, false
	}
	return v.OutCols, true
}
