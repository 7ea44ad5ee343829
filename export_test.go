package aggview

import (
	"context"
	"fmt"

	"aggview/internal/sqlparser"
)

// ChangedRows exposes what a DELETE (set nil) or UPDATE would change —
// the statement lowered and evaluated by the engine, nothing applied —
// to the external test package, which needs the oracle's generators and
// reference evaluator and so cannot live inside this one.
func (s *System) ChangedRows(ctx context.Context, table string, where sqlparser.Expr, set []sqlparser.Assignment) (pos []int32, news [][]Value, err error) {
	t, ok := s.Catalog.Table(table)
	if !ok {
		return nil, nil, fmt.Errorf("no table %q", table)
	}
	pos, _, news, err = s.changedRows(ctx, t, where, set)
	return pos, news, err
}

// GroupCounts exposes the maintainer's per-group row counts of a tracked
// view, which the kind-rule property test holds unchanged across a
// refused write.
func (s *System) GroupCounts(name string) (map[string]int64, bool) {
	v, ok := s.Views.Get(name)
	if !ok {
		return nil, false
	}
	return s.maint.GroupCounts(v.Name)
}
