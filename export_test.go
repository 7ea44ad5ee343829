package aggview

import (
	"context"
	"fmt"

	"aggview/internal/sqlparser"
)

// MatchPositions exposes the DELETE/UPDATE row matcher (vectorised
// prefilter, then EvalCond on the survivors) to the external test
// package, which needs the oracle's generators and so cannot live
// inside this one.
func (s *System) MatchPositions(ctx context.Context, table string, where sqlparser.Expr) ([]int32, error) {
	tab, ok, _ := s.DB.Scan(table)
	if !ok {
		return nil, fmt.Errorf("no relation %q", table)
	}
	pos, _, err := s.matchRows(ctx, tab, where)
	return pos, err
}
