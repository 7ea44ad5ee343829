package main

import (
	"context"

	"aggview/internal/engine"
)

// gate is the correctness check a pass ends with, on the state the pass
// left behind. Every distinct query among the workload's first ops
// (every template; 16 constant settings of plan_cold) is answered
// through the server and bag-compared with direct, rewrite-free
// evaluation on one pinned snapshot; then every tracked view's stored
// relation is bag-compared with its definition re-evaluated from the
// base tables, which is what write_mix's maintenance must preserve.
// Each comparison counts as attempted, each mismatch as failed.
func (r *Runner) gate(ctx context.Context, node *Node, w *Workload, p *Pass) {
	snap := node.Sys.DB.Snapshot()
	seen := map[string]bool{}
	for i := 0; i < max(w.Cycle, 16); i++ {
		op := w.Op(i)
		if op.Kind != OpQuery || seen[op.SQL] {
			continue
		}
		seen[op.SQL] = true
		p.Attempted++
		resp, err := node.Client.Query(ctx, op.SQL)
		if err != nil {
			p.fail("gate %s: %v", op.Name, err)
			continue
		}
		got, err := resp.Relation()
		if err != nil {
			p.fail("gate %s: decoding answer: %v", op.Name, err)
			continue
		}
		if r.Tamper != nil {
			r.Tamper(got)
		}
		want, err := node.Sys.QueryOnContext(ctx, snap, op.SQL)
		if err != nil {
			p.fail("gate %s: direct evaluation: %v", op.Name, err)
			continue
		}
		if !engine.ResultsEqualBag(got, want) {
			p.fail("gate %s: served answer (%d rows) differs from direct evaluation (%d rows)", op.Name, got.Len(), want.Len())
		}
	}
	for _, v := range viewDefs {
		p.Attempted++
		stored, ok := snap.Relation(v.Name)
		if !ok {
			p.fail("gate view %s: not materialized", v.Name)
			continue
		}
		fresh, err := node.Sys.QueryOnContext(ctx, snap, v.Select)
		if err != nil {
			p.fail("gate view %s: re-evaluating definition: %v", v.Name, err)
			continue
		}
		if !engine.ResultsEqualBag(stored, fresh) {
			p.fail("gate view %s: stored relation (%d rows) differs from its definition (%d rows)", v.Name, stored.Len(), fresh.Len())
		}
	}
}
