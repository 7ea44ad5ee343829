package engine

import (
	"context"

	"aggview/internal/budget"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
)

// pollBatchRows is the row-batch granularity at which the kernels
// observe cancellation and charge the row budget: every partition polls
// once per this many input rows. Small enough that a canceled query
// stops within microseconds, large enough that the poll is invisible
// next to the per-row work.
const pollBatchRows = 1024

// task is the per-execution state threaded through every kernel: the
// caller's context, the budget meter drawn from it (nil: unlimited) and
// the armed fault injector (nil outside the harness). One task spans an
// entire ExecContext call including nested view materialization, so
// budgets pool across the whole operation.
type task struct {
	//aggvet:ctxflow per-execution carrier resolved once at ExecContext entry, never stored across calls.
	ctx   context.Context
	meter *budget.Meter
	inj   *faultinject.Injector
	// sp is the request span drawn from the context (nil: no-op). The
	// engine records execution stages and per-scan row counts into it
	// from its serial spine only (run entry, joinBatch's resolve loop),
	// so stage order is deterministic at every worker count.
	sp *obs.Span
	// held lists the index vectors drawn for the running query (i32) and
	// not yet returned: each exec level returns its own as it returns. Only
	// the goroutine running exec's serial spine draws and releases.
	held    []*[]int32
	heldBuf [8]*[]int32
}

// start readies t for an operation under ctx: it resolves the context's
// meter, injector and span once, so the hot polls never touch
// context.Value.
func (t *task) start(ctx context.Context) {
	*t = task{ctx: ctx, meter: budget.MeterFrom(ctx), inj: faultinject.From(ctx), sp: obs.SpanFrom(ctx)}
	t.held = t.heldBuf[:0]
}

// i32 returns an index vector of n entries with arbitrary contents — a
// selection, a join's pairs — that lives until the exec level that drew
// it returns: a query builds these and drops them, and no result aliases
// one, so they cycle through i32Pools instead of the heap. What is held
// is still charged to the memory budget by the caller (allocBytes).
func (t *task) i32(n int) []int32 {
	p := getI32(n)
	t.held = append(t.held, p)
	return *p
}

// release returns the vectors drawn since held was mark entries long. A
// nested view materialisation marks at its own entry, so it leaves the
// outer query's selections alone.
func (t *task) release(mark int) {
	for i, p := range t.held[mark:] {
		putI32(p)
		t.held[mark+i] = nil
	}
	t.held = t.held[:mark]
}

// charge records n processed rows at the named kernel site: it feeds
// the fault injector, charges the row budget, and polls the context.
// The typed error (budget.Exceeded or budget.Canceled) aborts the
// kernel; partitions that observe it stop at their next batch boundary
// and the pool drains before the error is returned, so no partial
// result ever escapes. Error counters are volatile: which partition
// observes the abort is scheduling-dependent.
func (t *task) charge(ev *Evaluator, site string, n int64) error {
	t.inj.Observe(faultinject.SiteRow, n)
	if err := t.meter.AddRows(site, n); err != nil {
		ev.metrics().errBudget.Inc()
		return err
	}
	if err := budget.Check(t.ctx, site); err != nil {
		ev.metrics().errCanceled.Inc()
		return err
	}
	return nil
}

// allocBytes charges n bytes of columnar allocation against the memory
// budget (budget.Limits.MaxMemBytes). Allocation sizes are fixed by the
// data, so whether an operation trips its memory budget is independent
// of the worker count.
func (t *task) allocBytes(ev *Evaluator, site string, n int64) error {
	if err := t.meter.AddMem(site, n); err != nil {
		ev.metrics().errBudget.Inc()
		return err
	}
	return nil
}

// poll checks cancellation only (no row charge), for loops whose work
// is not row consumption.
func (t *task) poll(ev *Evaluator, site string) error {
	if err := budget.Check(t.ctx, site); err != nil {
		ev.metrics().errCanceled.Inc()
		return err
	}
	return nil
}
