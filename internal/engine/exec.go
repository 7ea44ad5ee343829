package engine

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"

	"aggview/internal/faultinject"
	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// ViewSource resolves view definitions by name; *ir.Registry implements
// it. An evaluator consults it from one operation at a time; a source
// shared by concurrent operations (each with its own evaluator), as a
// registry is, must be safe for concurrent readers.
type ViewSource interface {
	Get(name string) (*ir.ViewDef, bool)
}

// Evaluator executes canonical queries against a database. FROM sources
// that are not base relations are resolved through Views: their
// definitions are evaluated on demand and cached, which is how rewritten
// queries that reference auxiliary views (the paper's Va construction)
// are executed.
//
// An Evaluator serves one operation: its calls run one after another,
// and each referenced view is materialized once for all of them.
// Concurrent operations build an evaluator each over the same DB and
// registry, which are safe for that.
type Evaluator struct {
	DB    *DB
	Views ViewSource
	// Store, when non-nil, replaces DB as the storage backend behind
	// base-table scans (views still materialize through Views). It is
	// how the fault harness swaps in an error-injecting backend; see
	// Storage in storage.go for the contract.
	Store Storage
	// Workers sizes the worker pool of the vectorized kernels: 0 means
	// GOMAXPROCS, 1 forces the serial path. Results are byte-identical
	// at every setting (see DESIGN.md, "Parallel execution & search"):
	// workers claim fixed-size morsels whose boundaries depend only on
	// the input, and per-morsel results commit in morsel order.
	Workers int
	// Metrics, when non-nil, receives per-kernel row counters, stage
	// timers, pool activity and view-cache hit/miss counts, and tags
	// worker goroutines with pprof labels. Nil (the default) keeps every
	// hook a no-op with no allocations on the hot path.
	Metrics *obs.Metrics

	cache map[string]*ColTable // materialized views, by name
	mt    atomic.Pointer[evMetrics]
	// tk is the task of the call running: the evaluator's calls run one
	// after another, so it is the evaluator's own (newTask).
	tk task
}

// newTask readies the evaluator's task for a call under ctx.
func (ev *Evaluator) newTask(ctx context.Context) *task {
	ev.tk.start(ctx)
	return &ev.tk
}

// NewEvaluator builds an evaluator over a database; views may be nil.
func NewEvaluator(db *DB, views ViewSource) *Evaluator {
	return &Evaluator{DB: db, Views: views}
}

// store returns the active storage backend.
func (ev *Evaluator) store() Storage {
	if ev.Store != nil {
		return ev.Store
	}
	return ev.DB
}

// ExecContext evaluates the query and returns its result relation, whose
// attribute names come from ir.OutputNames. It is ExecColumns over the
// query's plan, derived here, with the result boxed into rows: the entry
// point of the callers that read tuples — the oracles, the CLI. Each
// call adds the cells it boxed to engine.result.cells_boxed.
func (ev *Evaluator) ExecContext(ctx context.Context, q *ir.Query) (*Relation, error) {
	ct, err := ev.ExecColumns(ctx, NewPlan(q))
	if err != nil {
		return nil, err
	}
	return ev.Box(ct), nil
}

// Box returns ct's rows as a Relation of its own, adding the cells it
// boxed to engine.result.cells_boxed. A result's attribute names are its
// plan's, so the Relation gets a copy.
func (ev *Evaluator) Box(ct *ColTable) *Relation {
	ev.metrics().cellsBoxed.Add(int64(ct.n * len(ct.cols)))
	r := ct.Relation()
	r.Attrs = slices.Clone(r.Attrs)
	return r
}

// Plan is what executing a query derives from the query alone, whatever
// the data: the WHERE clause by class, the columns the scans bind, the
// FROM table of each column, the aggregate occurrences, the output names
// and the pprof label. A prepared statement derives it once and runs it
// as often as it is asked; ExecContext, a view's materialization and a
// query run once derive it inline and run the same code. A Plan is
// read-only: concurrent evaluators may run one.
type Plan struct {
	q      *ir.Query
	where  whereClasses
	need   []bool
	tab    []int32 // the FROM table of each ColID (Batch.tab)
	specs  []aggSpec
	aggIdx map[*ir.Agg]int
	agg    bool // an aggregation query: specs and aggIdx are its aggregates
	names  []string
	label  pprof.LabelSet
}

// NewPlan derives q's plan. q must not change afterwards.
func NewPlan(q *ir.Query) *Plan {
	p := &Plan{q: q, where: classifyWhere(q), need: neededCols(q), tab: make([]int32, q.NumCols()), names: ir.OutputNames(q)}
	srcs := make([]string, len(q.Tables))
	for ti, tab := range q.Tables {
		srcs[ti] = tab.Source
		for _, id := range tab.Cols {
			p.tab[id] = int32(ti)
		}
	}
	p.label = pprof.Labels("aggview_query", strings.Join(srcs, ","))
	if p.agg = q.IsAggregationQuery(); p.agg {
		var aggs []*ir.Agg
		aggs, p.aggIdx = collectAggs(q)
		p.specs = aggSpecs(aggs)
	}
	return p
}

// ExecColumns evaluates the plan's query under a context and returns the
// result as the output stage produced it: typed columns, rows never
// boxed. Cancellation and deadline expiry are observed at morsel
// granularity inside every kernel (scan, join, filter, aggregation) and
// inside the view cache; a budget.Meter attached to the context
// (budget.WithMeter) caps the total rows processed — including rows
// spent materializing referenced views — the bytes of columnar data
// materialized, and the view-cache entries created. On abort the worker
// pools drain fully and ExecColumns returns a typed *budget.Canceled or
// *budget.Exceeded — never a partial result. With Metrics attached the
// whole evaluation runs under a pprof label naming the query's FROM
// sources, so CPU and goroutine profiles attribute worker time to the
// query that spawned it (labels are inherited by child goroutines).
func (ev *Evaluator) ExecColumns(ctx context.Context, p *Plan) (*ColTable, error) {
	ct, err := ev.run(ev.newTask(ctx), p)
	if err != nil {
		return nil, err
	}
	ev.metrics().resultRows.Add(int64(ct.n))
	return ct, nil
}

// run is the labeled evaluation entry shared by ExecColumns and view
// materialization, so nested executions inherit the caller's task (one
// context, one budget pool, one injector per operation).
func (ev *Evaluator) run(t *task, p *Plan) (*ColTable, error) {
	st := t.sp.StartStage("engine.exec")
	out, err := ev.runLabeled(t, p)
	if err != nil {
		st.End(0)
		return nil, err
	}
	st.End(int64(out.n))
	return out, nil
}

// runLabeled applies the metrics stopwatch and pprof labels around exec.
func (ev *Evaluator) runLabeled(t *task, p *Plan) (*ColTable, error) {
	if ev.Metrics == nil {
		return ev.exec(t, p)
	}
	var out *ColTable
	var err error
	sw := ev.metrics().execNs.Start()
	pprof.Do(t.ctx, p.label, func(context.Context) {
		out, err = ev.exec(t, p)
	})
	sw.Stop()
	return out, err
}

// exec is the unlabeled evaluation body behind ExecColumns. An aggregation
// over one table is a single pipeline: aggregate scans, filters and
// folds it in one morsel pass. Anything else filters each table into a
// selection, joins selections into index vectors, and runs the fold (or
// the projection) over the joined rows. The selections and pairs built
// on the way go back to their pools as exec returns: the result holds no
// pooled memory — its cells are its own, or a stored chunk's that a
// projection read whole (vecOperand.cells), which no writer touches.
func (ev *Evaluator) exec(t *task, p *Plan) (*ColTable, error) {
	q := p.q
	mt := ev.metrics()
	mt.exec.Inc()
	defer t.release(len(t.held))
	cts, ok, err := ev.scanPlan(t, p)
	if err != nil {
		return nil, err
	}
	var out *ColTable
	var bound Batch // the stored tables' columns bound into the query's ColIDs
	if ok {
		bound = p.bindTables(cts)
	}
	if ok && p.agg && len(q.Tables) == 1 {
		bound.n = cts[0].n
		out, err = ev.aggregate(t, p, &bound, p.where.perTable[0], true)
	} else {
		var b *Batch
		if !ok {
			b = newBatch(q.NumCols()) // a false constant predicate: empty input
		} else if b, err = ev.joinBatch(t, p, cts, bound); err != nil {
			return nil, err
		}
		if p.agg {
			out, err = ev.aggregate(t, p, b, nil, false)
		} else {
			out, err = ev.projectBatch(t, q, b)
		}
	}
	if err != nil {
		return nil, err
	}
	if q.Distinct {
		out = distinctRows(out)
	}
	out.attrs = p.names
	return out, nil
}

// projectBatch evaluates the SELECT list of a non-aggregation query over
// the batch. Each morsel yields chunk k of every result column — the
// stored chunk itself for a column read whole and unfiltered, its cells
// copied into a typed vector otherwise (vecOperand.cells) — so row order
// is the batch's. A one-morsel batch is projected inline.
func (ev *Evaluator) projectBatch(t *task, q *ir.Query, b *Batch) (*ColTable, error) {
	ms := allMorsels(b.n)
	var parts [][]Vec
	if ms.count() == 1 {
		w := ev.inline()
		part, err := w.project(q, b, 0, b.n)
		putScratch(w)
		if err == nil {
			err = t.charge(ev, "project", int64(b.n))
		}
		if err != nil {
			return nil, err
		}
		parts = [][]Vec{part}
	} else {
		slots := make([][]Vec, ms.count())
		err := ev.morselRun(t, "project", ev.workersFor(b.n), ms, func(w *scratch, k, lo, hi int) error {
			var err error
			slots[k], err = w.project(q, b, lo, hi)
			return err
		})
		if err != nil {
			return nil, err
		}
		parts = slots
	}
	ev.metrics().projectRows.Add(int64(b.n))
	return resultTable(len(q.Select), b.n, parts), nil
}

// project evaluates the SELECT list over the morsel [lo, hi) of b: chunk
// k of every result column.
func (w *scratch) project(q *ir.Query, b *Batch, lo, hi int) ([]Vec, error) {
	rs := w.rows(b, lo, hi)
	part := make([]Vec, len(q.Select))
	for c, it := range q.Select {
		o, err := evalVop(it.Expr, rs)
		if err != nil {
			return nil, err
		}
		part[c] = o.cells(rs.n())
	}
	return part, nil
}

// distinctRows returns ct without the rows that repeat an earlier one.
// The columns are the keys of a group index fed a chunk at a time,
// exactly as GROUP BY numbers groups (keyOperand), and the rows that
// created a group are the first appearances, in order; a float cell
// comes out as its canonical member, as a float group key does.
func distinctRows(ct *ColTable) *ColTable {
	w := getScratch()
	defer putScratch(w)
	var gk groupKeys
	w.gi.reset(&gk)
	keep := make([]int32, 0, ct.n)
	for m := 0; m < morselCount(ct.n); m++ {
		lo, hi := morselBounds(m, ct.n)
		w.keys = w.keys[:0]
		for _, col := range ct.cols {
			w.keys = append(w.keys, keyOperand(denseOperand(&col.chunks[m].Vec)))
		}
		w.gids = room(w.gids, hi-lo)
		w.gi.assign(w.keys, hi-lo, &w.hs, w.gids, false)
		for _, j := range w.gi.newJ {
			keep = append(keep, int32(lo)+j)
		}
	}
	if gk.n > maxPooledGroups {
		w.gi = groupIndex{}
	}
	// A float column's cells come out canonical, so only a table without
	// one is handed back as it is.
	if len(keep) == ct.n && !slices.ContainsFunc(ct.cols, func(c *column) bool { return c.kind == value.KindFloat }) {
		return ct
	}
	parts := make([][]Vec, morselCount(len(keep)))
	for k := range parts {
		lo, hi := morselBounds(k, len(keep))
		w.rs.used = 0
		parts[k] = make([]Vec, len(ct.cols))
		for c, col := range ct.cols {
			parts[k][c] = denseOperand(w.rs.gather(col, keep[lo:hi])).cells(hi - lo)
			canonFloats(parts[k][c].floats)
		}
	}
	return resultTable(len(ct.cols), len(keep), parts)
}

// resolve finds the columnar table behind a FROM source name. Base
// relations come from the storage backend; each Scan call is observed
// by the fault injector's storage site and its image is charged against
// the memory budget. A storage error aborts the operation and is never
// cached.
//
// A view is materialized on its first resolve and memoized for the
// evaluator's operation. Only a success is memoized: a materialization
// aborted by cancellation, budget exhaustion or an injected fault
// returns its typed error, and a later resolve runs it again under its
// own context and budget.
func (ev *Evaluator) resolve(t *task, name string) (*ColTable, error) {
	t.inj.Observe(faultinject.SiteStorage, 1)
	if err := t.poll(ev, "storage"); err != nil {
		return nil, err
	}
	ct, found, err := ev.store().Scan(name)
	if err != nil {
		return nil, err
	}
	if found {
		if err := t.allocBytes(ev, "storage", ct.Bytes()); err != nil {
			return nil, err
		}
		return ct, nil
	}
	t.inj.Observe(faultinject.SiteCache, 1)
	if err := t.poll(ev, "view_cache"); err != nil {
		return nil, err
	}
	ct, ok := ev.cache[name]
	if ok {
		ev.metrics().cacheHit.Inc()
	} else {
		ev.metrics().cacheMiss.Inc()
		if ct, err = ev.materialize(t, name); err != nil {
			return nil, err
		}
		if ev.cache == nil {
			ev.cache = map[string]*ColTable{}
		}
		ev.cache[name] = ct
	}
	if err := t.allocBytes(ev, "view_cache", ct.Bytes()); err != nil {
		return nil, err
	}
	return ct, nil
}

// materialize evaluates the named view's definition into its stored
// image. With Metrics attached it runs under a pprof label naming the
// view.
func (ev *Evaluator) materialize(t *task, name string) (*ColTable, error) {
	var def *ir.ViewDef
	if ev.Views != nil {
		def, _ = ev.Views.Get(name)
	}
	if def == nil {
		return nil, fmt.Errorf("engine: no relation or view named %q", name)
	}
	var ct *ColTable
	var err error
	if ev.Metrics == nil {
		ct, err = ev.run(t, NewPlan(def.Def))
	} else {
		pprof.Do(t.ctx, pprof.Labels("aggview_view", name), func(context.Context) {
			ct, err = ev.run(t, NewPlan(def.Def))
		})
	}
	if err != nil {
		return nil, fmt.Errorf("engine: materializing view %s: %w", name, err)
	}
	// The result is the stored image: named as the view names its
	// columns and, now that scans will read it, ranged.
	ct.attrs = append([]string{}, def.OutCols...)
	for _, col := range ct.cols {
		col.setRanges()
	}
	return ct, nil
}

// chargeRows charges n rows at the named site (with injector
// observation and cancellation polls at morsel granularity) without
// doing per-row work — the accounting of a scan that binds columns by
// reference instead of copying rows.
func (ev *Evaluator) chargeRows(t *task, site string, n int) error {
	ev.metrics().poolSerial.Inc()
	for lo := 0; lo < n; lo += morselRows {
		if err := t.charge(ev, site, int64(min(morselRows, n-lo))); err != nil {
			return err
		}
	}
	return nil
}

// neededCols marks every ColID referenced by the query's SELECT, WHERE,
// GROUP BY, or HAVING clauses; scans prune the rest (they would flow
// through the pipeline only to be dropped by the projection).
func neededCols(q *ir.Query) []bool {
	need := make([]bool, q.NumCols())
	mark := func(c ir.ColID) { need[c] = true }
	for _, it := range q.Select {
		ir.WalkExprCols(it.Expr, mark)
	}
	for _, h := range q.Having {
		ir.WalkExprCols(h.L, mark)
		ir.WalkExprCols(h.R, mark)
	}
	for _, g := range q.GroupBy {
		mark(g)
	}
	for _, p := range q.Where {
		if !p.L.IsConst {
			mark(p.L.Col)
		}
		if !p.R.IsConst {
			mark(p.R.Col)
		}
	}
	return need
}

// whereClasses is the WHERE clause sorted by what each conjunct needs
// bound: nothing (constants on both sides, decided once), one table
// (pushed down to its scan, in WHERE order), two tables under equality
// (a join key), anything else (a residual, filtered once the tables it
// names are joined). scanPlan executes this classification and Explain
// prints it, so the two cannot disagree.
type whereClasses struct {
	consts   []ir.Pred
	perTable [][]ir.Pred
	joinEq   []ir.Pred
	residual []ir.Pred
}

func classifyWhere(q *ir.Query) whereClasses {
	wc := whereClasses{perTable: make([][]ir.Pred, len(q.Tables))}
	for _, p := range q.Where {
		lt, rt := -1, -1
		if !p.L.IsConst {
			lt = q.Col(p.L.Col).Table
		}
		if !p.R.IsConst {
			rt = q.Col(p.R.Col).Table
		}
		switch {
		case lt < 0 && rt < 0:
			wc.consts = append(wc.consts, p)
		case lt < 0 || rt < 0 || lt == rt:
			wc.perTable[max(lt, rt)] = append(wc.perTable[max(lt, rt)], p)
		case p.Op == ir.OpEq:
			wc.joinEq = append(wc.joinEq, p)
		default:
			wc.residual = append(wc.residual, p)
		}
	}
	return wc
}

// scanPlan resolves the plan's tables and decides its constant
// predicates. ok is false (with a nil error) when a constant predicate
// was false: the result is empty.
func (ev *Evaluator) scanPlan(t *task, p *Plan) (cts []*ColTable, ok bool, err error) {
	q := p.q
	cts = make([]*ColTable, 0, len(q.Tables))
	for _, tab := range q.Tables {
		ct, err := ev.resolve(t, tab.Source)
		if err != nil {
			return nil, false, err
		}
		// Serial loop: scan stages land in FROM order at every worker
		// count (view materialization nests its own engine.exec stage
		// just before the view's scan stage).
		if t.sp.Enabled() {
			t.sp.Stage("scan:"+tab.Source, int64(ct.n))
		}
		if len(ct.cols) != len(tab.Cols) {
			return nil, false, fmt.Errorf("engine: %s has %d columns, query expects %d", tab.Source, len(ct.cols), len(tab.Cols))
		}
		cts = append(cts, ct)
	}
	for _, c := range p.where.consts {
		// Constant-only predicate: evaluate it once.
		holds, err := constPred(c)
		if err != nil || !holds {
			return nil, false, err // a false predicate: empty result
		}
	}
	return cts, true, nil
}

// joinStep is one step of the join order: table next joins the tables
// taken before it on the equality predicates keys (none: a cross
// product).
type joinStep struct {
	next int
	keys []ir.Pred
}

// joinOrder is the greedy join order over tables of the given (filtered)
// row counts: start with the smallest table; then take, each time, the
// smallest table an equality predicate connects to those already taken,
// or the smallest of the rest when none is connected. Ties go to FROM
// order.
func joinOrder(q *ir.Query, rows []int, joinEq []ir.Pred) (first int, steps []joinStep) {
	n := len(rows)
	tableOf := func(c ir.ColID) int { return q.Col(c).Table }
	for i := 1; i < n; i++ {
		if rows[i] < rows[first] {
			first = i
		}
	}
	var jbuf [4]bool
	joined := jbuf[:0]
	for range n {
		joined = append(joined, false)
	}
	joined[first] = true
	// connects reports whether p joins table i with a table already taken.
	connects := func(p ir.Pred, i int) bool {
		lt, rt := tableOf(p.L.Col), tableOf(p.R.Col)
		return (lt == i && joined[rt]) || (rt == i && joined[lt])
	}
	pending := joinEq
	for len(steps) < n-1 {
		next, connected := -1, false
		for i := 0; i < n; i++ {
			if joined[i] {
				continue
			}
			conn := false
			for _, p := range pending {
				if conn = connects(p, i); conn {
					break
				}
			}
			switch {
			case conn && !connected:
				next, connected = i, true
			case conn == connected && (next == -1 || rows[i] < rows[next]):
				next = i
			}
		}
		var keys, rest []ir.Pred
		for _, p := range pending {
			if connects(p, next) {
				keys = append(keys, p)
			} else {
				rest = append(rest, p)
			}
		}
		pending = rest
		joined[next] = true
		steps = append(steps, joinStep{next, keys})
	}
	return first, steps
}

// joinBatch evaluates the FROM and WHERE clauses into one batch over the
// query's ColID space: each table's pushed-down filter becomes its
// selection (a predicate-free scan selects nothing and copies nothing),
// and the join order composes the selections.
func (ev *Evaluator) joinBatch(t *task, p *Plan, cts []*ColTable, bound Batch) (*Batch, error) {
	q, wc := p.q, &p.where
	mt := ev.metrics()
	n := len(q.Tables)
	tableOf := func(c ir.ColID) int { return q.Col(c).Table }

	// One allocation holds the tables' batches and one for their
	// selections; the slices over them stay on the stack for a FROM
	// clause of up to four tables.
	tbs, sels := make([]Batch, n), make([][]int32, n*n)
	var fbuf [4]*Batch
	var rbuf, obuf [4]int
	var jbuf [4]bool
	filtered, rows := fbuf[:0], rbuf[:0]
	swScan := mt.scanNs.Start()
	for i, ct := range cts {
		sel := sels[i*n : (i+1)*n : (i+1)*n]
		tb := &tbs[i]
		*tb = Batch{n: ct.n, cols: bound.cols, tab: bound.tab, sel: sel}
		ms := ev.scanMorsels(tb, wc.perTable[i])
		if preds := wc.perTable[i]; len(preds) > 0 {
			keep, err := ev.filterSel(t, "scan", tb, preds, nil, ms)
			if err != nil {
				return nil, err
			}
			if len(keep) < tb.n {
				sel[i], tb.n = keep, len(keep)
			}
		} else if err := ev.chargeRows(t, "scan", tb.n); err != nil {
			return nil, err
		}
		mt.scanRows.Add(int64(ms.rows()))
		mt.scanKept.Add(int64(tb.n))
		filtered, rows = append(filtered, tb), append(rows, tb.n)
	}
	swScan.Stop()

	swJoin := mt.joinNs.Start()
	defer swJoin.Stop()
	first, steps := joinOrder(q, rows, wc.joinEq)
	current := filtered[first]
	joined := jbuf[:0]
	for range n {
		joined = append(joined, false)
	}
	joined[first] = true
	order := append(obuf[:0], first)
	pendingRes := wc.residual
	for _, st := range steps {
		merged, err := ev.hashJoinBatch(t, current, filtered[st.next], order, st.keys, st.next)
		if err != nil {
			return nil, err
		}
		current = merged
		joined[st.next] = true
		order = append(order, st.next)

		// Apply residual predicates that are now fully bound.
		var nowBound, rest []ir.Pred
		for _, r := range pendingRes {
			if (r.L.IsConst || joined[tableOf(r.L.Col)]) && (r.R.IsConst || joined[tableOf(r.R.Col)]) {
				nowBound = append(nowBound, r)
			} else {
				rest = append(rest, r)
			}
		}
		pendingRes = rest
		if len(nowBound) > 0 {
			keep, err := ev.filterSel(t, "filter", current, nowBound, nil, allMorsels(current.n))
			if err != nil {
				return nil, err
			}
			if len(keep) < current.n {
				if current, err = current.pick(t, ev, "filter", keep, order); err != nil {
					return nil, err
				}
			}
		}
	}
	return current, nil
}

func constPred(p ir.Pred) (bool, error) {
	return compare(p.Op, p.L.Val, p.R.Val)
}

// compare applies a comparison operator; incomparable kinds compare
// false (no implicit casts beyond int/float).
func compare(op ir.Op, l, r value.Value) (bool, error) {
	if !value.Comparable(l, r) {
		return op == ir.OpNeq, nil
	}
	c := value.Compare(l, r)
	switch op {
	case ir.OpEq:
		return c == 0, nil
	case ir.OpNeq:
		return c != 0, nil
	case ir.OpLt:
		return c < 0, nil
	case ir.OpLeq:
		return c <= 0, nil
	case ir.OpGt:
		return c > 0, nil
	case ir.OpGeq:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("engine: unknown operator %v", op)
	}
}
