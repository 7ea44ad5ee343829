// Package maintain keeps materialized aggregation views consistent
// under base-table inserts, deletes and updates. The paper treats view
// maintenance as orthogonal ([BLT86, GMS93]) but its motivating
// scenarios — warehouse summary tables, chronicle ledgers — assume
// somebody maintains the materializations; this package is that
// somebody. It is also the one way rows enter a base table: every write
// is an ApplyContext batch, which checks the rows (arity, the kind rule,
// then the declared keys and FDs) before anything is staged.
//
// Maintenance follows the counting algorithm of GMS93. Each group of a
// tracked aggregation view carries a multiplicity count n (the number
// of contributing joined rows) plus per-aggregate auxiliary state:
// running SUM totals, a float running total for AVG, and a value →
// multiplicity multiset for MIN/MAX. A mutation against one base table
// becomes one signed delta table — its deleted rows with sign −1, its
// inserted rows with sign +1, the sign an extra column — and each
// dependent view runs one delta query over it: the definition with that
// table bound to the delta table, grouped by the view's grouping columns
// plus its MIN/MAX arguments, selecting SUM(sign × arg) per SUM/AVG and
// SUM(sign) as the multiplicity. That is exact when the table occurs
// exactly once in the definition (joins are bilinear). The maintainer
// reads the result as typed columns and coalesces its finer groups into
// the view's (Ex. 4.1's move): n and the sums add up, and each MIN/MAX
// multiset takes a Δcount per value. A MIN/MAX whose extremum's
// multiplicity reaches zero is re-derived by re-scanning the group's
// surviving value multiset; a group whose n reaches zero leaves the
// materialization. Tracking and a recompute seed the same state
// from the same query run over the tables themselves, every row signed
// +1. Groups and multiset values are keyed by their cells' canonical
// keys (value.AppendKey), which are self-delimiting: concatenated, they
// are equal exactly when value.KeyEqual holds cell by cell, and never
// collide. Views outside the incrementally maintainable class
// (DISTINCT, HAVING, self-joins over the changed table, MIN/MAX over
// non-column arguments, dependence through a nested view) fall back to
// full recomputation — counted on the `maintain.fallback.full` metric
// and named per view by Maintainer.Mode — so every mutation is always
// correct.
//
// Batches apply atomically: every delta evaluation and recomputation
// runs first, against the pre-mutation state (plus previously staged
// tables of the same batch); only when all of them have succeeded are
// the new base relations and materializations installed, in one
// engine.DB.Apply critical section. A cancellation — including one
// injected at faultinject.SiteMaintain — therefore leaves the database
// exactly as it was. Readers that pin an engine.Snapshot see either
// none or all of a batch, never a half-applied mix; maintained
// materializations install silently (engine.Commit.Silent), so warm
// prepared plans over a view that absorbed its delta are not evicted.
package maintain

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"aggview/internal/budget"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// Maintainer propagates base-table mutations to tracked
// materializations.
type Maintainer struct {
	db    *engine.DB
	views *ir.Registry

	// Metrics, when set, observes maintenance decisions:
	// maintain.fallback.full counts full recomputations (shape or
	// self-join fallbacks), maintain.batch.apply counts committed
	// batches, maintain.delta.rows counts delta rows merged. The delta
	// and recompute evaluations report to it too (engine.exec,
	// engine.result.cells_boxed, ...).
	Metrics *obs.Metrics
	// Workers sizes the worker pools of the delta and recompute
	// evaluations (0 = serial), like engine.Evaluator.Workers.
	Workers int

	mu       sync.Mutex
	tracked  map[string]*state
	declared map[string][]*declared // lowercased table -> its keys and FDs (DeclareKey)
}

// Mutation is one base table's part of an atomic batch: rows to remove
// (matched as a multiset against the stored rows) and rows to add.
type Mutation struct {
	Table   string
	Deletes [][]value.Value
	Inserts [][]value.Value
	// At, when set, gives Deletes[i]'s position in the stored table (the
	// caller matched the rows by scanning it). It is a hint: positions
	// that do not hold their row fall back to the value probe.
	At []int32
}

// Fallback names why a tracked view is recomputed in full instead of
// absorbing counting deltas. The first six are shapes, decided by the
// definition alone, and hold for every change; a self-join and a
// view-over-view fall back for changes to the tables they involve.
type Fallback string

const (
	FallbackDistinct  Fallback = "distinct"               // a delete can resurrect a suppressed duplicate
	FallbackHaving    Fallback = "having"                 // a delete can re-admit a filtered group
	FallbackMinMaxArg Fallback = "minmax-non-column-arg"  // the value-multiset delta query groups by the argument, and GROUP BY holds columns only
	FallbackBareItem  Fallback = "ungrouped-select-item"  // a bare column that is not a grouping column
	FallbackComputed  Fallback = "computed-select-item"   // a select item that is neither a column nor one aggregate
	FallbackLossyKey  Fallback = "group-key-not-selected" // two groups would collide in the materialization index
	FallbackSelfJoin  Fallback = "self-join"              // the delta of a table occurring twice is not bilinear
	FallbackViaView   Fallback = "view-over-view"         // dependence on a table flows through a nested view
)

// state is one tracked view's counting state.
type state struct {
	def *ir.ViewDef
	// incremental is false when the view's shape needs full
	// recomputation on every change; reason then names the shape. For an
	// incremental shape reason names the table-level fallback, if any.
	incremental bool
	reason      Fallback
	// conjunctive marks a view maintained as a plain bag of projected
	// rows (no aggregation).
	conjunctive bool
	// groupPos lists the select positions holding grouping columns;
	// aggs the positions holding aggregate outputs.
	groupPos []int
	aggs     []aggOut
	// seed is an incremental view's delta query over the tables
	// themselves, every row signed +1: the view's group columns, then
	// its MIN/MAX argument columns (grouped by too), SUM(arg) per
	// SUM/AVG and a trailing COUNT(*) at nAt — or, for a conjunctive
	// view, the definition itself. delta holds, per table the
	// definition reads once (lowercased), the same query with that
	// table's occurrence carrying the sign column: SUM(sign × arg) and
	// SUM(sign) — or the definition selecting the sign last.
	seed  *ir.Query
	delta map[string]*ir.Query
	nAt   int
	// direct counts direct FROM occurrences per lowercased base table;
	// trans marks every transitive base table; viaView marks tables
	// whose dependence flows through a nested view (delta-unsafe).
	direct  map[string]int
	trans   map[string]bool
	viaView map[string]bool
	depth   int // nesting depth over other tracked views, for commit order
	// groups is the counting state of an incremental aggregation view
	// (nil for any other view); every row of the materialization is built
	// from it (touched.row), never by executing the definition.
	groups map[cellKey]*group
	// tab is the installed materialization.
	tab *engine.ColTable
}

type aggOut struct {
	pos int // select position in the view definition
	fn  ir.AggFunc
	at  int // position in the delta query's select of the SUM (SUM, AVG) or the argument (MIN, MAX); unused for COUNT
}

// tally is one group's multiplicity and auxiliary aggregate state.
type tally struct {
	groupVals []value.Value
	n         int64
	aggs      []aggState
}

// group is a live group: its tally and the position of its row in the
// installed materialization.
type group struct {
	tally
	pos int
}

// aggState is the auxiliary state of one aggregate output in one group.
type aggState struct {
	sum value.Value // SUM: running total, typed like the engine's fold
	avg float64     // AVG: running float total
	// vals is a live group's MIN/MAX value multiset; deltas a touched
	// group's Δcount per value, in the order the batch first met them.
	vals   map[cellKey]mmEntry
	deltas []mmDelta
}

type mmEntry struct {
	v value.Value
	n int64
}

type mmDelta struct {
	k cellKey
	mmEntry
}

// findDelta returns the delta of the value whose key bytes are k, or nil.
func findDelta(ds []mmDelta, k []byte) *mmDelta {
	for i := range ds {
		if string(ds[i].k) == string(k) {
			return &ds[i]
		}
	}
	return nil
}

// New builds a maintainer over a database and view registry.
func New(db *engine.DB, views *ir.Registry) *Maintainer {
	return &Maintainer{db: db, views: views, tracked: map[string]*state{}}
}

// evaluator builds a fresh engine evaluator reading store (nil: the live
// database) and reporting to the maintainer's metrics.
func (m *Maintainer) evaluator(store engine.Storage) *engine.Evaluator {
	ev := engine.NewEvaluator(m.db, m.views)
	ev.Store, ev.Workers, ev.Metrics = store, m.Workers, m.Metrics
	return ev
}

// TrackContext materializes the named view (if needed) and begins
// maintaining it. It reports whether maintenance is incremental or
// recompute-based. Cancellation and deadline expiry abort the initial
// materialization with a typed error.
func (m *Maintainer) TrackContext(ctx context.Context, name string) (incremental bool, err error) {
	v, ok := m.views.Get(name)
	if !ok {
		return false, fmt.Errorf("maintain: unknown view %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &state{def: v}
	st.reason = classify(v.Def, st)
	st.incremental = st.reason == ""
	st.resolveSources(m.views, m.tracked)
	if st.incremental {
		st.reason = st.tableFallback()
		buildDelta(st)
	}
	tab, groups, err := m.rebuild(ctx, st, nil)
	if err != nil {
		return false, err
	}
	// A loud install, as DB.Put's: plans that evaluated the view on the
	// fly can now scan it.
	st.groups, st.tab = groups, m.db.Apply([]engine.Commit{{Name: v.Name, Table: tab}})[0]
	m.tracked[strings.ToLower(name)] = st
	return st.incremental, nil
}

// rebuild derives a tracked view's materialization, and the counting
// state that goes with it, from store (nil: the live database) in full:
// what TrackContext and a recompute inside a batch each need. An
// incremental aggregation view is seeded from its seed query and its
// rows are built from the seeded groups, each as a group a batch creates
// (touched.row), in the order the seed query's rows first name them —
// the definition's own group order: the two share FROM and WHERE, the
// seed's GROUP BY only refines the definition's, and the engine emits
// groups in first-appearance order. Any other view is its definition,
// executed, and has no groups.
func (m *Maintainer) rebuild(ctx context.Context, st *state, store engine.Storage) (*engine.ColTable, map[cellKey]*group, error) {
	ev := m.evaluator(store)
	rel := &engine.Relation{Attrs: append([]string{}, st.def.OutCols...)}
	if !st.incremental || st.conjunctive {
		res, err := ev.ExecContext(ctx, st.def.Def)
		if err != nil {
			return nil, nil, err
		}
		rel.Tuples = res.Tuples
		return engine.BuildColTable(rel), nil, nil
	}
	order, groups, err := seedGroups(ctx, ev, st)
	if err != nil {
		return nil, nil, err
	}
	w := len(st.def.Def.Select)
	cells := make([]value.Value, len(order)*w)
	rel.Tuples = make([][]value.Value, len(order))
	for i, g := range order {
		rel.Tuples[i] = (&touched{live: g, next: g.tally}).row(st, nil, cells[i*w:(i+1)*w:(i+1)*w])
	}
	return engine.BuildColTable(rel), groups, nil
}

// classify fills the select-position metadata and names the shape that
// rules counting deltas out, if one does.
func classify(def *ir.Query, st *state) Fallback {
	switch {
	case def.Distinct:
		return FallbackDistinct
	case len(def.Having) > 0:
		return FallbackHaving
	case !def.IsAggregationQuery():
		st.conjunctive = true
		return ""
	}
	grouped := map[ir.ColID]bool{}
	for _, g := range def.GroupBy {
		grouped[g] = true
	}
	selected := map[ir.ColID]bool{}
	for pos, it := range def.Select {
		switch x := it.Expr.(type) {
		case *ir.ColRef:
			if !grouped[x.Col] {
				return FallbackBareItem
			}
			selected[x.Col] = true
			st.groupPos = append(st.groupPos, pos)
		case *ir.Agg:
			fn := x.Func
			if x.Star {
				fn = ir.AggCount
			}
			switch fn {
			case ir.AggSum, ir.AggCount, ir.AggAvg:
			case ir.AggMin, ir.AggMax:
				if _, ok := x.Arg.(*ir.ColRef); !ok {
					return FallbackMinMaxArg
				}
			default:
				return FallbackComputed
			}
			st.aggs = append(st.aggs, aggOut{pos: pos, fn: fn})
		default:
			return FallbackComputed
		}
	}
	for _, g := range def.GroupBy {
		if !selected[g] {
			return FallbackLossyKey
		}
	}
	return ""
}

// tableFallback names why changes to some of the view's tables are not
// absorbed as deltas although its shape admits them, if that is so.
func (st *state) tableFallback() Fallback {
	if len(st.viaView) > 0 {
		return FallbackViaView
	}
	for _, n := range st.direct {
		if n > 1 {
			return FallbackSelfJoin
		}
	}
	return ""
}

// resolveSources fills the direct/transitive base-table maps, expanding
// FROM sources that name registry views — every base table reached
// through one is view-mediated (delta-unsafe) — and computes the nesting
// depth over the already-tracked views.
func (st *state) resolveSources(views *ir.Registry, tracked map[string]*state) {
	st.direct, st.trans, st.viaView = map[string]int{}, map[string]bool{}, map[string]bool{}
	seen := map[string]bool{}
	var expand func(q *ir.Query, nested bool)
	expand = func(q *ir.Query, nested bool) {
		for _, t := range q.Tables {
			key := strings.ToLower(t.Source)
			v, isView := views.Get(t.Source)
			switch {
			case !isView && nested:
				st.trans[key], st.viaView[key] = true, true
			case !isView:
				st.trans[key] = true
				st.direct[key]++
			default:
				if under, ok := tracked[key]; !nested && ok && under.depth+1 > st.depth {
					st.depth = under.depth + 1
				} else if !nested && st.depth == 0 {
					st.depth = 1
				}
				if !seen[key] {
					seen[key] = true
					expand(v.Def, true)
				}
			}
		}
	}
	expand(st.def.Def, false)
}

// signAttr names the column a delta table carries after the changed
// table's own: -1 on a deleted row, +1 on an inserted one.
const signAttr = "sign"

// buildDelta constructs an incremental view's seed query and one delta
// query per table the definition reads once.
func buildDelta(st *state) {
	def := st.def.Def
	st.seed = def
	if !st.conjunctive {
		q := def.Clone()
		grouped := map[ir.ColID]bool{}
		for _, g := range q.GroupBy {
			grouped[g] = true
		}
		var sel []ir.SelectItem
		for _, p := range st.groupPos {
			sel = append(sel, ir.SelectItem{Expr: q.Select[p].Expr})
		}
		for i := range st.aggs {
			a := &st.aggs[i]
			if a.fn != ir.AggMin && a.fn != ir.AggMax {
				continue
			}
			col := q.Select[a.pos].Expr.(*ir.Agg).Arg.(*ir.ColRef).Col
			a.at = len(sel)
			sel = append(sel, ir.SelectItem{Expr: &ir.ColRef{Col: col}})
			if !grouped[col] {
				grouped[col] = true
				q.GroupBy = append(q.GroupBy, col)
			}
		}
		for i := range st.aggs {
			a := &st.aggs[i]
			if a.fn == ir.AggSum || a.fn == ir.AggAvg {
				a.at = len(sel)
				sel = append(sel, ir.SelectItem{Expr: &ir.Agg{Func: ir.AggSum, Arg: q.Select[a.pos].Expr.(*ir.Agg).Arg}})
			}
		}
		st.nAt = len(sel)
		q.Select = append(sel, ir.SelectItem{Expr: &ir.Agg{Func: ir.AggCount, Star: true}})
		st.seed = q
	}
	st.delta = map[string]*ir.Query{}
	for ti, t := range def.Tables {
		if name := strings.ToLower(t.Source); st.direct[name] == 1 {
			st.delta[name] = st.signed(ti)
		}
	}
}

// signed returns the seed query with table occurrence ti read from a
// delta table: the occurrence gains the sign column, each SUM(arg)
// becomes SUM(sign × arg) and COUNT(*) becomes SUM(sign) — or, for a
// conjunctive view, the sign is selected last.
func (st *state) signed(ti int) *ir.Query {
	q := st.seed.Clone()
	sign := ir.ColID(len(q.Columns))
	q.Columns = append(q.Columns, ir.Column{ID: sign, Table: ti, Pos: len(q.Tables[ti].Cols), Name: signAttr, Attr: signAttr})
	q.Tables[ti].Cols = append(q.Tables[ti].Cols, sign)
	if st.conjunctive {
		q.Select = append(q.Select, ir.SelectItem{Expr: &ir.ColRef{Col: sign}})
		return q
	}
	for _, a := range st.aggs {
		if a.fn == ir.AggSum || a.fn == ir.AggAvg {
			sum := q.Select[a.at].Expr.(*ir.Agg)
			q.Select[a.at].Expr = &ir.Agg{Func: ir.AggSum, Arg: &ir.Arith{Op: ir.ArithMul, L: &ir.ColRef{Col: sign}, R: sum.Arg}}
		}
	}
	q.Select[st.nAt].Expr = &ir.Agg{Func: ir.AggSum, Arg: &ir.ColRef{Col: sign}}
	return q
}

// signedDelta returns a mutation's deleted and inserted rows as one
// table: attrs plus the sign column, the deleted rows first.
func signedDelta(attrs []string, mut Mutation) *engine.ColTable {
	w := len(attrs) + 1
	n := len(mut.Deletes) + len(mut.Inserts)
	cells, rows := make([]value.Value, n*w), make([][]value.Value, 0, n)
	for _, part := range []struct {
		rows [][]value.Value
		sign int64
	}{{mut.Deletes, -1}, {mut.Inserts, +1}} {
		for _, r := range part.rows {
			row := cells[len(rows)*w : (len(rows)+1)*w : (len(rows)+1)*w]
			copy(row, r)
			row[w-1] = value.Int(part.sign)
			rows = append(rows, row)
		}
	}
	return engine.BuildColTable(&engine.Relation{Attrs: append(attrs[:w-1:w-1], signAttr), Tuples: rows})
}

// cellKey identifies a group by its grouping cells, or a MIN/MAX multiset
// entry by its value: the cells' canonical keys (value.AppendKey),
// concatenated. Each key is self-delimiting, so concatenated keys are
// equal exactly when value.KeyEqual holds cell by cell.
type cellKey string

// cells is one column of one result chunk: its kind and its typed
// cells (ints for an int or bool column).
type cells struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
}

// value returns cell j as a value.
func (c *cells) value(j int) value.Value {
	switch c.kind {
	case value.KindFloat:
		return value.Float(c.floats[j])
	case value.KindString:
		return value.Str(c.strs[j])
	case value.KindBool:
		return value.Bool(c.ints[j] != 0)
	}
	return value.Int(c.ints[j])
}

// appendKey appends cell j's canonical key.
func (c *cells) appendKey(dst []byte, j int) []byte {
	switch c.kind {
	case value.KindFloat:
		return value.AppendFloatKey(dst, c.floats[j])
	case value.KindString:
		return value.AppendStrKey(dst, c.strs[j])
	case value.KindBool:
		return value.AppendBoolKey(dst, c.ints[j] != 0)
	}
	return value.AppendIntKey(dst, c.ints[j])
}

// eachRow calls fn for every row of a query result, in order, with the
// typed cells of the chunk holding it and its index there; nothing is
// boxed but what fn boxes.
func eachRow(res *engine.ColTable, fn func(cs []cells, j int) error) error {
	cs := make([]cells, len(res.Attrs()))
	for k, done, n := 0, 0, res.NumRows(); done < n; k++ {
		rows := 0
		for c := range cs {
			x := &cs[c]
			x.kind, x.ints, x.floats, x.strs = res.Cells(c, k)
			rows = len(x.ints) + len(x.floats) + len(x.strs)
		}
		for j := 0; j < rows; j++ {
			if err := fn(cs, j); err != nil {
				return err
			}
		}
		done += rows
	}
	return nil
}

// groupKey appends the key of row j's first k cells, its group's.
func groupKey(dst []byte, cs []cells, k, j int) []byte {
	for c := range cs[:k] {
		dst = cs[c].appendKey(dst, j)
	}
	return dst
}

// rowValues boxes row j's first k cells: a created group's values, or a
// conjunctive view's row.
func rowValues(cs []cells, k, j int) []value.Value {
	vals := make([]value.Value, k)
	for c := range vals {
		vals[c] = cs[c].value(j)
	}
	return vals
}

// InsertContext appends rows to a base table and updates every tracked
// view that depends on it: an insert-only ApplyContext batch.
func (m *Maintainer) InsertContext(ctx context.Context, table string, rows ...[]value.Value) error {
	return m.ApplyContext(ctx, Mutation{Table: table, Inserts: rows})
}

// staged is one relation as the batch will leave it: a delta over the
// version it was computed against, or (base nil) a whole replacement.
type staged struct {
	name   string
	base   *engine.ColTable
	delta  engine.Delta
	whole  *engine.ColTable // replacement, or base+delta built on first read
	silent bool
}

// table returns the staged relation for a later evaluation of the same
// batch to read. It is derived by copy: only the engine, at commit, may
// advance the installed version in place.
func (s *staged) table() *engine.ColTable {
	if s.whole == nil {
		s.whole = s.base.With(s.delta)
	}
	return s.whole
}

func (s *staged) commit() engine.Commit {
	if s.base == nil {
		return engine.Commit{Name: s.name, Table: s.whole, Silent: s.silent}
	}
	return engine.Commit{Name: s.name, Base: s.base, Delta: s.delta, Silent: s.silent}
}

// pending is one tracked view's staged outcome within a batch. Nothing
// it holds aliases live counting state that the batch changes, so
// dropping it is all an abort needs.
type pending struct {
	st        *state
	recompute bool
	// groups holds the touched groups only (aggregation views).
	groups map[cellKey]*touched
	// conjAdd/conjDel are the row deltas of a conjunctive view.
	conjAdd, conjDel [][]value.Value

	out *staged
	// keys are the touched groups' keys in the order the batch first
	// touched them — created groups append their rows in this order —
	// and drop lists the row positions an incremental aggregation view's
	// vanished groups leave, ascending.
	keys []cellKey
	drop []int32
	// newGroups replaces the counting state after a recompute.
	newGroups map[cellKey]*group
	// buf is the scratch the delta's keys are built in; slab and aggSlab
	// hand out the touched groups and their aggregate states.
	buf     []byte
	slab    []touched
	aggSlab []aggState
}

// touched is one group's staged state. next carries the scalars (n,
// sum, avg) as the batch leaves them; next.aggs[i].deltas carries the
// MIN/MAX value multiplicity deltas, so staging a group costs its delta,
// not its multiset.
type touched struct {
	live *group // nil when the batch creates the group
	next tally
}

// ApplyContext applies an atomic mutation batch: every delta and
// recomputation is evaluated against the pre-batch state (plus earlier
// tables staged within the same batch), and only if all evaluations
// succeed are the new base relations and materializations installed in
// one atomic engine commit. On any error — including a cancellation
// injected at faultinject.SiteMaintain — the database is left exactly
// as it was.
//
// The work is proportional to the batch: deleted rows are removed by
// position, appended rows extend the stored columns, and a view patches
// only the groups its delta touched.
//
// Base-table installs fire the DB invalidation hook (plans scanning the
// table are stale); maintained materializations install silently, so
// warm plans over a view that absorbed its delta survive.
func (m *Maintainer) ApplyContext(ctx context.Context, muts ...Mutation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inj := faultinject.From(ctx)

	// Stage base-table deltas (validating arity and delete multiset
	// membership) without installing anything.
	overlay := map[string]*staged{}
	order := make([]string, 0, len(muts))
	deltaRows := 0
	keyed := map[string]*keyBatch{} // tables with declared keys: what the batch does to them
	for _, mut := range muts {
		key := strings.ToLower(mut.Table)
		var base *engine.ColTable
		if prev, ok := overlay[key]; ok {
			base = prev.table()
		} else {
			var found bool
			if base, found, _ = m.db.Scan(mut.Table); !found {
				return fmt.Errorf("maintain: unknown table %q", mut.Table)
			}
			order = append(order, key)
			if len(m.declared[key]) > 0 {
				keyed[key] = &keyBatch{stored: base}
			}
		}
		delta, err := tableDelta(base, mut)
		if err != nil {
			return err
		}
		if kb := keyed[key]; kb != nil {
			kb.muts = append(kb.muts, mut)
		}
		overlay[key] = &staged{name: key, base: base, delta: delta}
		deltaRows += len(mut.Deletes) + len(mut.Inserts)
	}
	for _, key := range order {
		for _, d := range m.declared[key] {
			kh, err := d.check(keyed[key])
			if err != nil {
				return err
			}
			keyed[key].hashes = append(keyed[key].hashes, kh)
		}
	}

	// Evaluate deltas per mutation, in order: each delta sees the new
	// state of previously processed tables and the old state of later
	// ones, which telescopes to the exact batch result.
	pend := map[string]*pending{}
	committed := map[string]*staged{}
	tracked := m.sortedTrackedLocked()
	for _, mut := range muts {
		key := strings.ToLower(mut.Table)
		// The evaluator of the mutation's delta queries, over its signed
		// delta table in place of the table: built for the first view that
		// reads it, so a write no tracked view depends on costs what the
		// engine's own append does.
		var ev *engine.Evaluator
		for _, name := range tracked {
			st := m.tracked[name]
			if !st.trans[key] {
				continue
			}
			p := pend[name]
			if p == nil {
				p = &pending{st: st}
				pend[name] = p
			}
			if p.recompute {
				continue
			}
			if !st.incremental || st.direct[key] != 1 || st.viaView[key] {
				p.recompute = true
				m.Metrics.Volatile("maintain.fallback.full").Inc()
				continue
			}
			inj.Observe(faultinject.SiteMaintain, 1)
			if err := budget.Check(ctx, "maintain.delta"); err != nil {
				return err
			}
			if len(mut.Deletes)+len(mut.Inserts) == 0 {
				continue
			}
			if ev == nil {
				ev = m.evaluator(&overlayStorage{db: m.db, staged: committed, key: key, delta: signedDelta(overlay[key].base.Attrs(), mut)})
			}
			res, err := ev.ExecColumns(ctx, st.delta[key])
			if err != nil {
				return err
			}
			if err := p.absorb(res); err != nil {
				return err
			}
		}
		committed[key] = overlay[key]
	}

	// Stage the materializations; recompute fallbacks evaluate against
	// the fully mutated base state plus previously staged views, in
	// nesting order.
	names := make([]string, 0, len(pend))
	for name := range pend {
		names = append(names, name)
	}
	m.sortByDepthLocked(names)
	groupsTouched := 0
	for _, name := range names {
		p := pend[name]
		st := p.st
		switch {
		case p.recompute:
			inj.Observe(faultinject.SiteMaintain, 1)
			if err := budget.Check(ctx, "maintain.recompute"); err != nil {
				return err
			}
			tab, groups, err := m.rebuild(ctx, st, &overlayStorage{db: m.db, staged: overlay})
			if err != nil {
				return err
			}
			p.out, p.newGroups = &staged{whole: tab}, groups
		case st.conjunctive:
			drop, ok := st.tab.Locate(p.conjDel)
			if !ok {
				return fmt.Errorf("maintain: view %s lacks a row its delete delta names", st.def.Name)
			}
			p.out = &staged{base: st.tab, delta: engine.Delta{Drop: drop, Append: p.conjAdd}}
		default:
			p.stageAggregation()
			groupsTouched += len(p.groups)
		}
		p.out.name, p.out.silent = st.def.Name, true
		overlay[name] = p.out
	}

	// Final injection point before the commit: the batch is still
	// all-or-nothing because nothing below can fail.
	inj.Observe(faultinject.SiteMaintain, 1)
	if err := budget.Check(ctx, "maintain.commit"); err != nil {
		return err
	}

	batch := make([]engine.Commit, 0, len(order)+len(names))
	for _, key := range order {
		batch = append(batch, overlay[key].commit())
	}
	for _, name := range names {
		batch = append(batch, pend[name].out.commit())
	}
	installed := m.db.Apply(batch)
	for _, key := range order {
		for i, d := range m.declared[key] {
			d.commit(keyed[key].hashes[i])
		}
	}
	for i, name := range names {
		pend[name].fold(installed[len(order)+i])
	}
	m.Metrics.Volatile("maintain.batch.apply").Inc()
	m.Metrics.Volatile("maintain.delta.rows").Add(int64(deltaRows))
	m.Metrics.Volatile("maintain.groups.touched").Add(int64(groupsTouched))
	return nil
}

// sortedTrackedLocked returns tracked view keys in deterministic order.
func (m *Maintainer) sortedTrackedLocked() []string {
	names := make([]string, 0, len(m.tracked))
	for k := range m.tracked {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// sortByDepthLocked orders tracked view keys by nesting depth, then
// name: a view is staged after every view it reads.
func (m *Maintainer) sortByDepthLocked(names []string) {
	sort.Slice(names, func(i, j int) bool {
		a, b := m.tracked[names[i]], m.tracked[names[j]]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return names[i] < names[j]
	})
}

// tableDelta turns one mutation into a positional delta over base, the
// one place rows enter a table and the one place a write's rows are
// checked: arity, then — once the delta has its shape — the kind rule
// (engine.ColTable.Conform: a foreign kind is a typed *engine.KindError
// and the batch aborts cleanly). ApplyContext then checks the declared
// keys and FDs (declared.check). The deleted rows resolve to positions —
// mut.At when it checks out against the stored cells, one typed probe
// otherwise — and an absent row is a typed error.
// A mutation that deletes and inserts equally many rows (an UPDATE)
// overwrites in place, so the columns it leaves alone are shared between
// versions; any other drops the positions and appends.
func tableDelta(base *engine.ColTable, mut Mutation) (engine.Delta, error) {
	for _, rows := range [][][]value.Value{mut.Deletes, mut.Inserts} {
		for _, r := range rows {
			if len(r) != len(base.Attrs()) {
				return engine.Delta{}, fmt.Errorf("maintain: %s expects %d values, got %d", mut.Table, len(base.Attrs()), len(r))
			}
		}
	}
	d := engine.Delta{Append: mut.Inserts}
	if len(mut.Deletes) > 0 {
		pos, sorted := mut.At, sortedDistinct(mut.At)
		if sorted == nil || !holdsRows(base, pos, mut.Deletes) {
			var ok bool
			if pos, ok = base.Locate(mut.Deletes); !ok {
				return engine.Delta{}, fmt.Errorf("maintain: delete of absent row from %s", mut.Table)
			}
			sorted = pos
		}
		if len(mut.Inserts) == len(mut.Deletes) {
			d = engine.Delta{SetAt: pos, SetRows: mut.Inserts}
		} else {
			d.Drop = sorted
		}
	}
	return d, base.Conform(mut.Table, &d)
}

// sortedDistinct returns pos sorted ascending, or nil when pos is empty
// or repeats a position.
func sortedDistinct(pos []int32) []int32 {
	if len(pos) == 0 {
		return nil
	}
	out := append([]int32(nil), pos...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil
		}
	}
	return out
}

// holdsRows reports whether base stores rows[i] at pos[i] for every i.
func holdsRows(base *engine.ColTable, pos []int32, rows [][]value.Value) bool {
	if len(pos) != len(rows) {
		return false
	}
	for i, p := range pos {
		if p < 0 || int(p) >= base.NumRows() {
			return false
		}
		for col, want := range rows[i] {
			if !value.KeyEqual(base.Value(int(p), col), want) {
				return false
			}
		}
	}
	return true
}

// overlayStorage resolves scans against the batch's staged relations
// first, then the live database. It is the engine's view of "the
// database as it will be" (recompute) or, with one table bound to a
// delta's rows, "the database with that table swapped for its delta".
type overlayStorage struct {
	mu     sync.Mutex
	db     *engine.DB
	staged map[string]*staged
	key    string // lowercased table bound to delta; "" for none
	delta  *engine.ColTable
}

// Scan implements engine.Storage.
func (o *overlayStorage) Scan(name string) (*engine.ColTable, bool, error) {
	key := strings.ToLower(name)
	if o.delta != nil && key == o.key {
		return o.delta, true, nil
	}
	if s, ok := o.staged[key]; ok {
		o.mu.Lock()
		defer o.mu.Unlock()
		return s.table(), true, nil
	}
	return o.db.Scan(name)
}

// absorb coalesces one delta query's result into the pending state: a
// conjunctive view's rows split by their sign into the rows to add and
// to remove; an aggregation view's finer groups fold into the view's,
// their multiplicities and sums adding up and each MIN/MAX multiset
// taking its argument value's Δcount.
func (p *pending) absorb(res *engine.ColTable) error {
	st := p.st
	if st.conjunctive {
		w := len(st.def.Def.Select)
		return eachRow(res, func(cs []cells, j int) error {
			row := rowValues(cs, w, j)
			if cs[w].ints[j] > 0 {
				p.conjAdd = append(p.conjAdd, row)
			} else {
				p.conjDel = append(p.conjDel, row)
			}
			return nil
		})
	}
	if p.groups == nil {
		p.groups, p.keys = make(map[cellKey]*touched, res.NumRows()), make([]cellKey, 0, res.NumRows())
	}
	p.slab, p.aggSlab = make([]touched, 0, res.NumRows()), make([]aggState, 0, res.NumRows()*len(st.aggs))
	return eachRow(res, func(cs []cells, j int) error {
		t := p.group(cs, j)
		g := &t.next
		dn := cs[st.nAt].ints[j]
		if g.n += dn; g.n < 0 {
			return fmt.Errorf("maintain: negative multiplicity in view %s", st.def.Name)
		}
		for i, a := range st.aggs {
			as := &g.aggs[i]
			switch a.fn {
			case ir.AggSum, ir.AggAvg:
				// The zero Value is Int(0), the correct additive identity:
				// int groups stay int and a float delta, which a column a
				// float widened brings, makes the sum a float; the view's
				// column widens with it (engine.ColTable.Conform).
				d := cs[a.at].value(j)
				s, err := value.Add(as.sum, d)
				if err != nil {
					return err
				}
				as.sum = s
				as.avg += d.AsFloat()
			case ir.AggMin, ir.AggMax:
				p.buf = cs[a.at].appendKey(p.buf[:0], j)
				d := findDelta(as.deltas, p.buf)
				if d == nil {
					as.deltas = append(as.deltas, mmDelta{cellKey(p.buf), mmEntry{v: cs[a.at].value(j)}})
					d = &as.deltas[len(as.deltas)-1]
				}
				d.n += dn
				if t.liveCount(i, p.buf)+d.n < 0 {
					return fmt.Errorf("maintain: negative multiplicity in view %s", st.def.Name)
				}
			}
		}
		return nil
	})
}

// group returns the staged state of row j's group, seeding it on first
// touch with the live group's scalars (a handful of words — never its
// MIN/MAX multisets). Finding a group the batch already touched
// allocates nothing.
func (p *pending) group(cs []cells, j int) *touched {
	k := len(p.st.groupPos)
	p.buf = groupKey(p.buf[:0], cs, k, j)
	if t, ok := p.groups[cellKey(p.buf)]; ok {
		return t
	}
	gk := cellKey(p.buf)
	p.slab = append(p.slab, touched{live: p.st.groups[gk]})
	t := &p.slab[len(p.slab)-1]
	na := len(p.aggSlab)
	p.aggSlab = p.aggSlab[:na+len(p.st.aggs)]
	t.next.aggs = p.aggSlab[na : na+len(p.st.aggs) : na+len(p.st.aggs)]
	if t.live == nil {
		t.next.groupVals = rowValues(cs, k, j)
	} else {
		t.next.groupVals, t.next.n = t.live.groupVals, t.live.n
		for i, as := range t.live.aggs {
			t.next.aggs[i] = aggState{sum: as.sum, avg: as.avg}
		}
	}
	p.groups[gk] = t
	p.keys = append(p.keys, gk)
	return t
}

// liveCount returns the multiplicity of the value whose key bytes are k
// in aggregate i's live multiset.
func (t *touched) liveCount(i int, k []byte) int64 {
	if t.live == nil {
		return 0
	}
	return t.live.aggs[i].vals[cellKey(k)].n
}

// stageAggregation stages an aggregation view's new materialization as
// a positional delta over the installed one: touched groups overwrite
// their row (or drop it at multiplicity zero), new groups append in the
// order the batch first touched them, and untouched rows are not looked
// at.
func (p *pending) stageAggregation() {
	st := p.st
	w := len(st.def.Def.Select)
	cells := make([]value.Value, len(p.keys)*w)
	d := engine.Delta{SetAt: make([]int32, 0, len(p.keys)), SetRows: make([][]value.Value, 0, len(p.keys))}
	for i, gk := range p.keys {
		tuple := cells[i*w : (i+1)*w : (i+1)*w]
		switch t := p.groups[gk]; {
		case t.live != nil && t.next.n > 0:
			d.SetAt = append(d.SetAt, int32(t.live.pos))
			d.SetRows = append(d.SetRows, t.row(st, st.tab, tuple))
		case t.live != nil:
			p.drop = append(p.drop, int32(t.live.pos))
		case t.next.n > 0:
			d.Append = append(d.Append, t.row(st, nil, tuple))
		}
	}
	sort.Slice(p.drop, func(i, j int) bool { return p.drop[i] < p.drop[j] })
	d.Drop = p.drop
	p.out = &staged{base: st.tab, delta: d}
}

// row builds a touched group's output tuple into tuple from its staged
// state: the one definition of a maintained row, for a group a batch
// patches or creates and for every group of a rebuild alike. tab holds
// the group's stored row, whose MIN/MAX a batch's deltas patch; with tab
// nil they are derived from the multiset.
func (t *touched) row(st *state, tab *engine.ColTable, tuple []value.Value) []value.Value {
	g := &t.next
	for i, p := range st.groupPos {
		tuple[p] = g.groupVals[i]
	}
	for i, a := range st.aggs {
		switch a.fn {
		case ir.AggCount:
			tuple[a.pos] = value.Int(g.n)
		case ir.AggSum:
			tuple[a.pos] = g.aggs[i].sum
		case ir.AggAvg:
			tuple[a.pos] = value.Float(g.aggs[i].avg / float64(g.n))
		case ir.AggMin, ir.AggMax:
			if tab != nil {
				tuple[a.pos] = t.extremum(i, a.fn, tab.Value(t.live.pos, a.pos), true)
			} else {
				tuple[a.pos] = t.extremum(i, a.fn, value.Value{}, false)
			}
		}
	}
	return tuple
}

// extremum returns aggregate i's MIN or MAX after the batch. While the
// stored extremum cur keeps a positive multiplicity only the values the
// batch added can beat it; when the batch retracts it (or the group is
// new) the surviving multiset is re-scanned, which is bounded by the
// group's distinct values.
func (t *touched) extremum(i int, fn ir.AggFunc, cur value.Value, hasCur bool) value.Value {
	deltas := t.next.aggs[i].deltas
	better := func(a, b value.Value) bool {
		c := value.Compare(a, b)
		return (fn == ir.AggMin && c < 0) || (fn == ir.AggMax && c > 0)
	}
	if hasCur {
		var buf [16]byte
		ck := cur.AppendKey(buf[:0])
		if d := findDelta(deltas, ck); d == nil || t.liveCount(i, ck)+d.n > 0 {
			best := cur
			for _, d := range deltas {
				if d.n > 0 && better(d.v, best) {
					best = d.v
				}
			}
			return best
		}
	}
	var best value.Value
	seen := false
	consider := func(v value.Value) {
		if !seen || better(v, best) {
			best, seen = v, true
		}
	}
	if t.live != nil {
		for vk, e := range t.live.aggs[i].vals {
			n := e.n
			if d := findDelta(deltas, []byte(vk)); d != nil {
				n += d.n
			}
			if n > 0 {
				consider(e.v)
			}
		}
	}
	for _, d := range deltas {
		if d.n > 0 && t.liveCount(i, []byte(d.k)) == 0 {
			consider(d.v)
		}
	}
	return best
}

// fold makes the staged outcome the live state once the engine has
// installed tab. It cannot fail, and it touches only what the batch
// touched (plus one pass over the groups when one vanished, to shift the
// positions behind it).
func (p *pending) fold(tab *engine.ColTable) {
	st := p.st
	n0 := st.tab.NumRows()
	st.tab = tab
	if p.recompute {
		st.groups = p.newGroups
		return
	}
	if len(p.drop) > 0 {
		for _, g := range st.groups {
			g.pos -= sort.Search(len(p.drop), func(i int) bool { return int(p.drop[i]) >= g.pos })
		}
	}
	created := 0
	for _, gk := range p.keys {
		t := p.groups[gk]
		if t.next.n == 0 {
			delete(st.groups, gk)
			continue
		}
		g := t.live
		if g == nil {
			g = &group{tally{t.next.groupVals, 0, make([]aggState, len(t.next.aggs))}, n0 - len(p.drop) + created}
			created++
			st.groups[gk] = g
		}
		g.n = t.next.n
		for i := range g.aggs {
			as, next := &g.aggs[i], &t.next.aggs[i]
			as.sum, as.avg = next.sum, next.avg
			for _, d := range next.deltas {
				switch e, ok := as.vals[d.k]; {
				case d.n == 0:
				case !ok:
					if as.vals == nil {
						as.vals = map[cellKey]mmEntry{}
					}
					as.vals[d.k] = d.mmEntry
				case e.n+d.n == 0:
					// Extremum retraction: the stored row was already
					// rebuilt from the surviving multiset.
					delete(as.vals, d.k)
				default:
					e.n += d.n
					as.vals[d.k] = e
				}
			}
		}
	}
}

// seedGroups builds an incremental aggregation view's counting state by
// running its seed query through ev and coalescing the finer groups into
// the view's. The groups come back by key and in the order the result
// first names them, each placed (pos) at its rank in it.
func seedGroups(ctx context.Context, ev *engine.Evaluator, st *state) ([]*group, map[cellKey]*group, error) {
	res, err := ev.ExecColumns(ctx, st.seed)
	if err != nil {
		return nil, nil, err
	}
	k := len(st.groupPos)
	var order []*group
	groups := map[cellKey]*group{}
	var buf []byte
	err = eachRow(res, func(cs []cells, j int) error {
		buf = groupKey(buf[:0], cs, k, j)
		g, seen := groups[cellKey(buf)]
		if !seen {
			g = &group{tally{rowValues(cs, k, j), 0, make([]aggState, len(st.aggs))}, len(order)}
			groups[cellKey(buf)] = g
			order = append(order, g)
		}
		n := cs[st.nAt].ints[j]
		g.n += n
		for i, a := range st.aggs {
			as := &g.aggs[i]
			switch a.fn {
			case ir.AggSum, ir.AggAvg:
				d := cs[a.at].value(j)
				as.avg += d.AsFloat()
				if seen {
					var err error
					if d, err = value.Add(as.sum, d); err != nil {
						return err
					}
				}
				as.sum = d
			case ir.AggMin, ir.AggMax:
				if as.vals == nil {
					as.vals = map[cellKey]mmEntry{}
				}
				buf = cs[a.at].appendKey(buf[:0], j)
				e, ok := as.vals[cellKey(buf)]
				if !ok {
					e.v = cs[a.at].value(j)
				}
				e.n += n
				as.vals[cellKey(buf)] = e
			}
		}
		return nil
	})
	return order, groups, err
}

// Mode reports how a tracked view is maintained — "incremental"
// (counting deltas) or "recompute" — and, for the latter, the Fallback
// that decided it. A self-join or view-over-view recomputes only for
// changes to the tables it involves. Both are empty for an untracked
// view.
func (m *Maintainer) Mode(name string) (mode, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tracked[strings.ToLower(name)]
	switch {
	case !ok:
		return "", ""
	case st.reason == "":
		return "incremental", ""
	}
	return "recompute", string(st.reason)
}

// Tracked returns the names of the maintained views, in order.
func (m *Maintainer) Tracked() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := m.sortedTrackedLocked()
	for i, key := range names {
		names[i] = m.tracked[key].def.Name
	}
	return names
}

// Tracks reports whether the named view is maintained.
func (m *Maintainer) Tracks(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.tracked[strings.ToLower(name)]
	return ok
}

// GroupCounts returns a copy of an aggregation view's multiplicity
// counts by group key (a cellKey's bytes) — the counting algorithm's core invariant, which
// the property tests (insert∘delete = identity) assert on directly.
func (m *Maintainer) GroupCounts(name string) (map[string]int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tracked[strings.ToLower(name)]
	if !ok || st.groups == nil {
		return nil, false
	}
	out := make(map[string]int64, len(st.groups))
	for k, g := range st.groups {
		out[string(k)] = g.n
	}
	return out, true
}
