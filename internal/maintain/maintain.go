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
// of contributing joined rows) plus one piece of state per aggregate:
// the running total of a SUM (typed like the engine's fold) or of an
// AVG (a float), or the value → multiplicity multiset of a MIN/MAX. A
// mutation against one base table becomes one signed delta table — its
// deleted rows with sign −1, its inserted rows with sign +1, the sign an
// extra column — and each dependent view runs one delta query over it:
// the definition with that table bound to the delta table, grouped by
// the view's grouping columns plus its MIN/MAX arguments, selecting
// SUM(sign × arg) per SUM/AVG and SUM(sign) as the multiplicity. That is
// exact when the table occurs exactly once in the definition (joins are
// bilinear). The maintainer reads the result as typed columns and
// coalesces its finer groups into the view's (Ex. 4.1's move): n and the
// sums add up, and each MIN/MAX multiset takes a Δcount per value. A
// MIN/MAX whose extremum's multiplicity reaches zero is re-derived by
// re-scanning the group's surviving value multiset; a group whose n
// reaches zero leaves the materialization. Tracking and a recompute run
// the same query over the tables themselves, every row signed +1, and
// absorb its result as a batch over no live groups, so every group is
// folded one way. Groups and multiset values are keyed by their cells'
// canonical keys (value.AppendKey), which are self-delimiting:
// concatenated, they are equal exactly when value.KeyEqual holds cell by
// cell, and never collide. Views outside the incrementally maintainable
// class (DISTINCT, HAVING, self-joins over the changed table, MIN/MAX
// over non-column arguments, dependence through a nested view) fall back
// to full recomputation — counted on the `maintain.fallback.full` metric
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
	// from it (pending.row), never by executing the definition.
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

// aggState is the state of one aggregate output in one group: a SUM's
// running total, typed like the engine's fold, or an AVG's, a float from
// +0; or a MIN/MAX's value multiset — a live group's, or a touched
// group's Δcounts (a created group's whole multiset).
type aggState struct {
	sum  value.Value
	vals multiset
}

// multiset maps values to multiplicities. The values sit in a slice (one
// that leaves is replaced by the last), so no scan of them depends on
// map order; at indexes them by key past scanMax values. A write meets
// most groups it touches with a value or two, and their deltas allocate
// no map and no key: an index on every multiset costs a write a map per
// touched group and MIN/MAX.
type multiset struct {
	at   map[cellKey]int32
	ents []mmEntry
}

const scanMax = 8

// mmEntry is a value and its multiplicity. Its key is derived when the
// index needs it, not stored: the slice holds no pointer the value does
// not, which keeps the live multisets cheap for the collector to mark.
type mmEntry struct {
	v value.Value
	n int64
}

// find returns the position in ms of the value KeyEqual to v.
func (ms *multiset) find(v value.Value) (int32, bool) {
	if ms.at == nil {
		for x := range ms.ents {
			if value.KeyEqual(ms.ents[x].v, v) {
				return int32(x), true
			}
		}
		return 0, false
	}
	var buf [16]byte
	x, ok := ms.at[cellKey(v.AppendKey(buf[:0]))]
	return x, ok
}

// count returns the multiplicity of v in ms (nil: none).
func (ms *multiset) count(v value.Value) int64 {
	if ms != nil {
		if x, ok := ms.find(v); ok {
			return ms.ents[x].n
		}
	}
	return 0
}

// add adds dn to the multiplicity of v in ms and returns the sum. A
// value at zero leaves.
func (ms *multiset) add(v value.Value, dn int64) int64 {
	x, ok := ms.find(v)
	if !ok {
		x = int32(len(ms.ents))
		ms.ents = append(ms.ents, mmEntry{v: v})
		switch {
		case ms.at != nil:
			ms.index(x)
		case x == scanMax:
			ms.at = make(map[cellKey]int32, 2*scanMax)
			for y := range ms.ents {
				ms.index(int32(y))
			}
		}
	}
	e := &ms.ents[x]
	if e.n += dn; e.n != 0 {
		return e.n
	}
	if ms.at != nil {
		var buf [16]byte
		delete(ms.at, cellKey(e.v.AppendKey(buf[:0])))
	}
	last := int32(len(ms.ents) - 1)
	*e = ms.ents[last]
	ms.ents[last] = mmEntry{}
	ms.ents = ms.ents[:last]
	if ms.at != nil && x != last {
		ms.index(x)
	}
	return 0
}

// index maps the key of the value at x to x.
func (ms *multiset) index(x int32) {
	var buf [16]byte
	ms.at[cellKey(ms.ents[x].v.AppendKey(buf[:0]))] = x
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
// what TrackContext and a recompute inside a batch each need, changing
// nothing live. An incremental aggregation view absorbs its seed query's
// result as a batch over no live groups, so each group is created, staged
// and folded as a write's, in the order the seed's rows first name them —
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
	res, err := ev.ExecColumns(ctx, st.seed)
	if err != nil {
		return nil, nil, err
	}
	p := &pending{st: st, live: map[cellKey]*group{}}
	if err := p.absorb(res); err != nil {
		return nil, nil, err
	}
	rel.Tuples = p.stageAggregation().Append
	p.fold()
	// A rebuilt multiset keeps room for an eighth more values, not the
	// slack its appends left: enough that a write adding a value does not
	// re-grow it at once.
	for _, gk := range p.keys {
		for i := range p.live[gk].aggs {
			vals := &p.live[gk].aggs[i].vals
			vals.ents = append(make([]mmEntry, 0, len(vals.ents)+len(vals.ents)/8), vals.ents...)
		}
	}
	return engine.BuildColTable(rel), p.live, nil
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
	// live holds the groups the batch starts from (none for a rebuild);
	// fold writes the outcome into it.
	live map[cellKey]*group
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
	// buf is the scratch the delta's keys are built in; slab and aggSlab
	// hand out the touched groups and their aggregate states in chunks
	// (slabChunk); rows counts the result being absorbed, which creates
	// no more groups than that.
	buf     []byte
	slab    []touched
	aggSlab []aggState
	rows    int
}

// slabChunk caps the groups the first slab chunk of a batch holds; each
// later chunk doubles the last, so a result naming few groups in many
// rows (a seed query's) allocates for its groups, not its rows.
const slabChunk = 64

// touched is one group's staged state. next carries the scalars (n and
// each SUM or AVG total) as the batch leaves them; next.aggs[i].vals
// holds the MIN/MAX value multiplicity deltas, so staging a group costs
// its delta, not its multiset.
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
				p = &pending{st: st, live: st.groups}
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
	for _, name := range tracked {
		if pend[name] != nil {
			names = append(names, name)
		}
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
			// The rebuilt state replaces any deltas staged before.
			p = &pending{st: st, live: groups, out: &staged{whole: tab}}
			pend[name] = p
		case st.conjunctive:
			drop, ok := st.tab.Locate(p.conjDel)
			if !ok {
				return fmt.Errorf("maintain: view %s lacks a row its delete delta names", st.def.Name)
			}
			p.out = &staged{base: st.tab, delta: engine.Delta{Drop: drop, Append: p.conjAdd}}
		default:
			p.out = &staged{base: st.tab, delta: p.stageAggregation()}
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
		p := pend[name]
		p.fold()
		p.st.tab, p.st.groups = installed[len(order)+i], p.live
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
// their multiplicities and totals adding up and each MIN/MAX multiset
// taking its argument value's Δcount. This is the one place a SUM or
// AVG delta is added.
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
	p.rows = res.NumRows()
	if p.groups == nil {
		n := min(p.rows, slabChunk)
		p.groups, p.keys = make(map[cellKey]*touched, n), make([]cellKey, 0, n)
	}
	return eachRow(res, func(cs []cells, j int) error {
		t := p.group(cs, j)
		g := &t.next
		empty := t.live == nil && g.n == 0 // a created group before its first row
		dn := cs[st.nAt].ints[j]
		if g.n += dn; g.n < 0 {
			return fmt.Errorf("maintain: negative multiplicity in view %s", st.def.Name)
		}
		for i, a := range st.aggs {
			as := &g.aggs[i]
			switch a.fn {
			case ir.AggSum, ir.AggAvg:
				// An empty group's SUM is its first delta as it is, as in the
				// engine's fold (a lone -0 stays -0); a float delta, from a
				// column a float widened, makes an int sum float, and the
				// view's column widens with it. An AVG's total is a float.
				d := cs[a.at].value(j)
				var err error
				switch {
				case a.fn == ir.AggAvg:
					d = value.Float(as.sum.AsFloat() + d.AsFloat())
				case !empty:
					d, err = value.Add(as.sum, d)
				}
				if err != nil {
					return err
				}
				as.sum = d
			case ir.AggMin, ir.AggMax:
				v := cs[a.at].value(j)
				if n := as.vals.add(v, dn); n < 0 && t.liveVals(i).count(v)+n < 0 {
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
	if len(p.slab) == cap(p.slab) {
		// A new chunk: the touched groups already handed out stay put.
		n := min(p.rows, max(2*cap(p.slab), slabChunk))
		p.slab, p.aggSlab = make([]touched, 0, n), make([]aggState, 0, n*len(p.st.aggs))
	}
	p.slab = append(p.slab, touched{live: p.live[gk]})
	t := &p.slab[len(p.slab)-1]
	na := len(p.aggSlab)
	p.aggSlab = p.aggSlab[:na+len(p.st.aggs)]
	t.next.aggs = p.aggSlab[na : na+len(p.st.aggs) : na+len(p.st.aggs)]
	if t.live == nil {
		t.next.groupVals = rowValues(cs, k, j)
	} else {
		t.next.groupVals, t.next.n = t.live.groupVals, t.live.n
		for i, as := range t.live.aggs {
			t.next.aggs[i] = aggState{sum: as.sum}
		}
	}
	p.groups[gk] = t
	p.keys = append(p.keys, gk)
	return t
}

// liveVals returns aggregate i's live multiset, or nil for a group the
// batch creates.
func (t *touched) liveVals(i int) *multiset {
	if t.live == nil {
		return nil
	}
	return &t.live.aggs[i].vals
}

// stageAggregation returns an aggregation view's new materialization as
// a positional delta over the installed one: touched groups overwrite
// their row (or drop it at multiplicity zero), new groups append in the
// order the batch first touched them, and untouched rows are not looked
// at. A rebuild's delta is all appends.
func (p *pending) stageAggregation() engine.Delta {
	st := p.st
	w := len(st.def.Def.Select)
	cells := make([]value.Value, len(p.keys)*w)
	d := engine.Delta{SetAt: make([]int32, 0, len(p.keys)), SetRows: make([][]value.Value, 0, len(p.keys))}
	for i, gk := range p.keys {
		tuple := cells[i*w : (i+1)*w : (i+1)*w]
		switch t := p.groups[gk]; {
		case t.live != nil && t.next.n > 0:
			d.SetAt = append(d.SetAt, int32(t.live.pos))
			d.SetRows = append(d.SetRows, p.row(t, tuple))
		case t.live != nil:
			p.drop = append(p.drop, int32(t.live.pos))
		case t.next.n > 0:
			d.Append = append(d.Append, p.row(t, tuple))
		}
	}
	sort.Slice(p.drop, func(i, j int) bool { return p.drop[i] < p.drop[j] })
	d.Drop = p.drop
	return d
}

// row builds a touched group's output tuple into tuple from its staged
// state: the one definition of a maintained row, for a group a batch
// patches or creates — and every group of a rebuild is one it creates.
func (p *pending) row(t *touched, tuple []value.Value) []value.Value {
	g := &t.next
	for i, pos := range p.st.groupPos {
		tuple[pos] = g.groupVals[i]
	}
	for i, a := range p.st.aggs {
		switch a.fn {
		case ir.AggCount:
			tuple[a.pos] = value.Int(g.n)
		case ir.AggSum:
			tuple[a.pos] = g.aggs[i].sum
		case ir.AggAvg:
			tuple[a.pos] = value.Float(g.aggs[i].sum.AsFloat() / float64(g.n))
		case ir.AggMin, ir.AggMax:
			tuple[a.pos] = p.extremum(t, i, a.fn)
		}
	}
	return tuple
}

// extremum returns aggregate i's MIN or MAX after the batch. While a
// live group's stored extremum keeps a positive multiplicity only the
// values the batch added can beat it; when the batch retracts it (or
// creates the group) the surviving multiset is re-scanned, which is
// bounded by the group's distinct values.
func (p *pending) extremum(t *touched, i int, fn ir.AggFunc) value.Value {
	staged, live := &t.next.aggs[i].vals, t.liveVals(i)
	better := func(a, b value.Value) bool {
		c := value.Compare(a, b)
		return (fn == ir.AggMin && c < 0) || (fn == ir.AggMax && c > 0)
	}
	if live != nil {
		// A value the batch left alone keeps its live multiplicity, which
		// is positive for a stored extremum.
		cur := p.st.tab.Value(t.live.pos, p.st.aggs[i].pos)
		if dn := staged.count(cur); dn == 0 || live.count(cur)+dn > 0 {
			best := cur
			for _, d := range staged.ents {
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
	if live != nil {
		for _, e := range live.ents {
			if e.n+staged.count(e.v) > 0 {
				consider(e.v)
			}
		}
	}
	for _, d := range staged.ents {
		if d.n > 0 && live.count(d.v) == 0 {
			consider(d.v)
		}
	}
	return best
}

// fold writes the staged outcome into p.live: a write's once the engine
// has installed the batch, a rebuild's before anything is installed. It
// cannot fail, and it touches only what the batch touched (plus one pass
// over the groups when one vanished, to shift the positions behind it).
// A created group takes the next row position.
func (p *pending) fold() {
	if len(p.drop) > 0 {
		for _, g := range p.live {
			g.pos -= sort.Search(len(p.drop), func(i int) bool { return int(p.drop[i]) >= g.pos })
		}
	}
	pos := len(p.live) - len(p.drop)
	for _, gk := range p.keys {
		t := p.groups[gk]
		if t.next.n == 0 {
			delete(p.live, gk)
			continue
		}
		g := t.live
		if g == nil {
			g = &group{tally{t.next.groupVals, 0, make([]aggState, len(t.next.aggs))}, pos}
			pos++
			p.live[gk] = g
		}
		g.n = t.next.n
		for i := range g.aggs {
			as, next := &g.aggs[i], &t.next.aggs[i]
			as.sum = next.sum
			// The smaller multiset folds into the larger, so a group the
			// batch creates keeps its staged one whole.
			if len(next.vals.ents) > len(as.vals.ents) {
				as.vals, next.vals = next.vals, as.vals
			}
			for _, d := range next.vals.ents {
				as.vals.add(d.v, d.n)
			}
		}
	}
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
