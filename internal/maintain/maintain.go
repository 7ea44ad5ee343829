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
// the exact total of a SUM or an AVG (value.Sum, rounded once when the
// row is built; an AVG divides the rounded total by n), or the value →
// multiplicity multiset of a MIN/MAX. A mutation against one base table
// becomes one signed delta table — its deleted rows with sign −1, its
// inserted rows with sign +1, the sign an extra column. It is the
// finest grouping of the change, one group per row whose count is its
// sign, so a view with bare columns for its select items and aggregate
// arguments (COUNT(*) too) that reads the changed table once absorbs its
// rows directly — when it reads nothing else, or only base tables it
// joins on their declared keys, each key column equated with a column of
// the changed table (§5's foreign-key joins, which keep each row's
// multiplicity). Each row then looks up its one partner in each such
// table as the batch sees it (engine.ColTable.Lookup), by the engine's
// join rule (value.KeyEqual), and drops out without one; the cells the
// view reads of the partners are laid beside the row's own
// (engine.ColTable.Beside). The engine's filter keeps the rows the
// view's WHERE admits (engine.ColTable.Select), and each kept row moves
// its group's n by its sign, adds or subtracts its argument cell to each
// exact total (value.Sum.AddInt, SubInt, AddFloat, SubFloat) and its
// value's multiplicity in each MIN/MAX multiset, at any batch size.
// Every other view's delta runs one delta query over the delta table,
// because it needs what only the engine evaluates — a join on a column
// that is no key (a write to the key side of a join, say), a computed
// argument: the definition with the changed table bound to the delta table,
// grouped by the view's grouping columns, its MIN/MAX arguments and the
// sign, selecting SUM(arg) per SUM/AVG and COUNT(*) as the
// multiplicity. That is exact when the table occurs exactly once in the
// definition (joins are bilinear). The maintainer reads the result as
// typed columns and coalesces its finer groups into the view's (Ex.
// 4.1's move): n and the totals add up, or subtract under sign −1, each
// float total through the exact value.Sum the engine keeps beside its
// rounded cell (engine.ColTable.Sums), so no rounded cell is ever
// re-added and a NaN or an infinity a delete names leaves the total
// again; each MIN/MAX multiset takes a Δcount per value. A delta
// table's row is read as just such a finer group, so the two paths
// share the coalescing and build the same rows. A MIN/MAX whose
// extremum's multiplicity reaches zero is re-derived by re-scanning the
// group's surviving value multiset; a group whose n reaches zero leaves
// the materialization. Tracking and a recompute are a write: of the base
// tables the view reads once, the one holding the fewest rows is set
// beside a constant +1 sign, an all-insert signed delta, and absorbed
// the way a write to that table is (the rows themselves, or the delta
// query) over no live groups, so every group is folded one way. A view
// that reads no base table once (a self-join, nested views only)
// recomputes on every write and keeps no counting state; it and every
// view outside the class is rebuilt as its definition's stored image
// (engine.Evaluator.MaterializeContext). Groups and multiset values are keyed
// by their cells' canonical keys (value.AppendKey), which are
// self-delimiting: concatenated, they are equal exactly when
// value.KeyEqual holds cell by cell, and never collide. Views outside
// the incrementally maintainable class (DISTINCT, HAVING, self-joins
// over the changed table, MIN/MAX over non-column arguments, dependence
// through a nested view) fall back to full recomputation — counted on
// the `maintain.fallback.full` metric and named per view by
// Maintainer.Mode — so every mutation is always correct. So does a
// write one of whose delta query's own int totals leaves int64 (two
// deleted MaxInt64 rows in one group, say): the rebuild against the
// staged tables then decides, installing the new exact totals when they
// fit and aborting the batch when they do not. A view that reads the
// delta table itself has no such finer total. A running total may pass
// int64 part-way; only a new total that int64 cannot hold aborts the
// batch. One shape keeps a finer total in its rebuild too: a joined view
// with a MIN/MAX whose smallest once-read table has no layout rebuilds
// through its delta query, grouped by the MIN/MAX arguments, so its
// Track or recompute is refused when one such group's int SUM leaves
// int64 although the view's own total fits.
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
//
// A write stages each view in that view's own scratch (a pending kept
// on its state), reset at the start of each batch rather than built
// afresh; the signed delta's rows are laid out in buffers the maintainer
// keeps the same way. Nothing live is written before the commit point,
// so an aborted batch leaves its scratch dirty and the next batch resets
// it; and nothing reused is reachable from live state after the commit.
// A batch that touched more than keepGroups groups keeps no scratch, so
// a one-off bulk write pins nothing.
package maintain

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
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
	// batches, maintain.delta.rows counts delta rows merged, and
	// maintain.delta.direct and maintain.delta.query count the view
	// deltas absorbed from a delta table's rows and by a delta query, and
	// maintain.delta.keyed the direct ones that looked up each row's
	// partners on a declared key.
	// The delta and recompute evaluations report to it too
	// (engine.exec, engine.result.cells_boxed, ...).
	Metrics *obs.Metrics
	// Workers sizes the worker pools of the delta and recompute
	// evaluations (0 = serial), like engine.Evaluator.Workers.
	Workers int

	mu       sync.Mutex
	tracked  map[string]*state
	declared map[string][]*declared // table -> its keys and FDs (DeclareKey)
	// order is the tracked views in commit order — by nesting depth, then
	// name, so a view is staged after every view it reads — kept from
	// Track to Track.
	order []*state
	// deltaCells and deltaRows are signedDelta's row buffers, and commits
	// a batch's commit list, kept across batches (mu serializes them).
	deltaCells []value.Value
	deltaRows  [][]value.Value
	commits    []engine.Commit
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
	// seed is the template of an incremental view's delta queries and
	// layouts, never executed: the view's group columns, then its MIN/MAX
	// argument columns (grouped by too), SUM(arg) per SUM/AVG and
	// COUNT(*) at nAt — or, for a conjunctive view, the definition
	// itself. delta holds, per base table the definition reads once and
	// not through a view (by name), the template with that table's
	// occurrence carrying the sign column, grouped by it too and
	// selecting it last, at nAt+1 — or the definition selecting the sign
	// last. A view over one table alone has none: it reads that table's
	// writes itself (rows). A joined view keeps one for a table it reads
	// that way too, for a batch whose lookups cannot trust a key
	// (layout.trusted). A delta query is kept as its engine plan, derived
	// once. The tables of rows and delta are the ones a rebuild may
	// drive from (driver).
	seed  *ir.Query
	delta map[string]*engine.Plan
	nAt   int
	// rows holds, per table whose writes the view absorbs without a delta
	// query — its one table, or one whose other tables it joins on their
	// declared keys — how it reads the write's signed delta table
	// (layout).
	rows map[string]*layout
	// direct counts direct FROM occurrences per base table;
	// trans marks every transitive base table; viaView marks tables
	// whose dependence flows through a nested view (delta-unsafe).
	direct  map[string]int
	trans   map[string]bool
	viaView map[string]bool
	depth   int // nesting depth over other tracked views, for commit order
	// groups is the counting state of an incremental aggregation view
	// with a table to drive its rebuild from (nil for any other view);
	// every row of the materialization is built from it (pending.row),
	// never by executing the definition.
	groups map[cellKey]*group
	// tab is the installed materialization.
	tab *engine.ColTable
	// cells is absorb's scratch for reading a result's rows, kept across
	// batches (the maintainer's lock serializes them).
	cells []cells
	// scratch is the view's pending state for a write, kept across
	// batches like cells and reset at the start of each (begin); nil
	// before the first write and after a batch that touched more than
	// keepGroups groups or rows. cur is the view's pending state in the
	// batch under way — its scratch, or a recompute's — and nil outside a
	// batch and for a view the batch has not reached.
	scratch, cur *pending
}

// layout is how a view reads the signed delta table of a write to one
// of its tables, T, without a delta query: each row a finer group of its
// own whose count is its sign. It applies to a view with bare columns for
// its select items and aggregate arguments that reads T once and, beside
// it, only base tables it reads once and joins on one of their declared
// keys, each key column equated by a WHERE = with a column of T (a
// key-side table, keyJoin). Each delta row then has at most one partner
// in each, so the joined delta — the delta table's columns, the sign,
// then the cells the view reads of each partner — has no more rows than
// the write.
type layout struct {
	// cols[i] is the joined delta's column that stands for column i of
	// the delta query's result, the sign standing for the count (or, for
	// a conjunctive view, for the sign); where is the definition's WHERE
	// over the joined delta's columns, less the key equalities the
	// lookups satisfy.
	cols  []int
	where []ir.Pred
	joins []keyJoin
}

// keyJoin is one key-side table of a layout: a T row's partner is the
// row whose key columns are KeyEqual to the row's columns from, and the
// joined delta carries the partner's columns cols.
type keyJoin struct {
	table           string
	key, from, cols []int
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

// group is a live group: its tally, its key (the one the groups map
// holds, kept so that a batch touching the group keys its staging with
// it instead of a copy) and the position of its row in the installed
// materialization.
type group struct {
	tally
	key cellKey
	pos int
}

// aggState is the state of one aggregate output in one group: a SUM's or
// an AVG's exact total; or a MIN/MAX's value multiset — a live group's,
// or a touched group's Δcounts (a created group's whole multiset).
type aggState struct {
	sum  value.Sum
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

// evaluator builds a fresh engine evaluator reading store and reporting
// to the maintainer's metrics.
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
		buildDelta(st, m.keysOf)
	}
	tab, groups, err := m.rebuild(ctx, st, &overlayStorage{db: m.db})
	if err != nil {
		return false, err
	}
	// A loud install, as DB.Put's: plans that evaluated the view on the
	// fly can now scan it.
	st.groups, st.tab = groups, m.db.Apply([]engine.Commit{{Name: v.Name, Table: tab}})[0]
	m.tracked[v.Name] = st
	m.order = append(slices.DeleteFunc(m.order, func(o *state) bool { return o.def.Name == v.Name }), st)
	slices.SortFunc(m.order, func(a, b *state) int {
		return cmp.Or(cmp.Compare(a.depth, b.depth), strings.Compare(a.def.Name, b.def.Name))
	})
	return st.incremental, nil
}

// rebuild derives a tracked view's materialization, and the counting
// state that goes with it, from store in full: what TrackContext and a
// recompute inside a batch each need, changing nothing live. An
// incremental aggregation view rebuilds as a write to its driver table:
// the table beside a constant +1 sign is an all-insert signed delta,
// which absorbSigned takes as it takes a write's, over no live groups,
// so each group is created, staged and folded as a write's, in the order
// the delta's rows, or its delta query's, first name it. Any other view
// is its definition's stored image and has no groups.
func (m *Maintainer) rebuild(ctx context.Context, st *state, store *overlayStorage) (*engine.ColTable, map[cellKey]*group, error) {
	if err := poll(ctx, "maintain.rebuild"); err != nil {
		return nil, nil, err
	}
	table, tab, err := st.driver(store)
	if err != nil {
		return nil, nil, err
	}
	if tab == nil {
		ct, err := m.evaluator(store).MaterializeContext(ctx, st.def.Name)
		return ct, nil, err
	}
	p := &pending{st: st, live: map[cellKey]*group{}}
	signed := tab.Beside(plusOne, []int{0}, make([]int32, tab.NumRows()))
	if _, err := m.absorbSigned(ctx, p, table, signed, store, store.staged); err != nil {
		return nil, nil, err
	}
	d, err := p.stageAggregation()
	if err != nil {
		return nil, nil, err
	}
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
	return engine.BuildColTable(&engine.Relation{Attrs: slices.Clone(st.def.OutCols), Tuples: d.Append}), p.live, nil
}

// plusOne is the one-row sign table a rebuild sets beside every row of
// its driver table.
var plusOne = engine.BuildColTable(&engine.Relation{Attrs: []string{signAttr}, Tuples: [][]value.Value{{value.Int(1)}}})

// driver returns the base table an incremental aggregation view's
// rebuild reads as its all-insert delta, as store holds it: of the tables
// whose writes the view absorbs (rows, delta), the one holding the
// fewest rows, the first in FROM order on a tie. The fewer the rows, the
// fewer a direct absorb visits and looks partners up for. A conjunctive
// view, one outside the class and one that reads no base table once have
// none (nil).
func (st *state) driver(store *overlayStorage) (string, *engine.ColTable, error) {
	if st.conjunctive {
		return "", nil, nil
	}
	var name string
	var best *engine.ColTable
	for _, t := range st.def.Def.Tables {
		if st.rows[t.Source] == nil && st.delta[t.Source] == nil {
			continue
		}
		tab, found, err := store.Scan(t.Source)
		switch {
		case err != nil:
			return "", nil, err
		case !found:
			return "", nil, fmt.Errorf("maintain: unknown table %q", t.Source)
		case best == nil || tab.NumRows() < best.NumRows():
			name, best = t.Source, tab
		}
	}
	return name, best, nil
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
			v, isView := views.Get(t.Source)
			switch {
			case !isView && nested:
				st.trans[t.Source], st.viaView[t.Source] = true, true
			case !isView:
				st.trans[t.Source] = true
				st.direct[t.Source]++
			default:
				if under, ok := tracked[t.Source]; !nested && ok && under.depth+1 > st.depth {
					st.depth = under.depth + 1
				} else if !nested && st.depth == 0 {
					st.depth = 1
				}
				if !seen[t.Source] {
					seen[t.Source] = true
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

// buildDelta constructs an incremental view's seed template, its layout
// over the signed delta table of each table whose writes it reads itself
// (rowsOf), and one delta query per table the definition reads once and
// joins: keys gives a table's declared keys. A table the view also reads
// through a nested view gets neither: its writes recompute the view.
func buildDelta(st *state, keys func(table string) [][]int) {
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
	st.rows, st.delta = map[string]*layout{}, map[string]*engine.Plan{}
	for ti, t := range def.Tables {
		if st.direct[t.Source] != 1 || st.viaView[t.Source] {
			continue
		}
		lay := st.rowsOf(ti, keys)
		if lay != nil {
			st.rows[t.Source] = lay
		}
		// A joined view keeps the delta query for a batch whose lookups
		// could not trust a key (ApplyContext).
		if lay == nil || len(lay.joins) > 0 {
			st.delta[t.Source] = engine.NewPlan(st.signed(ti))
		}
	}
}

// rowsOf returns the view's layout over the signed delta table of its
// table occurrence ti, or nil when the view cannot read it itself: a
// select item or aggregate argument is not a bare column, or another FROM
// item is not a base table read once and joined on a declared key
// (joinOn). The joined delta's columns are ti's, the sign, then each
// key-side table's columns the view reads, in FROM and schema order.
func (st *state) rowsOf(ti int, keys func(table string) [][]int) *layout {
	def, seed := st.def.Def, st.seed
	lay := &layout{}
	used := make([]bool, len(def.Where)) // the key equalities the lookups satisfy
	for tj, t := range def.Tables {
		if tj == ti {
			continue
		}
		if st.direct[t.Source] != 1 {
			return nil
		}
		j, ok := joinOn(def, ti, tj, keys(t.Source), used)
		if !ok {
			return nil
		}
		lay.joins = append(lay.joins, j)
	}
	// item[i] is the column seed select item i reads, -1 for COUNT(*).
	item := make([]ir.ColID, len(seed.Select))
	reads := make([]bool, len(def.Columns))
	for i, it := range seed.Select {
		switch x := it.Expr.(type) {
		case *ir.ColRef:
			item[i] = x.Col
		case *ir.Agg:
			arg, ok := x.Arg.(*ir.ColRef)
			switch {
			case x.Star:
				item[i] = -1
				continue
			case !ok:
				return nil
			}
			item[i] = arg.Col
		default:
			return nil
		}
		reads[item[i]] = true
	}
	for i, p := range def.Where {
		for _, t := range [2]ir.Term{p.L, p.R} {
			if !t.IsConst && !used[i] {
				reads[t.Col] = true
			}
		}
	}
	sign := len(def.Tables[ti].Cols)
	at := make([]int, len(def.Columns))
	for _, c := range def.Tables[ti].Cols {
		at[c] = def.Columns[c].Pos
	}
	next, k := sign+1, 0
	for tj, t := range def.Tables {
		if tj == ti {
			continue
		}
		for _, c := range t.Cols {
			if reads[c] {
				at[c], next = next, next+1
				lay.joins[k].cols = append(lay.joins[k].cols, def.Columns[c].Pos)
			}
		}
		k++
	}
	lay.cols = make([]int, len(item))
	for i, c := range item {
		if lay.cols[i] = sign; c >= 0 {
			lay.cols[i] = at[c]
		}
	}
	if !seed.IsAggregationQuery() {
		lay.cols = append(lay.cols, sign)
	}
	for i, p := range def.Where {
		if used[i] {
			continue
		}
		for _, t := range []*ir.Term{&p.L, &p.R} {
			if !t.IsConst {
				t.Col = ir.ColID(at[t.Col])
			}
		}
		lay.where = append(lay.where, p)
	}
	return lay
}

// joinOn finds the first of keys, table occurrence tj's declared keys,
// each of whose columns a WHERE = equates with a column of occurrence ti,
// and marks the conjuncts it takes in used.
func joinOn(def *ir.Query, ti, tj int, keys [][]int, used []bool) (keyJoin, bool) {
	for _, key := range keys {
		j := keyJoin{table: def.Tables[tj].Source, key: key}
		taken := slices.Clone(used)
		for _, kc := range key {
			n := len(j.from)
			for i, p := range def.Where {
				if taken[i] || p.Op != ir.OpEq || p.L.IsConst || p.R.IsConst {
					continue
				}
				l, r := def.Columns[p.L.Col], def.Columns[p.R.Col]
				if l.Table == tj {
					l, r = r, l
				}
				if l.Table == ti && r.Table == tj && r.Pos == kc {
					j.from, taken[i] = append(j.from, l.Pos), true
					break
				}
			}
			if len(j.from) == n {
				break
			}
		}
		if len(key) > 0 && len(j.from) == len(key) {
			copy(used, taken)
			return j, true
		}
	}
	return keyJoin{}, false
}

// signed returns the seed template with table occurrence ti read from a
// delta table: the occurrence gains the sign column, selected last — and,
// for an aggregation view, grouped by, so each finer group's totals and
// count are its deleted or its inserted rows', never a product of the
// sign and a value.
func (st *state) signed(ti int) *ir.Query {
	q := st.seed.Clone()
	sign := ir.ColID(len(q.Columns))
	q.Columns = append(q.Columns, ir.Column{ID: sign, Table: ti, Pos: len(q.Tables[ti].Cols), Name: signAttr, Attr: signAttr})
	q.Tables[ti].Cols = append(q.Tables[ti].Cols, sign)
	q.Select = append(q.Select, ir.SelectItem{Expr: &ir.ColRef{Col: sign}})
	if !st.conjunctive {
		q.GroupBy = append(q.GroupBy, sign)
	}
	return q
}

// signedDelta returns a mutation's deleted and inserted rows as one
// table: attrs plus the sign column, the deleted rows first. The rows
// are laid out in the maintainer's buffers, which BuildColTable copies
// into the table's own columns; they are cleared on the way out and
// kept for the next write unless it named more than keepGroups rows.
func (m *Maintainer) signedDelta(attrs []string, mut Mutation) *engine.ColTable {
	w := len(attrs) + 1
	n := len(mut.Deletes) + len(mut.Inserts)
	if cap(m.deltaCells) < n*w {
		m.deltaCells, m.deltaRows = make([]value.Value, n*w), make([][]value.Value, 0, n)
	}
	cells, rows := m.deltaCells[:n*w], m.deltaRows[:0]
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
	tab := engine.BuildColTable(&engine.Relation{Attrs: append(attrs[:w-1:w-1], signAttr), Tuples: rows})
	clear(cells)
	if m.deltaCells, m.deltaRows = cells, rows; n > keepGroups {
		m.deltaCells, m.deltaRows = nil, nil
	}
	return tab
}

// cellKey identifies a group by its grouping cells, or a MIN/MAX multiset
// entry by its value: the cells' canonical keys (value.AppendKey),
// concatenated. Each key is self-delimiting, so concatenated keys are
// equal exactly when value.KeyEqual holds cell by cell.
type cellKey string

// cells is one column of one result chunk: its kind and its typed
// cells (ints for an int or bool column), and, for a SUM over floats,
// the exact totals the cells round (engine.ColTable.Sums).
type cells struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
	sums   []value.Sum
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

// addTo adds cell j of a SUM column to the total s exactly, or takes it
// out when sub is set: the engine's own exact total behind a float SUM's
// cell, which shares the engine's storage and is only read; the int or
// float cell itself otherwise — a delta query's int SUM, or one row's
// argument.
func (c *cells) addTo(s *value.Sum, j int, sub bool) {
	switch {
	case c.sums != nil && sub:
		s.Sub(&c.sums[j])
	case c.sums != nil:
		s.Merge(&c.sums[j])
	case c.kind == value.KindFloat && sub:
		s.SubFloat(c.floats[j])
	case c.kind == value.KindFloat:
		s.AddFloat(c.floats[j])
	case sub:
		s.SubInt(c.ints[j])
	default:
		s.AddInt(c.ints[j])
	}
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

// eachRow calls fn for every row of res in order — only for the rows
// sel names, ascending, when sel is not nil — with the typed cells of
// the chunk holding it and its index there; nothing is boxed but what fn
// boxes. cs[i] holds res's column cols[i] (column i when cols is nil).
// scratch holds the cells, grown to their width and cleared on the way
// out. Each chunk after the first is a cancellation point (poll), so a
// rebuild's or a bulk write's absorb honours ctx.
func eachRow(ctx context.Context, res *engine.ColTable, cols []int, sel []int32, scratch *[]cells, fn func(cs []cells, j int) error) error {
	w := len(res.Attrs())
	if cols != nil {
		w = len(cols)
	}
	if cap(*scratch) < w {
		*scratch = make([]cells, w)
	}
	cs := (*scratch)[:w]
	defer clear(cs)
	for k, done, n := 0, 0, res.NumRows(); done < n; k++ {
		if k > 0 {
			if err := poll(ctx, "maintain.absorb"); err != nil {
				return err
			}
		}
		rows := 0
		for c := range cs {
			col := c
			if cols != nil {
				col = cols[c]
			}
			x := &cs[c]
			x.kind, x.ints, x.floats, x.strs = res.Cells(col, k)
			rows = len(x.ints) + len(x.floats) + len(x.strs)
			if sums := res.Sums(col); sums != nil {
				x.sums = sums[done : done+rows]
			}
		}
		for j := 0; j < rows; j++ {
			if sel != nil {
				if len(sel) == 0 || int(sel[0]) != done+j {
					continue
				}
				sel = sel[1:]
			}
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
// it holds aliases live counting state that the batch changes, so an
// abort leaves it as it is: a write's pending is the view's scratch
// (state.begin), which the next batch resets, and a rebuild's is
// dropped.
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

	out staged
	// keys are the touched groups' keys in the order the batch first
	// touched them — created groups append their rows in this order —
	// and drop lists the row positions an incremental aggregation view's
	// vanished groups leave, ascending.
	keys []cellKey
	drop []int32
	// buf is the scratch the delta's keys are built in; slab and aggSlab
	// hand out the touched groups and their aggregate states in chunks
	// (slabChunk); rows counts the result being absorbed, which creates
	// no more groups than that. tuples, setAt, setRows and appends are
	// stageAggregation's rows and delta, which the engine copies into its
	// own chunks.
	buf     []byte
	slab    []touched
	aggSlab []aggState
	rows    int
	tuples  []value.Value
	setAt   []int32
	setRows [][]value.Value
	appends [][]value.Value
	// at, orphan and kept are absorbDelta's: the delta rows' partner
	// positions in one key-side table, the rows some key-side table has
	// no partner for, and the rows kept.
	at     []int32
	orphan []bool
	kept   []int32
}

// keepGroups bounds the scratch a view keeps between batches: one stored
// chunk's rows. A batch that touched more groups (or, for a conjunctive
// view, staged more rows), or a write of more rows, leaves its buffers
// to the collector.
const keepGroups = 1024

// begin returns the view's pending state for a write batch: its scratch,
// reset over the live groups. The maintainer's lock serializes batches,
// so one scratch per view suffices.
func (st *state) begin() *pending {
	if st.scratch == nil {
		st.scratch = &pending{st: st}
	}
	st.scratch.reset(st.groups)
	return st.scratch
}

// reset readies a scratch for a batch over live, whatever the last batch
// left in it — committed or aborted part-way. What that batch staged is
// zeroed, not written over: fold moved its groups' values, exact totals
// and multisets into live groups, and the scratch must hold no path to
// them for the new batch to write through (group re-slices aggSlab and
// takes its states as it finds them). The buffers keep their room; of
// the slab chunks only the last is kept, its touched groups and
// aggregate states reused. setRows and appends point into tuples only.
func (p *pending) reset(live map[cellKey]*group) {
	clear(p.groups)
	clear(p.slab)
	clear(p.aggSlab)
	clear(p.conjAdd)
	clear(p.conjDel)
	clear(p.tuples)
	*p = pending{
		st: p.st, live: live, groups: p.groups,
		conjAdd: p.conjAdd[:0], conjDel: p.conjDel[:0],
		keys: p.keys[:0], drop: p.drop[:0], buf: p.buf[:0],
		slab: p.slab[:0], aggSlab: p.aggSlab[:0],
		tuples: p.tuples[:0], setAt: p.setAt[:0], setRows: p.setRows[:0], appends: p.appends[:0],
		at: p.at[:0], orphan: p.orphan[:0], kept: p.kept[:0],
	}
}

// release ends the view's part in a batch, and drops its scratch when the
// batch touched more than keepGroups groups or rows or looked up partners
// for more delta rows, so a one-off bulk write pins nothing.
func (st *state) release() {
	st.cur = nil
	if p := st.scratch; p != nil && max(len(p.keys)+len(p.conjAdd)+len(p.conjDel), cap(p.at)) > keepGroups {
		st.scratch = nil
	}
}

// cancel takes each row a conjunctive view's batch both adds and removes
// out of both lists, as many times as it does both.
func (p *pending) cancel() {
	var buf []byte
	key := func(r []value.Value) cellKey {
		buf = buf[:0]
		for _, v := range r {
			buf = v.AppendKey(buf)
		}
		return cellKey(buf)
	}
	adds := map[cellKey][]int{}
	for i, r := range p.conjAdd {
		adds[key(r)] = append(adds[key(r)], i)
	}
	gone := make([]bool, len(p.conjAdd))
	p.conjDel = slices.DeleteFunc(p.conjDel, func(r []value.Value) bool {
		k := key(r)
		xs := adds[k]
		if len(xs) == 0 {
			return false
		}
		gone[xs[0]], adds[k] = true, xs[1:]
		return true
	})
	i := -1
	p.conjAdd = slices.DeleteFunc(p.conjAdd, func([]value.Value) bool { i++; return gone[i] })
}

// slabChunk caps the groups the first slab chunk of a batch holds; each
// later chunk doubles the last, so a result naming few groups in many
// rows (a rebuild's) allocates for its groups, not its rows.
const slabChunk = 64

// touched is one group's staged state. next carries the scalars (n and
// each SUM or AVG total, a float total's digits copied on first touch)
// as the batch leaves them; next.aggs[i].vals holds the MIN/MAX value
// multiplicity deltas, so staging a group costs its delta, not its
// multiset.
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

	// Stage base-table deltas (validating arity and delete multiset
	// membership) without installing anything. seen[i] is mutation i's
	// table as staged once it is applied: what the deltas of the
	// mutations after it read of that table.
	overlay := map[string]*staged{}
	order := make([]string, 0, len(muts))
	seen := make([]*staged, len(muts))
	deltaRows := 0
	keyed := map[string]*keyBatch{} // tables with declared keys: what the batch does to them
	for i, mut := range muts {
		var base *engine.ColTable
		if prev, ok := overlay[mut.Table]; ok {
			base = prev.table()
		} else {
			var found bool
			if base, found, _ = m.db.Scan(mut.Table); !found {
				return fmt.Errorf("maintain: unknown table %q", mut.Table)
			}
			order = append(order, mut.Table)
			if len(m.declared[mut.Table]) > 0 {
				keyed[mut.Table] = &keyBatch{stored: base}
			}
		}
		delta, err := tableDelta(base, mut)
		if err != nil {
			return err
		}
		if kb := keyed[mut.Table]; kb != nil {
			kb.muts = append(kb.muts, mut)
		}
		seen[i] = &staged{name: mut.Table, base: base, delta: delta}
		overlay[mut.Table] = seen[i]
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

	// Evaluate deltas per mutation, in order: each delta sees the state
	// of previously processed tables as those mutations left them and the
	// old state of later ones, which telescopes to the exact batch result.
	committed := map[string]*staged{}
	read := overlayStorage{db: m.db, staged: committed}
	// However the batch ends, each view leaves it, and a scratch it grew
	// past keepGroups goes, so a one-off bulk write pins nothing.
	defer func() {
		for _, st := range m.order {
			st.release()
		}
	}()
	for i, mut := range muts {
		// The mutation's signed delta table, built for the first view that
		// needs it, so a write no tracked view depends on costs what the
		// engine's own append does.
		var delta *engine.ColTable
		for _, st := range m.order {
			if !st.trans[mut.Table] {
				continue
			}
			if st.cur == nil {
				st.cur = st.begin()
			}
			p := st.cur
			if p.recompute {
				continue
			}
			if !st.incremental || st.direct[mut.Table] != 1 || st.viaView[mut.Table] {
				p.recompute = true
				m.Metrics.Volatile("maintain.fallback.full").Inc()
				continue
			}
			if err := poll(ctx, "maintain.delta"); err != nil {
				return err
			}
			if len(mut.Deletes)+len(mut.Inserts) == 0 {
				continue
			}
			if delta == nil {
				delta = m.signedDelta(overlay[mut.Table].base.Attrs(), mut)
			}
			direct, err := m.absorbSigned(ctx, p, mut.Table, delta, &read, overlay)
			switch {
			case !direct:
				m.Metrics.Volatile("maintain.delta.query").Inc()
			case len(st.rows[mut.Table].joins) > 0:
				m.Metrics.Volatile("maintain.delta.keyed").Inc()
				fallthrough
			default:
				m.Metrics.Volatile("maintain.delta.direct").Inc()
			}
			// A finer group's int total past int64 (two deleted MaxInt64
			// rows, say) need not mean the view's new totals leave it: the
			// rebuild against the staged tables decides.
			if err != nil {
				if ov := (*value.OverflowError)(nil); !errors.As(err, &ov) {
					return err
				}
				p.recompute = true
				m.Metrics.Volatile("maintain.fallback.full").Inc()
			}
		}
		committed[mut.Table] = seen[i]
	}

	// Stage the materializations; recompute fallbacks evaluate against
	// the fully mutated base state plus previously staged views, in
	// nesting order.
	groupsTouched := 0
	for _, st := range m.order {
		p := st.cur
		switch {
		case p == nil:
			continue
		case p.recompute:
			tab, groups, err := m.rebuild(ctx, st, &overlayStorage{db: m.db, staged: overlay})
			if err != nil {
				return err
			}
			// The rebuilt state replaces any deltas staged before.
			p = &pending{st: st, live: groups, out: staged{whole: tab}}
			st.cur = p
		case st.conjunctive:
			drop, ok := st.tab.Locate(p.conjDel)
			if !ok {
				// A row one mutation of the batch adds and a later one
				// removes is in no installed version.
				p.cancel()
				drop, ok = st.tab.Locate(p.conjDel)
			}
			if !ok {
				return fmt.Errorf("maintain: view %s lacks a row its delete delta names", st.def.Name)
			}
			p.out = staged{base: st.tab, delta: engine.Delta{Drop: drop, Append: p.conjAdd}}
		default:
			d, err := p.stageAggregation()
			if err != nil {
				return err
			}
			p.out = staged{base: st.tab, delta: d}
			groupsTouched += len(p.groups)
		}
		p.out.name, p.out.silent = st.def.Name, true
		overlay[st.def.Name] = &p.out
	}

	// Final injection point before the commit: the batch is still
	// all-or-nothing because nothing below can fail.
	if err := poll(ctx, "maintain.commit"); err != nil {
		return err
	}

	batch := m.commits[:0]
	for _, key := range order {
		batch = append(batch, overlay[key].commit())
	}
	for _, st := range m.order {
		if st.cur != nil {
			batch = append(batch, st.cur.out.commit())
		}
	}
	installed := m.db.Apply(batch)
	// The kept commit slice lets go of the versions it named.
	clear(batch)
	m.commits = batch[:0]
	for _, key := range order {
		for i, d := range m.declared[key] {
			d.commit(keyed[key].hashes[i])
		}
	}
	at := len(order)
	for _, st := range m.order {
		if p := st.cur; p != nil {
			p.fold()
			// The scratch lets go of the version it was staged over.
			st.tab, st.groups, p.out = installed[at], p.live, staged{}
			at++
		}
	}
	m.Metrics.Volatile("maintain.batch.apply").Inc()
	m.Metrics.Volatile("maintain.delta.rows").Add(int64(deltaRows))
	m.Metrics.Volatile("maintain.groups.touched").Add(int64(groupsTouched))
	return nil
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
	db     *engine.DB
	staged map[string]*staged
	key    string // the table bound to delta; "" for none
	delta  *engine.ColTable
}

// Scan implements engine.Storage.
func (o *overlayStorage) Scan(name string) (*engine.ColTable, bool, error) {
	if o.delta != nil && name == o.key {
		return o.delta, true, nil
	}
	if s, ok := o.staged[name]; ok {
		return s.table(), true, nil
	}
	return o.db.Scan(name)
}

// poll is the maintainer's cancellation point: it observes
// faultinject.SiteMaintain once and returns a typed *budget.Canceled,
// naming site, once ctx is done.
func poll(ctx context.Context, site string) error {
	faultinject.From(ctx).Observe(faultinject.SiteMaintain, 1)
	return budget.Check(ctx, site)
}

// absorbSigned absorbs delta, the signed delta table of a write to table,
// into p: the one way a write and a rebuild reach a view's counting
// state. A view with a layout over table reads the rows itself
// (absorbDelta), looking partners up as read holds them, unless the
// batch so far leaves a key-side table in a version its keys are not
// known to hold in (layout.trusted, final being every table the batch
// stages); any other runs its delta query over read with table bound to
// delta. It reports whether the rows were read directly.
func (m *Maintainer) absorbSigned(ctx context.Context, p *pending, table string, delta *engine.ColTable, read *overlayStorage, final map[string]*staged) (direct bool, err error) {
	if lay := p.st.rows[table]; lay != nil && lay.trusted(read.staged, final) {
		return true, p.absorbDelta(ctx, delta, lay, read)
	}
	ev := m.evaluator(&overlayStorage{db: m.db, staged: read.staged, key: table, delta: delta})
	res, err := ev.ExecColumns(ctx, p.st.delta[table])
	if err != nil {
		return false, err
	}
	return false, p.absorb(ctx, res, nil, nil)
}

// trusted reports whether the batch so far leaves each key-side table of
// the layout either as it is live or as the batch's last mutation of it
// leaves it: the versions its keys are known to hold in, which the
// batch's key checks read. A batch that changes such a table again later
// (a mutation of it, then of T, then of it) runs the view's delta query.
func (lay *layout) trusted(committed, overlay map[string]*staged) bool {
	for _, j := range lay.joins {
		if s := committed[j.table]; s != nil && s != overlay[j.table] {
			return false
		}
	}
	return true
}

// absorbDelta absorbs a write's signed delta table into the pending state
// of a view that reads it itself (layout). Each row looks up its one
// partner in each key-side table as the batch sees it (read;
// engine.ColTable.Lookup), whose cells the view reads are laid beside the
// row's own (engine.ColTable.Beside), and a row with no partner drops
// out, as the join drops it. The engine's filter keeps the rows the
// view's WHERE admits (engine.ColTable.Select), and each kept row is a
// finer group of its own, its sign its count.
func (p *pending) absorbDelta(ctx context.Context, delta *engine.ColTable, lay *layout, read *overlayStorage) error {
	rows, n, orphans := delta, delta.NumRows(), 0
	if len(lay.joins) > 0 {
		p.orphan = append(p.orphan[:0], make([]bool, n)...)
	}
	for _, j := range lay.joins {
		d, _, _ := read.Scan(j.table)
		p.at = d.Lookup(delta, j.from, j.key, p.at)
		for i, at := range p.at {
			if at < 0 && !p.orphan[i] {
				p.orphan[i] = true
				orphans++
			}
		}
		if orphans == n {
			return nil
		}
		rows = rows.Beside(d, j.cols, p.at)
	}
	var sel []int32
	switch {
	case len(lay.where) > 0:
		var err error
		if sel, err = rows.Select(lay.where); err != nil {
			return err
		}
		if orphans > 0 {
			sel = slices.DeleteFunc(sel, func(i int32) bool { return p.orphan[i] })
		}
		if len(sel) == 0 {
			return nil
		}
	case orphans > 0:
		sel = p.kept[:0]
		for i, o := range p.orphan {
			if !o {
				sel = append(sel, int32(i))
			}
		}
		p.kept = sel
	}
	return p.absorb(ctx, rows, lay.cols, sel)
}

// absorb coalesces one delta query's result — or, read through cols and
// sel, a delta table's rows (absorbDelta) — into the pending state: a
// conjunctive view's rows split by their sign into the rows to add and
// to remove; an aggregation view's finer groups fold into the view's,
// their multiplicities and exact totals adding up (a deleted one's
// subtracting) and each MIN/MAX multiset taking its argument value's
// Δcount. This is the one place a SUM or AVG delta is added.
func (p *pending) absorb(ctx context.Context, res *engine.ColTable, cols []int, sel []int32) error {
	st := p.st
	if st.conjunctive {
		w := len(st.def.Def.Select)
		return eachRow(ctx, res, cols, sel, &st.cells, func(cs []cells, j int) error {
			row := rowValues(cs, w, j)
			if cs[w].ints[j] > 0 {
				p.conjAdd = append(p.conjAdd, row)
			} else {
				p.conjDel = append(p.conjDel, row)
			}
			return nil
		})
	}
	if p.rows = res.NumRows(); sel != nil {
		p.rows = len(sel)
	}
	if p.groups == nil {
		n := min(p.rows, slabChunk)
		p.groups, p.keys = make(map[cellKey]*touched, n), make([]cellKey, 0, n)
	}
	return eachRow(ctx, res, cols, sel, &st.cells, func(cs []cells, j int) error {
		t := p.group(cs, j)
		g := &t.next
		// The count of a delta query's finer group, negated under sign
		// −1; a delta table's row's count is its sign.
		dn := cs[st.nAt].ints[j]
		if len(cs) > st.nAt+1 && cs[st.nAt+1].ints[j] < 0 {
			dn = -dn
		}
		if g.n += dn; g.n < 0 {
			return fmt.Errorf("maintain: negative multiplicity in view %s", st.def.Name)
		}
		for i, a := range st.aggs {
			as := &g.aggs[i]
			switch a.fn {
			case ir.AggSum, ir.AggAvg:
				// A total starts from 0, as in the engine's fold, an
				// AVG's as its SUM's; a float delta, from a column a
				// float widened, makes an int total float, and the
				// view's column widens with it. A delta table's cell is
				// checked as the engine's fold checks its argument.
				c := &cs[a.at]
				if c.kind != value.KindInt && c.kind != value.KindFloat {
					return fmt.Errorf("maintain: %s over non-numeric value %s", a.fn, c.value(j))
				}
				c.addTo(&as.sum, j, dn < 0)
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
	live := p.live[cellKey(p.buf)]
	var gk cellKey
	if live != nil {
		gk = live.key
	} else {
		gk = cellKey(p.buf)
	}
	if len(p.slab) == cap(p.slab) {
		// A new chunk: the touched groups already handed out stay put.
		n := min(p.rows, max(2*cap(p.slab), slabChunk))
		p.slab, p.aggSlab = make([]touched, 0, n), make([]aggState, 0, n*len(p.st.aggs))
	}
	p.slab = append(p.slab, touched{live: live})
	t := &p.slab[len(p.slab)-1]
	na := len(p.aggSlab)
	p.aggSlab = p.aggSlab[:na+len(p.st.aggs)]
	t.next.aggs = p.aggSlab[na : na+len(p.st.aggs) : na+len(p.st.aggs)]
	if t.live == nil {
		t.next.groupVals = rowValues(cs, k, j)
	} else {
		t.next.groupVals, t.next.n = t.live.groupVals, t.live.n
		for i, as := range t.live.aggs {
			t.next.aggs[i] = aggState{sum: as.sum.Clone()}
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
// at. A rebuild's delta is all appends. A new int total that int64
// cannot hold is a *value.OverflowError, and the batch aborts.
func (p *pending) stageAggregation() (engine.Delta, error) {
	st := p.st
	w := len(st.def.Def.Select)
	if n := len(p.keys) * w; cap(p.tuples) < n {
		p.tuples = make([]value.Value, n)
	} else {
		p.tuples = p.tuples[:n]
	}
	d := engine.Delta{SetAt: p.setAt[:0], SetRows: p.setRows[:0], Append: p.appends[:0]}
	for i, gk := range p.keys {
		tuple := p.tuples[i*w : (i+1)*w : (i+1)*w]
		t := p.groups[gk]
		if t.next.n > 0 {
			if err := p.row(t, tuple); err != nil {
				return engine.Delta{}, err
			}
		}
		switch {
		case t.live != nil && t.next.n > 0:
			d.SetAt = append(d.SetAt, int32(t.live.pos))
			d.SetRows = append(d.SetRows, tuple)
		case t.live != nil:
			p.drop = append(p.drop, int32(t.live.pos))
		case t.next.n > 0:
			d.Append = append(d.Append, tuple)
		}
	}
	slices.Sort(p.drop)
	d.Drop = p.drop
	p.setAt, p.setRows, p.appends = d.SetAt, d.SetRows, d.Append
	return d, nil
}

// row builds a touched group's output tuple into tuple from its staged
// state: the one definition of a maintained row, for a group a batch
// patches or creates — and every group of a rebuild is one it creates.
// A SUM or AVG total is rounded here, once, as the engine rounds its
// own. Each cell is its canonical member (value.Value.Canon), as the
// engine emits a group key or an aggregate: the rule's equal values the
// batch met, in whatever order, read as one.
func (p *pending) row(t *touched, tuple []value.Value) error {
	g := &t.next
	for i, pos := range p.st.groupPos {
		tuple[pos] = g.groupVals[i]
	}
	for i, a := range p.st.aggs {
		switch a.fn {
		case ir.AggCount:
			tuple[a.pos] = value.Int(g.n)
		case ir.AggSum, ir.AggAvg:
			sum, err := g.aggs[i].sum.Value()
			if err != nil {
				return err
			}
			if tuple[a.pos] = sum; a.fn == ir.AggAvg {
				tuple[a.pos] = value.Float(sum.AsFloat() / float64(g.n))
			}
		case ir.AggMin, ir.AggMax:
			tuple[a.pos] = p.extremum(t, i, a.fn)
		}
	}
	for i := range tuple {
		tuple[i] = tuple[i].Canon()
	}
	return nil
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
			g = &group{tally{t.next.groupVals, 0, make([]aggState, len(t.next.aggs))}, gk, pos}
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
	st, ok := m.tracked[name]
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
	return slices.Sorted(maps.Keys(m.tracked))
}

// Tracks reports whether the view declared under name is maintained
// (like Mode and GroupCounts, it compares names exactly).
func (m *Maintainer) Tracks(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.tracked[name]
	return ok
}

// GroupCounts returns a copy of an aggregation view's multiplicity
// counts by group key (a cellKey's bytes) — the counting algorithm's core invariant, which
// the property tests (insert∘delete = identity) assert on directly.
func (m *Maintainer) GroupCounts(name string) (map[string]int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tracked[name]
	if !ok || st.groups == nil {
		return nil, false
	}
	out := make(map[string]int64, len(st.groups))
	for k, g := range st.groups {
		out[string(k)] = g.n
	}
	return out, true
}
