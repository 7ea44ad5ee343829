// Package engine is an in-memory multiset (bag) query engine for the
// canonical queries of package ir. It exists so the rewriter's output can
// be executed and checked for multiset equivalence against the original
// query — the paper's correctness criterion (Definition 2.2) — and so the
// benchmark harness can measure the speedups that motivate the paper.
//
// The engine evaluates single-block queries with conjunctive WHERE
// clauses, grouping, the aggregates MIN/MAX/SUM/COUNT/AVG (including
// aggregates over arithmetic expressions, which rewritten queries use),
// HAVING, and DISTINCT. Planning is simple but not naive: per-table
// filters are pushed down and equality joins run as hash joins.
//
// Simplification (documented in DESIGN.md): there are no NULLs, and an
// aggregation query without GROUP BY over an empty input yields zero
// rows rather than one all-NULL row. Both sides of an equivalence check
// run under the same semantics. Nor is anything approximate: no int +,
// - or × and no int SUM or AVG total answers a wrapped value — one whose
// exact result int64 cannot hold is a *value.OverflowError — and
// ResultsEqualBag, the equivalence check, is exact bag equality.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"aggview/internal/obs"
	"aggview/internal/value"
)

// Relation is a named-schema multiset of tuples.
type Relation struct {
	Attrs  []string
	Tuples [][]value.Value
}

// NewRelation builds an empty relation with the given attribute names.
func NewRelation(attrs ...string) *Relation {
	return &Relation{Attrs: attrs}
}

// Add appends a tuple; it panics when the arity is wrong (programming
// error in test or generator code).
func (r *Relation) Add(vals ...value.Value) {
	if len(vals) != len(r.Attrs) {
		panic(fmt.Sprintf("engine: tuple arity %d, relation %v has %d attributes", len(vals), r.Attrs, len(r.Attrs)))
	}
	r.Tuples = append(r.Tuples, vals)
}

// Len returns the number of tuples (with multiplicity).
func (r *Relation) Len() int { return len(r.Tuples) }

// tupleKey returns a tuple's cells' canonical keys (value.AppendKey),
// concatenated: equal exactly when tuples are KeyEqual cell by cell.
func tupleKey(t []value.Value) string {
	var b []byte
	for _, v := range t {
		b = v.AppendKey(b)
	}
	return string(b)
}

// String renders the relation as a small table for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Attrs, " | "))
	b.WriteByte('\n')
	for i, t := range r.Tuples {
		if i >= 20 {
			fmt.Fprintf(&b, "... (%d tuples total)\n", len(r.Tuples))
			break
		}
		parts := make([]string, len(t))
		for j, v := range t {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}

// Sorted returns a copy of the relation with tuples in canonical order,
// for deterministic golden tests: by value.Compare column by column;
// tuples it calls equal, which are KeyEqual, keep their order.
func (r *Relation) Sorted() *Relation {
	out := &Relation{Attrs: append([]string{}, r.Attrs...), Tuples: append([][]value.Value{}, r.Tuples...)}
	sort.SliceStable(out.Tuples, func(i, j int) bool {
		a, b := out.Tuples[i], out.Tuples[j]
		for c := range a {
			if d := value.Compare(a[c], b[c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return out
}

// DB is a collection of named relations (base tables and materialized
// views), keyed exactly by the names they were declared under (the facade
// binds a user's spelling to that name). Every relation is stored once,
// as a versioned ColTable (see storage.go); DB implements Storage by
// handing out the installed version.
//
// All access is synchronized on db.mu, so mutations (Put, Append,
// Apply) may run concurrently with queries. Readers that need
// a stable multi-relation view across an entire query take a Snapshot
// rather than holding the lock. The concurrency contract this relies
// on: the cells of an installed version are never rewritten — every
// mutation path installs a new version whose chunks are fresh arrays,
// the previous version's own chunks, or its last chunk's array extended
// past that version's length.
type DB struct {
	mu   sync.Mutex
	tabs map[string]*ColTable

	// onInvalidate, when set, observes every loud install (see
	// SetOnInvalidate in storage.go). Guarded by mu; invoked outside it.
	onInvalidate func(name string)
	// metrics counts which path each write took (see SetMetrics): the
	// registry's handles, none when it is nil.
	metrics storeMetrics
	// snap is the snapshot of the installed versions, shared by every
	// reader until the next install (Snapshot); nil: none taken since.
	snap *Snapshot
}

// storeMetrics is the store's counter handles, resolved once in
// SetMetrics: an install names none of them.
type storeMetrics struct {
	appendInplace, appendCopied, compactBytes, chunksCopied, chunksShared *obs.Counter
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tabs: map[string]*ColTable{}} }

// SetMetrics attaches the registry the store counters go to, all
// volatile: engine.store.append.inplace / engine.store.append.copied
// count the appending installs that did not / did have to move a
// column's last chunk to a larger array, engine.store.compact.bytes the
// bytes of the chunks deletes and updates rewrote, and
// engine.store.chunks.copied / engine.store.chunks.shared, per install by
// delta, the chunks whose cells were copied out of the previous version
// and the chunks the new version points at in it. Nil (the default)
// detaches.
func (db *DB) SetMetrics(m *obs.Metrics) {
	sm := storeMetrics{
		appendInplace: m.Volatile("engine.store.append.inplace"),
		appendCopied:  m.Volatile("engine.store.append.copied"),
		compactBytes:  m.Volatile("engine.store.compact.bytes"),
		chunksCopied:  m.Volatile("engine.store.chunks.copied"),
		chunksShared:  m.Volatile("engine.store.chunks.shared"),
	}
	db.mu.Lock()
	db.metrics = sm
	db.mu.Unlock()
}

// installLocked makes ct the installed version of key under db.mu.
// Callers fire the invalidation hook (if any) after releasing the lock.
func (db *DB) installLocked(key string, ct *ColTable) {
	ct.ver = 1
	if prev, ok := db.tabs[key]; ok {
		ct.ver = prev.ver + 1
	}
	db.tabs[key] = ct
	db.snap = nil
}

// advanceLocked installs base+delta under db.mu. This is the single
// site that extends a stored chunk in place: only when base is the
// version installed right now (a table is installed at most once, so
// the pointer identifies the version) does the derivation own the spare
// capacity behind its last chunk. Any other base — a staged table, a
// version a concurrent writer has since replaced — is advanced by copy,
// so no two live versions ever write the same cell.
func (db *DB) advanceLocked(key string, base *ColTable, d *Delta) *ColTable {
	next, cost := base.derive(d, db.tabs[key] == base)
	db.installLocked(key, next)
	mt := &db.metrics
	if len(d.Append) > 0 {
		if cost.realloc {
			mt.appendCopied.Inc()
		} else {
			mt.appendInplace.Inc()
		}
	}
	if cost.copied > 0 {
		mt.compactBytes.Add(cost.copied)
	}
	mt.chunksCopied.Add(cost.chunksCopied)
	mt.chunksShared.Add(cost.chunksShared)
	return next
}

// Put stores a relation under a name, replacing any previous one. The
// rows are converted into fresh vectors, so the database never shares a
// buffer with r or with another database r was Put into, and later
// changes to r are not observed. The invalidation hook fires: a
// wholesale replacement can make any dependent plan or materialization
// stale. Like every install it takes rows as they come: a column whose
// cells no one kind holds panics (BuildColTable); a write of rows from
// users goes through ColTable.Conform first.
func (db *DB) Put(name string, r *Relation) {
	db.Apply([]Commit{{Name: name, Table: BuildColTable(r)}})
}

// Append adds tuples to an existing relation — O(rows appended) plus
// one pointer per chunk: the installed version's last chunk grows into
// its spare capacity, new chunks follow it, and versions pinned by
// snapshots keep their own length — and fires the invalidation hook. It
// reports whether the relation exists.
func (db *DB) Append(name string, rows ...[]value.Value) bool {
	return db.Apply([]Commit{{Name: name, Delta: Delta{Append: rows}}})[0] != nil
}

// Commit is one relation install inside an atomic Apply batch: either a
// whole replacement (Table, which the database takes ownership of and
// which must not be installed anywhere else) or Delta applied to the
// version Base — the installed one when Base is nil, and nothing at all
// when no relation of the name is installed. Silent commits (maintained
// views that absorbed a delta) skip the invalidation hook unless they
// change a column's kind; loud ones (base tables) fire it.
type Commit struct {
	Name   string
	Table  *ColTable
	Base   *ColTable
	Delta  Delta
	Silent bool
}

// Apply installs a batch atomically with respect to Snapshot: a
// snapshot taken by a concurrent reader sees either none or all of the
// batch, never a half-applied mix. It returns the installed versions in
// batch order (nil for a commit that installed nothing). Invalidation
// hooks for loud commits fire after the lock is released, in batch
// order.
func (db *DB) Apply(batch []Commit) []*ColTable {
	installed, loud, fn := db.install(batch)
	if fn != nil {
		for _, key := range loud {
			fn(key)
		}
	}
	return installed
}

// install is Apply's critical section. The lock is released on the way
// out of a panic too: a delta that breaks the kind rule panics in derive.
func (db *DB) install(batch []Commit) (installed []*ColTable, loud []string, fn func(string)) {
	installed = make([]*ColTable, len(batch))
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, c := range batch {
		cur, ok := db.tabs[c.Name]
		switch {
		case c.Table != nil:
			db.installLocked(c.Name, c.Table)
			installed[i] = c.Table
		case c.Base != nil:
			installed[i] = db.advanceLocked(c.Name, c.Base, &c.Delta)
		case ok:
			installed[i] = db.advanceLocked(c.Name, cur, &c.Delta)
		default:
			continue
		}
		// A commit that changes a column's kind is loud even when it is
		// Silent: a plan over the relation chose its rewriting by the
		// kinds (core.Kinds), and a view's first rows fix its kinds.
		if !c.Silent || ok && !sameKinds(cur, installed[i]) {
			loud = append(loud, c.Name)
		}
	}
	return installed, loud, db.onInvalidate
}

// Get boxes a relation's rows into a fresh Relation. It costs O(rows x
// columns); use NumRows for cardinalities and queries for content.
func (db *DB) Get(name string) (*Relation, bool) {
	ct, ok, _ := db.Scan(name)
	if !ok {
		return nil, false
	}
	return ct.Relation(), true
}

// NumRows returns a relation's row count without boxing anything.
func (db *DB) NumRows(name string) (int, bool) {
	ct, ok, _ := db.Scan(name)
	if !ok {
		return 0, false
	}
	return ct.n, true
}

// Version returns the relation's version counter (0 if absent). Every
// Put/Append/Apply install bumps it; snapshots record the
// versions they pinned.
func (db *DB) Version(name string) uint64 {
	if ct, ok, _ := db.Scan(name); ok {
		return ct.ver
	}
	return 0
}
