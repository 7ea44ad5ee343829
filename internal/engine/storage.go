package engine

import (
	"math"
	"sort"
	"sync/atomic"

	"aggview/internal/faultinject"
	"aggview/internal/value"
)

// ColTable is one version of a stored relation: one typed vector per
// attribute, in schema order. It is the only stored form — rows exist
// boxed only at the API edge (Put converts in, Relation converts out).
//
// A version is immutable in its first n cells per column; the engine
// shares those vectors into scan batches without copying. Successive
// versions may share backing arrays: an append extends the installed
// version's arrays into their spare capacity (cells at n and beyond,
// which no older version can address), and an update shares every
// column it does not assign. See DB.Apply for the one place that
// extends in place.
type ColTable struct {
	attrs []string
	n     int
	cols  []*Vec
	bytes int64
	ver   uint64 // per-relation version, assigned at install
}

// NumRows returns the number of rows.
func (c *ColTable) NumRows() int { return c.n }

// Bytes returns the estimated payload footprint, charged against
// budget.Limits.MaxMemBytes once per operation that scans the table.
func (c *ColTable) Bytes() int64 { return c.bytes }

// Attrs returns the attribute names (shared; do not mutate).
func (c *ColTable) Attrs() []string { return c.attrs }

// Value boxes the cell at row i, column col.
func (c *ColTable) Value(i, col int) value.Value { return c.cols[col].Value(i) }

// Rows boxes the rows at the given positions, in that order.
func (c *ColTable) Rows(pos []int32) [][]value.Value {
	w := len(c.cols)
	cells := make([]value.Value, len(pos)*w)
	out := make([][]value.Value, len(pos))
	for j, i := range pos {
		row := cells[j*w : (j+1)*w : (j+1)*w]
		for k, v := range c.cols {
			row[k] = v.Value(int(i))
		}
		out[j] = row
	}
	return out
}

// Relation boxes the whole table. It costs O(rows x columns); callers
// that only need a count use NumRows.
func (c *ColTable) Relation() *Relation {
	pos := make([]int32, c.n)
	for i := range pos {
		pos[i] = int32(i)
	}
	return &Relation{Attrs: c.attrs, Tuples: c.Rows(pos)}
}

// BuildColTable converts a row-major relation into a fresh columnar
// table that shares no buffer with any other.
func BuildColTable(r *Relation) *ColTable {
	ct := &ColTable{attrs: r.Attrs, n: len(r.Tuples), cols: make([]*Vec, len(r.Attrs))}
	for pos := range r.Attrs {
		ct.cols[pos] = colVecOf(r.Tuples, pos)
	}
	ct.sumBytes()
	return ct
}

func (c *ColTable) sumBytes() {
	c.bytes = 0
	for _, v := range c.cols {
		c.bytes += v.bytes()
	}
}

// Delta describes a table version relative to a base version. Set is
// applied first and Drop second, both against base positions; Append
// rows follow the survivors. Set and Drop positions must be disjoint.
type Delta struct {
	// SetAt[i] is the position of the row replaced by SetRows[i]. Only
	// the columns in which some cell actually changes are copied.
	SetAt   []int32
	SetRows [][]value.Value
	// Drop lists the positions of the rows to remove, ascending and
	// distinct.
	Drop []int32
	// Append holds the rows to add at the end.
	Append [][]value.Value
}

// deltaCost is what deriving one version cost, for the store counters.
type deltaCost struct {
	copied  int64 // bytes of column cells rewritten into fresh arrays
	realloc bool  // some column outgrew its array (or was rebuilt) while appending
}

// With returns base+delta as a table that never writes into the base's
// arrays: changed columns are copied, unchanged ones are shared with
// their capacity clipped so that a later append to the result
// reallocates. It is the derivation for every version that is not the
// installed one (staged tables a later delta of the same batch must
// read, stale bases).
func (c *ColTable) With(d Delta) *ColTable {
	out, _ := c.derive(&d, false)
	return out
}

// derive builds base+delta. owned is true only for the installed
// version under db.mu: then an unchanged column is extended into its
// spare capacity in place.
func (c *ColTable) derive(d *Delta, owned bool) (*ColTable, deltaCost) {
	var cost deltaCost
	if c.n == 0 {
		// Nothing to share and no kind committed yet: the appended
		// rows decide each column's kind.
		out := BuildColTable(&Relation{Attrs: c.attrs, Tuples: d.Append})
		cost.realloc = true
		return out, cost
	}
	out := &ColTable{attrs: c.attrs, n: c.n - len(d.Drop) + len(d.Append), cols: make([]*Vec, len(c.cols))}
	for col, v := range c.cols {
		out.cols[col] = v.patch(col, d, owned, &cost)
	}
	out.sumBytes()
	return out, cost
}

// patch derives one column of base+delta.
func (v *Vec) patch(col int, d *Delta, owned bool, cost *deltaCost) *Vec {
	n := v.Len()
	rebuild := len(d.Drop) > 0
	promote := false
	for i, p := range d.SetAt {
		nv := d.SetRows[i][col]
		if !v.holds(nv) {
			promote = true
		}
		if !rebuild && !sameCell(v.Value(int(p)), nv) {
			rebuild = true
		}
	}
	for _, r := range d.Append {
		if !v.holds(r[col]) {
			promote = true
		}
	}
	if promote {
		// One fresh boxed copy keeps every earlier cell's exact value.
		vals := make([]value.Value, n)
		for i := range vals {
			vals[i] = v.Value(i)
		}
		v, rebuild = &Vec{kind: kindMixed, vals: vals}, true
	}
	out := &Vec{kind: v.kind}
	switch v.kind {
	case value.KindInt:
		out.ints = patchCells(v.ints, col, d, rebuild, owned, cost, value.Value.AsInt)
	case value.KindBool:
		out.ints = patchCells(v.ints, col, d, rebuild, owned, cost, func(x value.Value) int64 {
			if x.AsBool() {
				return 1
			}
			return 0
		})
	case value.KindFloat:
		out.floats = patchCells(v.floats, col, d, rebuild, owned, cost, value.Value.AsFloat)
	case value.KindString:
		out.strs = patchCells(v.strs, col, d, rebuild, owned, cost, value.Value.AsString)
	default:
		out.vals = patchCells(v.vals, col, d, rebuild, owned, cost, func(x value.Value) value.Value { return x })
	}
	if rebuild {
		cost.copied += out.bytes()
	}
	return out
}

// holds reports whether x can be stored in v without changing v's kind.
func (v *Vec) holds(x value.Value) bool {
	return v.kind == kindMixed || v.kind == x.Kind()
}

// sameCell reports whether two boxed cells are the same stored value:
// same kind and, within a kind, the same key (every NaN is one value).
func sameCell(a, b value.Value) bool {
	return a.Kind() == b.Kind() && value.KeyEqual(a, b)
}

// patchCells derives one payload slice. With rebuild it copies xs into
// a fresh array with headroom, overwrites the Set cells and compacts
// the Drop positions away; otherwise it keeps xs, clipping its capacity
// unless the caller owns the spare cells. Appended cells then go
// through append, which writes in place while capacity lasts and grows
// geometrically when it does not.
func patchCells[T any](xs []T, col int, d *Delta, rebuild, owned bool, cost *deltaCost, conv func(value.Value) T) []T {
	n := len(xs)
	switch {
	case rebuild:
		final := n - len(d.Drop) + len(d.Append)
		fresh := make([]T, n, max(n, final+final/8+16))
		copy(fresh, xs)
		for i, p := range d.SetAt {
			fresh[p] = conv(d.SetRows[i][col])
		}
		if len(d.Drop) > 0 {
			w := int(d.Drop[0])
			for k, p := range d.Drop {
				hi := n
				if k+1 < len(d.Drop) {
					hi = int(d.Drop[k+1])
				}
				w += copy(fresh[w:], fresh[int(p)+1:hi])
			}
			fresh = fresh[:w]
		}
		xs = fresh
	case !owned:
		xs = xs[:n:n]
	}
	if len(d.Append) > cap(xs)-len(xs) {
		cost.realloc = true
	}
	for _, r := range d.Append {
		xs = append(xs, conv(r[col]))
	}
	return xs
}

// Locate resolves a multiset of rows to distinct positions holding
// them, matching cells as value.Key does (1 and 1.0 are one value). It
// is one pass over the first column — a typed probe when that column
// holds ints, the usual key — that verifies the remaining columns only
// on candidates. ok is false
// when some row is absent (or present fewer times than asked for).
// Positions come back ascending.
func (c *ColTable) Locate(rows [][]value.Value) (pos []int32, ok bool) {
	if len(rows) == 0 {
		return nil, true
	}
	// rows[w] is still unmatched while taken[w] is false; byFirst chains
	// the wanted rows that share a first-column key.
	taken := make([]bool, len(rows))
	left := len(rows)
	verify := func(i int, cands []int) {
		for _, w := range cands {
			if taken[w] {
				continue
			}
			match := true
			for col := 1; col < len(c.cols) && match; col++ {
				match = value.KeyEqual(c.cols[col].Value(i), rows[w][col])
			}
			if match {
				taken[w] = true
				left--
				pos = append(pos, int32(i))
				return
			}
		}
	}
	first := c.cols[0]
	switch first.kind {
	case value.KindInt:
		byFirst := map[int64][]int{}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for w, r := range rows {
			x, ok := intKeyOf(r[0])
			if !ok {
				return nil, false
			}
			byFirst[x] = append(byFirst[x], w)
			lo, hi = min(lo, x), max(hi, x)
		}
		for i, x := range first.ints {
			if x < lo || x > hi {
				continue
			}
			if cands, hit := byFirst[x]; hit {
				verify(i, cands)
				if left == 0 {
					break
				}
			}
		}
	default:
		byFirst := map[string][]int{}
		for w, r := range rows {
			byFirst[r[0].Key()] = append(byFirst[r[0].Key()], w)
		}
		var buf []byte
		for i := 0; i < c.n && left > 0; i++ {
			buf = first.Value(i).AppendKey(buf[:0])
			if cands, hit := byFirst[string(buf)]; hit {
				verify(i, cands)
			}
		}
	}
	return pos, left == 0
}

// intKeyOf returns the int64 an int-column cell must hold to share x's
// key: x itself for an int, the exact integer for an integral float in
// the range where value.Key unifies the two.
func intKeyOf(x value.Value) (int64, bool) {
	switch x.Kind() {
	case value.KindInt:
		return x.AsInt(), true
	case value.KindFloat:
		if f := x.AsFloat(); f >= -(1<<53) && f <= 1<<53 {
			if i := int64(f); value.KeyEqual(value.Int(i), x) {
				return i, true
			}
		}
	}
	return 0, false
}

// Storage resolves FROM sources to columnar tables; it is the engine's
// data-access seam. The in-memory *DB is the first implementation;
// FaultStorage, which fails scans with typed I/O-style errors, is the
// second. Implementations must be safe for concurrent Scan calls — the
// evaluator consults storage from concurrent Exec calls.
//
// Scan returns (nil, false, nil) for an unknown name, in which case the
// evaluator falls back to its view source. A non-nil error models an
// I/O failure: the evaluator aborts the operation with it and never
// caches a result derived from it.
type Storage interface {
	Scan(name string) (*ColTable, bool, error)
}

// Scan implements Storage: it returns the installed version.
func (db *DB) Scan(name string) (*ColTable, bool, error) {
	db.mu.Lock()
	ct, ok := db.tabs[lowerKey(name)]
	db.mu.Unlock()
	return ct, ok, nil
}

// Snapshot is an immutable, point-in-time view of every relation in a
// DB, pinned under one critical section so it is atomic with respect to
// Apply batches. It implements Storage: a query executed against a
// snapshot reads one consistent version of the database no matter how
// many mutations or maintained-view refreshes commit concurrently —
// the MVCC read side of incremental view maintenance (DESIGN.md
// section 14).
//
// Pinning copies one pointer per relation. It is sound because a pinned
// version's first n cells are never rewritten: later versions write
// either fresh arrays or cells at n and beyond.
type Snapshot struct {
	tabs map[string]*ColTable
	gen  uint64
}

// Snapshot pins the current version of every relation.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{tabs: make(map[string]*ColTable, len(db.tabs)), gen: db.gen}
	for key, ct := range db.tabs {
		s.tabs[key] = ct
	}
	return s
}

// Scan implements Storage against the pinned versions.
func (s *Snapshot) Scan(name string) (*ColTable, bool, error) {
	ct, ok := s.tabs[lowerKey(name)]
	return ct, ok, nil
}

// Relation boxes the pinned rows of a relation; see ColTable.Relation
// for the cost.
func (s *Snapshot) Relation(name string) (*Relation, bool) {
	ct, ok := s.tabs[lowerKey(name)]
	if !ok {
		return nil, false
	}
	return ct.Relation(), true
}

// NumRows returns the pinned row count of a relation.
func (s *Snapshot) NumRows(name string) (int, bool) {
	ct, ok := s.tabs[lowerKey(name)]
	if !ok {
		return 0, false
	}
	return ct.n, true
}

// Version returns the pinned version counter of a relation (0 if the
// relation was absent at pin time).
func (s *Snapshot) Version(name string) uint64 {
	if ct, ok := s.tabs[lowerKey(name)]; ok {
		return ct.ver
	}
	return 0
}

// Generation returns the DB's global install counter at pin time.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Names returns the sorted (lowercased) relation names pinned by the
// snapshot.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.tabs))
	for k := range s.tabs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SetOnInvalidate registers fn to be called, with the lowercased
// relation name, after every loud install (Put, Append, and Apply
// commits that are not Silent). The server's plan cache registers its
// eviction here. Like Put, SetOnInvalidate must not race queries:
// install the hook before serving. A nil fn unregisters.
func (db *DB) SetOnInvalidate(fn func(name string)) {
	db.mu.Lock()
	db.onInvalidate = fn
	db.mu.Unlock()
}

// FaultStorage wraps a Storage and fails the k-th Scan call — and every
// later one — with a typed *faultinject.Injected error, modelling a
// storage backend that goes away mid-operation. The countdown is
// deterministic: scans are issued serially by the evaluator in table
// order, so for a fixed workload the same scan fails every run. It is
// the error-mode counterpart of the cancellation injector, and the
// oracle's storage fault pass holds the engine to the same contract
// under it: exact bag or clean typed error, never a partial result.
type FaultStorage struct {
	inner     Storage
	remaining atomic.Int64
}

// NewFaultStorage returns a storage that fails from the k-th Scan on
// (k <= 1 fails every scan).
func NewFaultStorage(inner Storage, k int64) *FaultStorage {
	fs := &FaultStorage{inner: inner}
	fs.remaining.Store(k)
	return fs
}

// Scan implements Storage.
func (f *FaultStorage) Scan(name string) (*ColTable, bool, error) {
	if f.remaining.Add(-1) <= 0 {
		return nil, false, &faultinject.Injected{Site: faultinject.SiteStorage, Op: "scan " + name}
	}
	return f.inner.Scan(name)
}
