package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"aggview/internal/value"
)

// chunkRows is the number of rows per stored chunk. It equals the morsel
// size, so a morsel of a stored table's own rows binds exactly one chunk
// of each column (see rowSet in scratch.go).
const chunkRows = morselRows

// chunkOf splits a row position into its chunk and the cell within it.
func chunkOf(p int32) (k, j int) {
	return int(uint32(p) / chunkRows), int(uint32(p) % chunkRows)
}

// RowsSpanning returns the least number of rows a stored table needs to
// span the given number of chunks. Generators use it to size inputs that
// cross chunk boundaries without knowing the chunk size.
func RowsSpanning(chunks int) int { return (chunks-1)*chunkRows + 1 }

// tailCap is the capacity a partly filled last chunk of need cells is
// given: room to double, up to a full chunk.
func tailCap(need int) int { return min(chunkRows, max(16, 2*need)) }

// ColTable is one version of a stored relation: one column per
// attribute, in schema order, each cut into chunks of chunkRows rows —
// every chunk full except the last, so row i is cell i%chunkRows of
// chunk i/chunkRows and positions stay dense. It is the only stored
// form — rows exist boxed only at the API edge (Put converts in,
// Relation converts out).
//
// A version's cells are immutable; the engine binds its chunks into scan
// batches without copying. Successive versions share chunks by pointer:
// deriving a version (derive) rewrites only the chunks its delta reaches
// and points at the rest. The one write into storage another version can
// see is an append extending the installed version's last chunk into its
// spare capacity (cells past that version's length, which no version
// addresses). See DB.Apply for the one place that does so.
type ColTable struct {
	attrs []string
	n     int
	cols  []*column
	bytes int64
	ver   uint64 // per-relation version, assigned at install
	// sums holds, by column, the exact totals of a query result's bare
	// float SUM columns: see Sums.
	sums map[int][]value.Sum
}

// column is one attribute of a stored table: its chunks, all of the
// column's one kind (see Conform for how a write keeps it so).
type column struct {
	kind   value.Kind
	chunks []*chunk
}

// chunk is one column's cells for one run of chunkRows rows, with the
// closed range [lo, hi] they span under value.Compare, in the column's
// own kind (a NaN is the greatest float). Only int, float and string
// chunks are ranged: an unranged chunk is never skipped.
type chunk struct {
	Vec
	ranged bool
	lo, hi value.Value
}

// span folds xs into its least and greatest cell.
func span[T int64 | string](xs []T) (lo, hi T) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// floatSpan is span under value.CompareFloats, which orders a NaN above
// +Inf.
func floatSpan(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if value.CompareFloats(x, lo) < 0 {
			lo = x
		}
		if value.CompareFloats(x, hi) > 0 {
			hi = x
		}
	}
	return lo, hi
}

// setRange records the range of the chunk's cells.
func (ch *chunk) setRange() {
	switch ch.kind {
	case value.KindInt:
		lo, hi := span(ch.ints)
		ch.lo, ch.hi, ch.ranged = value.Int(lo), value.Int(hi), true
	case value.KindFloat:
		lo, hi := floatSpan(ch.floats)
		ch.lo, ch.hi, ch.ranged = value.Float(lo), value.Float(hi), true
	case value.KindString:
		lo, hi := span(ch.strs)
		ch.lo, ch.hi, ch.ranged = value.Str(lo), value.Str(hi), true
	}
}

// Value boxes cell i of the column.
func (c *column) Value(i int) value.Value {
	k, j := chunkOf(int32(i))
	return c.chunks[k].Value(j)
}

// cellBytes is the budget's estimate of one cell: 8 bytes per numeric
// or boolean cell, 16 per string header (content bytes are shared with
// the source data and not re-counted).
func cellBytes(k value.Kind) int64 {
	if k == value.KindString {
		return 16
	}
	return 8
}

// NumRows returns the number of rows.
func (c *ColTable) NumRows() int { return c.n }

// Cells returns the typed cells of chunk k of column col, the chunks of a
// column holding its rows in order: ints for an int or bool column (a
// bool as 0/1), floats or strs; the other two are nil. It is how an
// encoder walks a result without boxing it; the slice is the table's own
// and must not be written.
func (c *ColTable) Cells(col, k int) (kind value.Kind, ints []int64, floats []float64, strs []string) {
	v := &c.cols[col].chunks[k].Vec
	return v.kind, v.ints, v.floats, v.strs
}

// Sums returns the exact totals behind column col of a query result
// whose select item is a bare SUM over floats, one per row in order,
// each of which the column's cell is the rounding of; nil for any other
// column or table. The maintainer adds a delta query's totals through
// them, so that no rounded cell is ever re-added. The slice is the
// table's own and must not be written.
func (c *ColTable) Sums(col int) []value.Sum { return c.sums[col] }

// Bytes returns the estimated payload footprint, charged against
// budget.Limits.MaxMemBytes once per operation that scans the table.
func (c *ColTable) Bytes() int64 { return c.bytes }

// Attrs returns the attribute names (shared; do not mutate).
func (c *ColTable) Attrs() []string { return c.attrs }

// Value boxes the cell at row i, column col.
func (c *ColTable) Value(i, col int) value.Value { return c.cols[col].Value(i) }

// rows boxes the rows at the given positions, in that order.
func (c *ColTable) rows(pos []int32) [][]value.Value {
	w := len(c.cols)
	cells := make([]value.Value, len(pos)*w)
	out := make([][]value.Value, len(pos))
	for j, i := range pos {
		row := cells[j*w : (j+1)*w : (j+1)*w]
		for k, col := range c.cols {
			row[k] = col.Value(int(i))
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
	return &Relation{Attrs: c.attrs, Tuples: c.rows(pos)}
}

// BuildColTable converts a row-major relation into a fresh columnar
// table that shares no buffer with any other. Its columns take their
// kinds by the rule of a write into an empty table without the ±2^53
// limit (kindsOf); a column whose cells no kind holds — a string beside
// an int, say — panics with a *KindError: rows from users go through
// Conform first.
func BuildColTable(r *Relation) *ColTable {
	ct, _ := (&ColTable{attrs: r.Attrs}).derive(&Delta{Append: r.Tuples}, false)
	return ct
}

// columnOf builds column pos of rows as the given kind: cut into chunks
// and ranged.
func columnOf(rows [][]value.Value, pos int, kind value.Kind) *column {
	col := &column{kind: kind}
	switch kind {
	case value.KindFloat:
		col.chunks = cut(kind, cellsOf(rows, pos, value.Value.AsFloat), (*Vec).floatCells)
	case value.KindString:
		col.chunks = cut(kind, cellsOf(rows, pos, value.Value.AsString), (*Vec).strCells)
	default:
		col.chunks = cut(kind, cellsOf(rows, pos, intPayload), (*Vec).intCells)
	}
	col.setRanges()
	return col
}

// cellsOf returns column pos of rows converted by conv.
func cellsOf[T any](rows [][]value.Value, pos int, conv func(value.Value) T) []T {
	xs := make([]T, len(rows))
	for i, r := range rows {
		xs[i] = conv(r[pos])
	}
	return xs
}

func (c *column) setRanges() {
	for _, ch := range c.chunks {
		ch.setRange()
	}
}

// resultTable assembles a query result from the parts its output stage
// produced in order — parts[k][c] is column c's cells for rows k*chunkRows
// on, every part full but the last — so each part is one chunk of every
// column, taken as it is: an expression's cells have one kind in every
// part. The table comes back unnamed (exec names it) and its chunks carry
// no ranges: a result is read once, in full; resolve ranges the one that
// becomes a view. A one-part result — any read of under a chunk of rows
// — holds each column, its chunk and the pointer to it in one allocation
// (oneChunk).
func resultTable(width, n int, parts [][]Vec) *ColTable {
	ct := &ColTable{n: n, cols: make([]*column, width)}
	if len(parts) == 1 {
		one := make([]oneChunk, width)
		for c := range one {
			o := &one[c]
			o.ch.Vec, o.ptr[0] = parts[0][c], &o.ch
			o.column = column{kind: o.ch.kind, chunks: o.ptr[:]}
			ct.cols[c] = &o.column
		}
		ct.sumBytes()
		return ct
	}
	cols, slab := make([]column, width), make([]chunk, width*len(parts))
	ptrs := make([]*chunk, len(slab))
	for c := range cols {
		kind := value.KindInt // of a column without cells
		if len(parts) > 0 {
			kind = parts[0][c].kind
		}
		chunks := ptrs[c*len(parts) : (c+1)*len(parts) : (c+1)*len(parts)]
		for k := range parts {
			ch := &slab[c*len(parts)+k]
			ch.Vec, chunks[k] = parts[k][c], ch
		}
		cols[c] = column{kind: kind, chunks: chunks}
		ct.cols[c] = &cols[c]
	}
	ct.sumBytes()
	return ct
}

// oneChunk is a column of one chunk, laid out with it.
type oneChunk struct {
	column
	ptr [1]*chunk
	ch  chunk
}

// cut returns the cells xs as chunks that are views of it, capacity
// clipped so that a later append to the last one moves it out. The chunk
// headers are one allocation, in chunk order, as a scan binds them.
func cut[T any](kind value.Kind, xs []T, cells func(*Vec) *[]T) []*chunk {
	slab := make([]chunk, morselCount(len(xs)))
	chunks := make([]*chunk, len(slab))
	for k := range slab {
		lo, hi := morselBounds(k, len(xs))
		slab[k].kind = kind
		*cells(&slab[k].Vec) = xs[lo:hi:hi]
		chunks[k] = &slab[k]
	}
	return chunks
}

func (c *ColTable) sumBytes() {
	c.bytes = 0
	for _, col := range c.cols {
		c.bytes += cellBytes(col.kind) * int64(c.n)
	}
}

// Delta describes a table version relative to a base version. Set is
// applied first and Drop second, both against base positions; Append
// rows follow the survivors. Set and Drop positions must be disjoint.
// What deriving the version costs follows the delta, not the table: Set
// rewrites the chunks (of the columns) in which a cell actually changes,
// Append fills the last chunk and starts new ones, and Drop rewrites
// from the chunk of its first position to the end — so dropping recent
// rows costs the last chunk, and dropping row 0 costs one copy of the
// table.
type Delta struct {
	// SetAt[i] is the position of the row replaced by SetRows[i].
	SetAt   []int32
	SetRows [][]value.Value
	// Drop lists the positions of the rows to remove, ascending and
	// distinct.
	Drop []int32
	// Append holds the rows to add at the end.
	Append [][]value.Value

	// kinds is the kind each column holds once the delta is applied,
	// recorded by Conform against the base it checked; nil: deriving
	// works it out (kindsOf, without the ±2^53 limit).
	kinds []value.Kind
}

// deltaCost is what deriving one version cost, for the store counters.
type deltaCost struct {
	copied  int64 // bytes of the chunks Set and Drop rewrote into fresh arrays
	realloc bool  // some column's last chunk had to move to take the appended cells
	// chunks whose cells were copied out of the base, and chunks the new
	// version holds by the base's own pointer. A last chunk extended in
	// place and chunks made of appended rows alone are neither.
	chunksCopied, chunksShared int64
}

// KindError is a write refused by the kind rule (Conform): Value cannot
// be stored in Table.Column, which holds Stored values.
type KindError struct {
	Table, Column string
	Stored        value.Kind
	Value         value.Value
}

func (e *KindError) Error() string {
	col := e.Column
	if e.Table != "" {
		col = e.Table + "." + col
	}
	msg := fmt.Sprintf("engine: column %s holds %s, cannot store %s %s", col, e.Stored, e.Value.Kind(), e.Value)
	if e.Value.IsNumeric() && numericKind(e.Stored) {
		msg += ": an int beyond ±2^53 has no exact float"
	}
	return msg
}

// KeyError is a write refused because Table would hold two rows that
// agree on Key, the columns of a declared key — or, for a functional
// dependency Key -> To, two rows that agree on Key and not on To. Value
// is the repeated Key value.
type KeyError struct {
	Table   string
	Key, To []string
	Value   []value.Value
}

func (e *KeyError) Error() string {
	vals := make([]string, len(e.Value))
	for i, v := range e.Value {
		vals[i] = v.String()
	}
	at := "(" + strings.Join(e.Key, ", ") + ") = (" + strings.Join(vals, ", ") + ")"
	if e.To == nil {
		return fmt.Sprintf("engine: %s would hold two rows with key %s", e.Table, at)
	}
	return fmt.Sprintf("engine: %s would hold two rows with %s and different %s, against FD(%s -> %s)",
		e.Table, at, strings.Join(e.To, ", "), strings.Join(e.Key, ", "), strings.Join(e.To, ", "))
}

// Conform applies the kind rule to the cells d would store in c: a
// column's kind is that of its first stored value (an empty table
// decides again, from its first appended row); an int is stored in a
// float column as a float, and a float arriving in an int column widens
// the column to float — both only while every int involved lies within
// ±2^53, where a float holds it exactly; any other value of a foreign
// kind is refused. On success Conform records on d the kinds the install
// then takes (one kind pass per cell); on failure it returns a
// *KindError for the first refused cell and records nothing. table names
// the table in the error.
func (c *ColTable) Conform(table string, d *Delta) error {
	kinds, err := c.kindsOf(table, d, true)
	if err == nil {
		d.kinds = kinds
	}
	return err
}

// exactInt reports whether a float64 holds x exactly by the kind rule's
// bound.
func exactInt(x int64) bool { return x >= -(1<<53) && x <= 1<<53 }

// kindsOf returns the kind each column of c holds once d is applied, by
// the rule Conform states; strict applies its ±2^53 limit, which only a
// write needs: a maintained view's SUM that outgrew it still widens.
func (c *ColTable) kindsOf(table string, d *Delta, strict bool) ([]value.Kind, error) {
	kinds := make([]value.Kind, len(c.attrs))
	switch {
	case c.n > 0:
		for i, col := range c.cols {
			kinds[i] = col.kind
		}
	case len(d.Append) > 0:
		for i := range kinds {
			kinds[i] = d.Append[0][i].Kind()
		}
	}
	for _, rows := range [2][][]value.Value{d.SetRows, d.Append} {
		for _, r := range rows {
			for i := range kinds {
				if x := r[i]; x.Kind() != kinds[i] {
					if err := c.admit(table, d, kinds, i, x, strict); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return kinds, nil
}

// admit decides a cell x of a kind other than column i's: an int joins
// a float column, a float widens an int column, anything else is refused.
func (c *ColTable) admit(table string, d *Delta, kinds []value.Kind, i int, x value.Value, strict bool) error {
	switch {
	case kinds[i] == value.KindFloat && x.Kind() == value.KindInt:
		if !strict || exactInt(x.AsInt()) {
			return nil
		}
	case kinds[i] == value.KindInt && x.Kind() == value.KindFloat:
		if !strict || c.intsExact(d, i) {
			kinds[i] = value.KindFloat
			return nil
		}
	}
	return &KindError{Table: table, Column: c.attrs[i], Stored: kinds[i], Value: x}
}

// intsExact reports whether every int column i will hold — stored, and
// brought by d — is one a float holds exactly.
func (c *ColTable) intsExact(d *Delta, i int) bool {
	if c.n > 0 {
		if lo, hi, ok := c.cols[i].intRange(); !ok || !exactInt(lo) || !exactInt(hi) {
			return false
		}
	}
	for _, rows := range [2][][]value.Value{d.SetRows, d.Append} {
		for _, r := range rows {
			if y := r[i]; y.Kind() == value.KindInt && !exactInt(y.AsInt()) {
				return false
			}
		}
	}
	return true
}

// With returns base+delta as a table that never writes into storage the
// base can see: touched chunks are copied (a partly filled last chunk
// too, before it takes appended cells), the rest are shared. It is the
// derivation for every version that is not the installed one (staged
// tables a later delta of the same batch must read, stale bases).
func (c *ColTable) With(d Delta) *ColTable {
	out, _ := c.derive(&d, false)
	return out
}

// derive builds base+delta, each column of the kind d.kinds records or,
// for a delta Conform has not seen, kindsOf works out — panicking with
// the *KindError of a cell no kind holds. owned is true only for the
// installed version under db.mu: then the last chunk is extended into
// its spare capacity in place.
func (c *ColTable) derive(d *Delta, owned bool) (*ColTable, deltaCost) {
	kinds := d.kinds
	if kinds == nil {
		var err error
		if kinds, err = c.kindsOf("", d, false); err != nil {
			panic(err)
		}
	}
	var cost deltaCost
	out := &ColTable{attrs: c.attrs, n: c.n - len(d.Drop) + len(d.Append), cols: make([]*column, len(c.attrs))}
	for pos, kind := range kinds {
		if c.n == 0 {
			// Nothing to share: the appended rows are the table.
			out.cols[pos] = columnOf(d.Append, pos, kind)
			cost.realloc = true
		} else {
			out.cols[pos] = c.cols[pos].patch(pos, c.n, d, kind, owned, &cost)
		}
	}
	out.sumBytes()
	return out, cost
}

// patch derives one column of base+delta as the given kind; n is the
// base's row count. A column the delta leaves as it is — same kind, no
// row dropped or appended, every Set cell the stored one (sameCell) —
// is the base's own, shared whole: an UPDATE's unassigned columns, a
// view's grouping columns.
func (c *column) patch(pos, n int, d *Delta, kind value.Kind, owned bool, cost *deltaCost) *column {
	if kind == c.kind && len(d.Drop) == 0 && len(d.Append) == 0 && c.holds(pos, d) {
		cost.chunksShared += int64(len(c.chunks))
		return c
	}
	from := c
	if kind != c.kind {
		from = c.widened(cost)
	}
	out := &column{kind: kind}
	switch kind {
	case value.KindFloat:
		out.chunks = patchCells(from, c, pos, n, d, owned, cost, (*Vec).floatCells, value.Value.AsFloat)
	case value.KindString:
		out.chunks = patchCells(from, c, pos, n, d, owned, cost, (*Vec).strCells, value.Value.AsString)
	default:
		out.chunks = patchCells(from, c, pos, n, d, owned, cost, (*Vec).intCells, intPayload)
	}
	for k, ch := range out.chunks {
		if k < len(c.chunks) && ch == c.chunks[k] {
			cost.chunksShared++
		} else {
			ch.setRange()
		}
	}
	return out
}

// holds reports whether every cell d sets in column pos is the one the
// column stores there.
func (c *column) holds(pos int, d *Delta) bool {
	for i, p := range d.SetAt {
		k, j := chunkOf(p)
		if !sameCell(c.chunks[k].Value(j), d.SetRows[i][pos]) {
			return false
		}
	}
	return true
}

// widened returns the float copy of an int column, the one kind change
// the rule allows.
func (c *column) widened(cost *deltaCost) *column {
	out := &column{kind: value.KindFloat, chunks: make([]*chunk, len(c.chunks))}
	for k, ch := range c.chunks {
		xs := make([]float64, len(ch.ints))
		for j, x := range ch.ints {
			xs[j] = float64(x)
		}
		out.chunks[k] = &chunk{Vec: Vec{kind: value.KindFloat, floats: xs}}
		cost.copied += cellBytes(value.KindFloat) * int64(len(xs))
		cost.chunksCopied++
	}
	return out
}

func (v *Vec) intCells() *[]int64     { return &v.ints }
func (v *Vec) floatCells() *[]float64 { return &v.floats }
func (v *Vec) strCells() *[]string    { return &v.strs }

// sameCell reports whether two boxed cells are the same stored value:
// same kind and payload, a float's to the bit. A write stores the value
// it is given, so an UPDATE to -0.0 of a stored 0.0 stores -0.0, which
// the rule calls equal to it but a projection shows.
func sameCell(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Kind() == b.Kind() && value.KeyEqual(a, b)
}

// patchCells derives the chunks of one column whose payload is []T:
// from's chunks with the delta applied. base is the column of the
// version being derived from — from itself, or the column from is a
// widened copy of — and a chunk still shared with it (same pointer) is
// never written: Set copies the chunks in which a cell changes, Drop
// streams the survivors from its first position's chunk on (and the
// appended cells behind them) into fresh chunks, the last with room to
// append, and Append extends the
// last chunk — in place when the caller owns its spare cells and they
// suffice, moved to a larger array otherwise — and starts new chunks
// once it is full.
func patchCells[T any](from, base *column, pos, n int, d *Delta, owned bool, cost *deltaCost, cells func(*Vec) *[]T, conv func(value.Value) T) []*chunk {
	width := cellBytes(from.kind)
	chunks := make([]*chunk, len(from.chunks), morselCount(n+len(d.Append)))
	copy(chunks, from.chunks)
	wrap := func(xs []T) *chunk {
		ch := &chunk{Vec: Vec{kind: from.kind}}
		*cells(&ch.Vec) = xs
		return ch
	}

	for i, p := range d.SetAt {
		k, j := chunkOf(p)
		nv := d.SetRows[i][pos]
		if sameCell(chunks[k].Value(j), nv) {
			continue
		}
		if chunks[k] == base.chunks[k] {
			chunks[k] = wrap(slices.Clone(*cells(&chunks[k].Vec)))
			cost.copied += width * int64(chunks[k].Len())
			cost.chunksCopied++
		}
		(*cells(&chunks[k].Vec))[j] = conv(nv)
	}

	rest := d.Append
	if len(d.Drop) > 0 {
		k0, _ := chunkOf(d.Drop[0])
		// The re-cut last chunk keeps room to append, as an appended one
		// does (tailCap): the next owned inserts fill it in place instead
		// of moving it out.
		m := n - k0*chunkRows - len(d.Drop) + len(rest)
		room := 0
		if last := m % chunkRows; last > 0 {
			room = tailCap(last) - last
		}
		tail := make([]T, 0, m+room)
		drop := d.Drop
		for k := k0; k < len(chunks); k++ {
			xs, at := *cells(&chunks[k].Vec), 0
			for len(drop) > 0 && int(drop[0]) < k*chunkRows+len(xs) {
				_, j := chunkOf(drop[0])
				tail = append(tail, xs[at:j]...)
				at, drop = j+1, drop[1:]
			}
			tail = append(tail, xs[at:]...)
		}
		for _, r := range rest {
			tail = append(tail, conv(r[pos]))
		}
		cs := cut(from.kind, tail, cells)
		if room > 0 {
			*cells(&cs[len(cs)-1].Vec) = tail[(len(cs)-1)*chunkRows : m : m+room]
		}
		chunks, rest = append(chunks[:k0], cs...), nil
		cost.chunksCopied += int64(len(chunks) - k0)
		cost.copied += width * int64(len(tail))
	}

	if k := len(chunks) - 1; len(rest) > 0 && chunks[k].Len() < chunkRows {
		xs := *cells(&chunks[k].Vec)
		take := min(chunkRows-len(xs), len(rest))
		mine := chunks[k] != base.chunks[k]
		if !(mine || owned) || cap(xs)-len(xs) < take {
			xs = append(make([]T, 0, tailCap(len(xs)+take)), xs...)
			cost.realloc = true
			if !mine {
				cost.chunksCopied++
			}
		}
		for _, r := range rest[:take] {
			xs = append(xs, conv(r[pos]))
		}
		chunks[k], rest = wrap(xs), rest[take:]
	}
	for len(rest) > 0 {
		take := min(chunkRows, len(rest))
		xs := make([]T, 0, tailCap(take))
		for _, r := range rest[:take] {
			xs = append(xs, conv(r[pos]))
		}
		chunks, rest = append(chunks, wrap(xs)), rest[take:]
	}
	return chunks
}

// Locate resolves a multiset of rows to distinct positions holding
// them, matching cells as value.Key does (1 and 1.0 are one value). It
// is one probe of the first column (probe) that verifies the remaining
// columns only on candidates. ok is false when some row is absent (or
// present fewer times than asked for). Positions come back ascending.
func (c *ColTable) Locate(rows [][]value.Value) (pos []int32, ok bool) {
	if len(rows) == 0 {
		return nil, true
	}
	// rows[w] is still unmatched while taken[w] is false.
	taken := make([]bool, len(rows))
	left := len(rows)
	c.probe(0, len(rows), func(w int) value.Value { return rows[w][0] }, func(i int, run []wanted) bool {
		for _, e := range run {
			if taken[e.w] {
				continue
			}
			match := true
			for col := 1; col < len(c.cols) && match; col++ {
				match = value.KeyEqual(c.cols[col].Value(i), rows[e.w][col])
			}
			if match {
				taken[e.w] = true
				left--
				pos = append(pos, int32(i))
				break
			}
		}
		return left > 0
	})
	return pos, left == 0
}

// Lookup finds each row of keys its partner in c on a key of c: at[i]
// is the position of the row of c whose cells at cols are KeyEqual to
// row i's cells at from — the one such row, c's cells at cols being a
// declared key — or -1 when there is none. It is Locate's probe of c's
// column cols[0], verifying the other key columns on candidates, so it
// reads c once and skips the chunks whose range every wanted key
// misses. at is reused when it has room.
func (c *ColTable) Lookup(keys *ColTable, from, cols []int, at []int32) []int32 {
	at = slices.Grow(at[:0], keys.n)[:keys.n]
	for i := range at {
		at[i] = -1
	}
	left := keys.n
	c.probe(cols[0], keys.n, func(w int) value.Value { return keys.Value(w, from[0]) }, func(i int, run []wanted) bool {
		for _, e := range run {
			match := at[e.w] < 0
			for k := 1; k < len(cols) && match; k++ {
				match = value.KeyEqual(c.Value(i, cols[k]), keys.Value(int(e.w), from[k]))
			}
			if match {
				at[e.w] = int32(i)
				left--
			}
		}
		return left > 0
	})
	return at
}

// Beside returns c's columns followed by d's columns cols, row i of c
// beside d's row at[i]: c's columns are its own, d's are gathered into
// typed columns of their own, never boxed. A row with no partner (at[i]
// < 0) takes a zero cell there, which whatever reads the table must
// pass over. The table is unnamed, as a query result is.
func (c *ColTable) Beside(d *ColTable, cols []int, at []int32) *ColTable {
	out := &ColTable{n: c.n, cols: append(make([]*column, 0, len(c.cols)+len(cols)), c.cols...)}
	gathered := make([]column, len(cols))
	for x, col := range cols {
		g, src := &gathered[x], d.cols[col]
		g.kind = src.kind
		switch src.kind {
		case value.KindFloat:
			g.chunks = cut(g.kind, gather(src, at, (*Vec).floatCells), (*Vec).floatCells)
		case value.KindString:
			g.chunks = cut(g.kind, gather(src, at, (*Vec).strCells), (*Vec).strCells)
		default:
			g.chunks = cut(g.kind, gather(src, at, (*Vec).intCells), (*Vec).intCells)
		}
		g.setRanges()
		out.cols = append(out.cols, g)
	}
	out.sumBytes()
	return out
}

// gather returns the column's cells at positions at, a zero cell for a
// negative position.
func gather[T any](col *column, at []int32, cells func(*Vec) *[]T) []T {
	xs := make([]T, len(at))
	for i, p := range at {
		if p >= 0 {
			k, j := chunkOf(p)
			xs[i] = (*cells(&col.chunks[k].Vec))[j]
		}
	}
	return xs
}

// wanted is one row a probe looks for: its index w among the wanted
// rows and, for a probe of an int column, the int its cell keys as.
type wanted struct {
	key int64
	w   int32
}

// probe walks column col of c once, calling visit(i, run) for each row
// i whose cell there shares its key (value.Key) with the first cells
// first(w) of the n wanted rows that run names, in ascending w. It stops
// once visit returns false: nothing is left to find. An int column is
// probed typed — one compare per cell against the wanted keys, sorted,
// skipping the chunks whose range misses them all — and a wanted cell no
// int column can hold (a string, 1.5, NaN) finds no row; any other
// column keys each cell.
func (c *ColTable) probe(col, n int, first func(w int) value.Value, visit func(i int, run []wanted) bool) {
	column := c.cols[col]
	if column.kind != value.KindInt {
		byKey := map[string][]wanted{}
		for w := range n {
			k := first(w).Key()
			byKey[k] = append(byKey[k], wanted{w: int32(w)})
		}
		var buf []byte
		for i := 0; i < c.n; i++ {
			buf = column.Value(i).AppendKey(buf[:0])
			if run, hit := byKey[string(buf)]; hit && !visit(i, run) {
				return
			}
		}
		return
	}
	ws := make([]wanted, 0, n)
	for w := range n {
		if x, ok := intKeyOf(first(w)); ok {
			ws = append(ws, wanted{x, int32(w)})
		}
	}
	if len(ws) == 0 {
		return
	}
	slices.SortFunc(ws, func(a, b wanted) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.w, b.w)) })
	lo, hi := ws[0].key, ws[len(ws)-1].key
	for k, ch := range column.chunks {
		if ch.ranged && (ch.hi.AsInt() < lo || ch.lo.AsInt() > hi) {
			continue
		}
		for j, x := range ch.ints {
			if x < lo || x > hi {
				continue
			}
			r, hit := slices.BinarySearchFunc(ws, x, func(e wanted, x int64) int { return cmp.Compare(e.key, x) })
			if !hit {
				continue
			}
			end := r + 1
			for end < len(ws) && ws[end].key == x {
				end++
			}
			if !visit(k*chunkRows+j, ws[r:end]) {
				return
			}
		}
	}
}

// intKeyOf returns the int64 an int-column cell must hold to share x's
// key: x itself for an int, the integer an integral float names.
func intKeyOf(x value.Value) (int64, bool) {
	switch x.Kind() {
	case value.KindInt:
		return x.AsInt(), true
	case value.KindFloat:
		if i := int64(x.AsFloat()); value.KeyEqual(value.Int(i), x) {
			return i, true
		}
	}
	return 0, false
}

// Storage resolves FROM sources to columnar tables; it is the engine's
// data-access seam. The in-memory *DB and its pinned Snapshot implement
// it, and so does the maintainer's staged overlay. An Evaluator serves
// one operation and calls Scan from its serial resolve loop only; a
// storage shared by concurrent operations (DB, a Snapshot) must be safe
// for concurrent Scan calls, since each of those operations has an
// evaluator of its own. A failed scan is injected on the operation's
// context (faultinject.Failing), not by a storage of its own.
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
	ct, ok := db.tabs[name]
	db.mu.Unlock()
	return ct, ok, nil
}

// Kind returns the kind of column pos of the relation installed under
// name, and false when none is: the kinds the rewriter's float rule
// reads (core.Kinds). A commit that changes one is loud (DB.Apply).
func (db *DB) Kind(name string, pos int) (value.Kind, bool) {
	ct, ok, _ := db.Scan(name)
	if !ok || pos >= len(ct.cols) {
		return 0, false
	}
	return ct.cols[pos].kind, true
}

// sameKinds reports whether two versions of a relation hold the same
// kind in every column.
func sameKinds(a, b *ColTable) bool {
	if len(a.cols) != len(b.cols) {
		return false
	}
	for c := range a.cols {
		if a.cols[c].kind != b.cols[c].kind {
			return false
		}
	}
	return true
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
// version's cells are never rewritten: later versions point at its
// chunks, copy them, or write cells past its length. A snapshot is never
// changed once taken, so every reader between two installs shares one.
type Snapshot struct {
	tabs map[string]*ColTable
}

// Snapshot pins the current version of every relation: the snapshot the
// last call took, unless something was installed since.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.snap != nil {
		return db.snap
	}
	s := &Snapshot{tabs: make(map[string]*ColTable, len(db.tabs))}
	for key, ct := range db.tabs {
		s.tabs[key] = ct
	}
	db.snap = s
	return s
}

// Scan implements Storage against the pinned versions.
func (s *Snapshot) Scan(name string) (*ColTable, bool, error) {
	ct, ok := s.tabs[name]
	return ct, ok, nil
}

// Relation boxes the pinned rows of a relation; see ColTable.Relation
// for the cost.
func (s *Snapshot) Relation(name string) (*Relation, bool) {
	ct, ok := s.tabs[name]
	if !ok {
		return nil, false
	}
	return ct.Relation(), true
}

// NumRows returns the pinned row count of a relation.
func (s *Snapshot) NumRows(name string) (int, bool) {
	ct, ok := s.tabs[name]
	if !ok {
		return 0, false
	}
	return ct.n, true
}

// Version returns the pinned version counter of a relation (0 if the
// relation was absent at pin time).
func (s *Snapshot) Version(name string) uint64 {
	if ct, ok := s.tabs[name]; ok {
		return ct.ver
	}
	return 0
}

// SetOnInvalidate registers fn to be called, with the relation's
// declared name, after every loud install (Put, Append, and Apply
// commits that are not Silent). The server's plan cache registers its
// eviction here. Like Put, SetOnInvalidate must not race queries:
// install the hook before serving. A nil fn unregisters.
func (db *DB) SetOnInvalidate(fn func(name string)) {
	db.mu.Lock()
	db.onInvalidate = fn
	db.mu.Unlock()
}
