package engine

import (
	"aggview/internal/ir"
	"aggview/internal/value"
)

// Vec is one typed vector of cells: a chunk of a stored column, or a
// vector a kernel computed for one morsel. Exactly one payload slice is
// active, selected by kind: ints carries KindInt and KindBool (0/1)
// cells, floats carries KindFloat and strs carries KindString. A
// vector's cells are immutable once built — kernels share them freely
// across batches and goroutines and produce new vectors instead of
// writing in place. The one writer is the store: a stored table's last
// chunk may carry spare capacity past its length, which DB.Apply fills
// for the next version (storage.go).
type Vec struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
}

// Len returns the number of cells.
func (v *Vec) Len() int {
	switch v.kind {
	case value.KindFloat:
		return len(v.floats)
	case value.KindString:
		return len(v.strs)
	default:
		return len(v.ints)
	}
}

// Value boxes cell i.
func (v *Vec) Value(i int) value.Value {
	switch v.kind {
	case value.KindInt:
		return value.Int(v.ints[i])
	case value.KindBool:
		return value.Bool(v.ints[i] != 0)
	case value.KindFloat:
		return value.Float(v.floats[i])
	default:
		return value.Str(v.strs[i])
	}
}

// bytes estimates the vector's payload footprint for the memory budget
// (see cellBytes).
func (v *Vec) bytes() int64 { return cellBytes(v.kind) * int64(v.Len()) }

// intPayload returns the int64 an int or bool cell is stored as (a bool
// as 0/1).
func intPayload(x value.Value) int64 {
	if x.Kind() == value.KindBool {
		if x.AsBool() {
			return 1
		}
		return 0
	}
	return x.AsInt()
}

// fill returns n copies of x.
func fill[T any](n int, x T) []T {
	xs := make([]T, n)
	for i := range xs {
		xs[i] = x
	}
	return xs
}

// broadcast returns the constant c as a vector of n cells of its kind.
func broadcast(c value.Value, n int) Vec {
	v := Vec{kind: c.Kind()}
	switch v.kind {
	case value.KindFloat:
		v.floats = fill(n, c.AsFloat())
	case value.KindString:
		v.strs = fill(n, c.AsString())
	default:
		v.ints = fill(n, intPayload(c))
	}
	return v
}

// Batch is the intermediate relation flowing between operators: n
// logical rows over the query's ColID space. cols[id] is the stored
// column of id, bound by reference and never copied (nil marks a slot
// that is unbound or was pruned as unreferenced); tab[id] names the
// FROM table the column belongs to, and sel[tab] is that table's
// selection — logical row j reads physical row sel[tab][j] of every
// column of the table, a nil selection reading row j itself. A filter
// narrows a batch by writing a selection and a join composes index pairs
// onto the selections of both sides, so values are copied at most once,
// where the final projection gathers them — and not at all when it reads
// a whole stored chunk unfiltered, whose vector the result shares
// (vecOperand.cells). A batch with no sel at all
// (tab may then be nil too) is a stored table read as it stands: morsel
// m of it is chunk m of every column.
type Batch struct {
	n    int
	cols []*column
	tab  []int32
	sel  [][]int32
}

// newBatch returns an empty batch over a width-column ColID space.
func newBatch(width int) *Batch {
	return &Batch{cols: make([]*column, width)}
}

// tabOf returns the bound table of column c (0 in a single-table batch).
func (b *Batch) tabOf(c ir.ColID) int {
	if b.tab == nil {
		return 0
	}
	return int(b.tab[c])
}

// phys returns the physical row of bound table t behind logical row i.
func (b *Batch) phys(t, i int) int {
	if t < len(b.sel) && b.sel[t] != nil {
		return int(b.sel[t][i])
	}
	return i
}

// bindTables maps the stored tables' columns into the query's ColID
// slots, sharing their chunks. Only columns the plan needs are bound;
// the rest are pruned. The returned batch is the template every batch of
// the query derives from: same cols and tab (the plan's), its own n and
// sel.
func (p *Plan) bindTables(cts []*ColTable) Batch {
	b := Batch{cols: make([]*column, len(p.tab)), tab: p.tab}
	for ti, tab := range p.q.Tables {
		for pos, id := range tab.Cols {
			if p.need[id] {
				b.cols[id] = cts[ti].cols[pos]
			}
		}
	}
	return b
}

// with returns the batch of n logical rows reading b's columns through
// the given selections.
func (b *Batch) with(n int, sel [][]int32) *Batch {
	return &Batch{n: n, cols: b.cols, tab: b.tab, sel: sel}
}

// pick returns the batch whose logical row k is b's logical row rows[k],
// composing rows onto the selections of the bound tables tabs — index
// vectors only, drawn through the task and charged to the memory budget
// at site. A nil rows is every row of b in order: the selections are
// shared rather than composed, and charged as the composed copies would
// be, so a budget trips at the same point whichever way the rows came.
func (b *Batch) pick(t *task, ev *Evaluator, site string, rows []int32, tabs []int) (*Batch, error) {
	n := len(rows)
	if rows == nil {
		n = b.n
	}
	sel := make([][]int32, len(b.sel))
	for _, ti := range tabs {
		old := b.sel[ti]
		if old == nil {
			sel[ti] = rows
			continue
		}
		if err := t.allocBytes(ev, site, 4*int64(n)); err != nil {
			return nil, err
		}
		if rows == nil {
			sel[ti] = old
			continue
		}
		c := t.i32(n)
		for k, i := range rows {
			c[k] = old[i]
		}
		sel[ti] = c
	}
	return b.with(n, sel), nil
}
