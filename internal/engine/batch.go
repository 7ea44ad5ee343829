package engine

import (
	"aggview/internal/ir"
	"aggview/internal/value"
)

// kindMixed marks a vector whose cells do not all share one scalar
// kind; such vectors store boxed values and the kernels fall back to
// row-at-a-time evaluation over them.
const kindMixed value.Kind = 0xff

// Vec is one typed column vector. Exactly one payload slice is active,
// selected by kind: ints carries KindInt and KindBool (0/1) cells,
// floats carries KindFloat, strs carries KindString, and vals carries
// the boxed cells of a mixed-kind column. A vector's cells are immutable
// once built — kernels share them freely across batches and goroutines
// and produce new vectors instead of writing in place. The one writer
// is the store: a stored column's payload may carry spare capacity past
// its length, which DB.Apply fills for the next version (storage.go).
type Vec struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
	vals   []value.Value
}

// Len returns the number of cells.
func (v *Vec) Len() int {
	switch v.kind {
	case value.KindInt, value.KindBool:
		return len(v.ints)
	case value.KindFloat:
		return len(v.floats)
	case value.KindString:
		return len(v.strs)
	default:
		return len(v.vals)
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
	case value.KindString:
		return value.Str(v.strs[i])
	default:
		return v.vals[i]
	}
}

// slice returns the sub-vector [lo, hi) sharing the payload array.
func (v *Vec) slice(lo, hi int) *Vec {
	out := &Vec{kind: v.kind}
	switch v.kind {
	case value.KindInt, value.KindBool:
		out.ints = v.ints[lo:hi]
	case value.KindFloat:
		out.floats = v.floats[lo:hi]
	case value.KindString:
		out.strs = v.strs[lo:hi]
	default:
		out.vals = v.vals[lo:hi]
	}
	return out
}

// gather builds a new vector whose cell j is v's cell idx[j].
func (v *Vec) gather(idx []int32) *Vec {
	out := &Vec{kind: v.kind}
	switch v.kind {
	case value.KindInt, value.KindBool:
		xs := make([]int64, len(idx))
		for j, i := range idx {
			xs[j] = v.ints[i]
		}
		out.ints = xs
	case value.KindFloat:
		xs := make([]float64, len(idx))
		for j, i := range idx {
			xs[j] = v.floats[i]
		}
		out.floats = xs
	case value.KindString:
		xs := make([]string, len(idx))
		for j, i := range idx {
			xs[j] = v.strs[i]
		}
		out.strs = xs
	default:
		xs := make([]value.Value, len(idx))
		for j, i := range idx {
			xs[j] = v.vals[i]
		}
		out.vals = xs
	}
	return out
}

// bytes estimates the vector's payload footprint for the memory budget:
// 8 bytes per numeric or boolean cell, 16 per string header (content
// bytes are shared with the source data and not re-counted), 48 per
// boxed value.
func (v *Vec) bytes() int64 {
	switch v.kind {
	case value.KindInt, value.KindBool, value.KindFloat:
		return 8 * int64(v.Len())
	case value.KindString:
		return 16 * int64(v.Len())
	default:
		return 48 * int64(v.Len())
	}
}

// vecFromValues builds a vector from boxed values, detecting a uniform
// scalar kind in one pass and falling back to a mixed vector otherwise.
func vecFromValues(vals []value.Value) *Vec {
	if len(vals) == 0 {
		return &Vec{kind: value.KindInt}
	}
	kind := vals[0].Kind()
	for _, v := range vals[1:] {
		if v.Kind() != kind {
			return &Vec{kind: kindMixed, vals: vals}
		}
	}
	out := &Vec{kind: kind}
	switch kind {
	case value.KindInt:
		xs := make([]int64, len(vals))
		for i, v := range vals {
			xs[i] = v.AsInt()
		}
		out.ints = xs
	case value.KindBool:
		xs := make([]int64, len(vals))
		for i, v := range vals {
			if v.AsBool() {
				xs[i] = 1
			}
		}
		out.ints = xs
	case value.KindFloat:
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = v.AsFloat()
		}
		out.floats = xs
	case value.KindString:
		xs := make([]string, len(vals))
		for i, v := range vals {
			xs[i] = v.AsString()
		}
		out.strs = xs
	default:
		return &Vec{kind: kindMixed, vals: vals}
	}
	return out
}

// colVecOf extracts column pos of a row-major tuple set into a vector.
func colVecOf(tuples [][]value.Value, pos int) *Vec {
	vals := make([]value.Value, len(tuples))
	for i, t := range tuples {
		vals[i] = t[pos]
	}
	return vecFromValues(vals)
}

// concatVecs concatenates per-morsel output vectors in slice order. When
// the parts disagree on kind the result is promoted to a mixed vector,
// preserving each cell's exact boxed value.
func concatVecs(parts []*Vec) *Vec {
	n := 0
	uniform := true
	var kind value.Kind
	first := true
	for _, p := range parts {
		if p == nil {
			continue
		}
		n += p.Len()
		if first {
			kind, first = p.kind, false
		} else if p.kind != kind {
			uniform = false
		}
	}
	if first {
		return &Vec{kind: value.KindInt}
	}
	if !uniform {
		vals := make([]value.Value, 0, n)
		for _, p := range parts {
			if p == nil {
				continue
			}
			for i := 0; i < p.Len(); i++ {
				vals = append(vals, p.Value(i))
			}
		}
		return &Vec{kind: kindMixed, vals: vals}
	}
	out := &Vec{kind: kind}
	switch kind {
	case value.KindInt, value.KindBool:
		xs := make([]int64, 0, n)
		for _, p := range parts {
			if p != nil {
				xs = append(xs, p.ints...)
			}
		}
		out.ints = xs
	case value.KindFloat:
		xs := make([]float64, 0, n)
		for _, p := range parts {
			if p != nil {
				xs = append(xs, p.floats...)
			}
		}
		out.floats = xs
	case value.KindString:
		xs := make([]string, 0, n)
		for _, p := range parts {
			if p != nil {
				xs = append(xs, p.strs...)
			}
		}
		out.strs = xs
	default:
		xs := make([]value.Value, 0, n)
		for _, p := range parts {
			if p != nil {
				xs = append(xs, p.vals...)
			}
		}
		out.vals = xs
	}
	return out
}

// batchFromRows builds a dense batch from full-width rows indexed by
// ColID, detecting uniform column kinds. It is the bridge from
// row-major data used by tests and reference implementations.
func batchFromRows(rows [][]value.Value, width int) *Batch {
	b := &Batch{n: len(rows), cols: make([]*Vec, width)}
	for pos := 0; pos < width; pos++ {
		b.cols[pos] = colVecOf(rows, pos)
	}
	return b
}

// Batch is a dense horizontal slice of the intermediate relation
// flowing between operators: n rows over the query's ColID space, with
// cols[id] holding the vector of column id and nil marking slots that
// are not (yet) bound or were pruned as unreferenced. Batches between
// operators carry no selection vector — filters compact their survivors
// before handing the batch on, which keeps every downstream kernel a
// straight dense loop.
type Batch struct {
	n    int
	cols []*Vec
}

// newBatch returns an empty batch over a width-column ColID space.
func newBatch(width int) *Batch {
	return &Batch{cols: make([]*Vec, width)}
}

// slice returns the row range [lo, hi) as a batch sharing the column
// payloads — the morsel view of b.
func (b *Batch) slice(lo, hi int) *Batch {
	out := &Batch{n: hi - lo, cols: make([]*Vec, len(b.cols))}
	for id, v := range b.cols {
		if v != nil {
			out.cols[id] = v.slice(lo, hi)
		}
	}
	return out
}

// rowValues boxes row i as a full-width row indexed by ColID; unbound
// slots hold the zero Value. It backs the group representative rows and
// the row-at-a-time fallback paths.
func (b *Batch) rowValues(i int) []value.Value {
	row := make([]value.Value, len(b.cols))
	for id, v := range b.cols {
		if v != nil {
			row[id] = v.Value(i)
		}
	}
	return row
}

// gather builds the batch whose row j is b's row idx[j], copying only
// the bound columns, and charges the memory budget at the given site.
func (b *Batch) gather(t *task, ev *Evaluator, site string, idx []int32) (*Batch, error) {
	out := &Batch{n: len(idx), cols: make([]*Vec, len(b.cols))}
	for id, v := range b.cols {
		if v == nil {
			continue
		}
		g := v.gather(idx)
		if err := t.allocBytes(ev, site, g.bytes()); err != nil {
			return nil, err
		}
		out.cols[id] = g
	}
	return out, nil
}

// bindTable maps a stored table's columns into the query's ColID slots,
// sharing the table's vectors (a scan without predicates copies
// nothing). Only columns in need are bound; the rest are pruned.
func bindTable(ct *ColTable, cols []ir.ColID, width int, need []bool) *Batch {
	b := &Batch{n: ct.n, cols: make([]*Vec, width)}
	for pos, id := range cols {
		if need[id] {
			b.cols[id] = ct.cols[pos]
		}
	}
	return b
}
