package engine

import (
	"math/bits"
	"sync"

	"aggview/internal/value"
)

// iota32 is the read-only identity index of one morsel: iota32[:n]
// addresses cells 0..n-1 of a vector computed for the morsel (an
// arithmetic result, a partial's accumulator column), so every kernel
// has one loop shape — cell j of an operand is payload[idx[j]] — whether
// the operand is a stored column read through a selection or a dense
// morsel-local vector. Nobody writes into it.
var iota32 = func() (a [morselRows]int32) {
	for i := range a {
		a[i] = int32(i)
	}
	return a
}()

// rowSet is the set of rows one morsel of a pipeline works on: the rows
// lo+loc[j] of b's logical row space, the morsel starting at lo. A bound
// table the batch carries no selection for is read as it stands — the
// morsel is chunk number chunk of each of its columns and loc[j] is row
// j's cell in it; for any other table idx[t][j] is the physical row
// behind row j. dense holds the vectors gathered for such a table's
// columns when its rows span chunks (used of them so far in this morsel).
// It resolves an expression's leaves for evalVop.
type rowSet struct {
	b     *Batch
	lo    int
	loc   []int32
	chunk int
	idx   [][]int32
	dense []*Vec
	used  int
}

// n returns the number of rows in the set.
func (rs *rowSet) n() int { return len(rs.loc) }

// pos returns the position of row j in the batch's logical row space.
func (rs *rowSet) pos(j int32) int32 { return int32(rs.lo) + rs.loc[j] }

// gather copies the cells of col at the physical rows sel into a
// morsel-local dense vector, so a table read through a selection that
// crosses chunks reaches the kernels in their one shape: a vector and an
// index into it.
func (rs *rowSet) gather(col *column, sel []int32) *Vec {
	if rs.used == len(rs.dense) {
		rs.dense = append(rs.dense, new(Vec))
	}
	v := rs.dense[rs.used]
	rs.used++
	v.kind = col.kind
	switch col.kind {
	case value.KindFloat:
		v.floats = room(v.floats, len(sel))
		for i, p := range sel {
			k, j := chunkOf(p)
			v.floats[i] = col.chunks[k].floats[j]
		}
	case value.KindString:
		v.strs = room(v.strs, len(sel))
		for i, p := range sel {
			k, j := chunkOf(p)
			v.strs[i] = col.chunks[k].strs[j]
		}
	default:
		v.ints = room(v.ints, len(sel))
		for i, p := range sel {
			k, j := chunkOf(p)
			v.ints[i] = col.chunks[k].ints[j]
		}
	}
	return v
}

// room returns xs resized to n cells, with arbitrary contents. Scratch
// buffers are sized by the rows (or the key span) they have met: a buffer
// too small is replaced by one of the next power of two at or above n
// while that is under an eighth of a morsel, and by at least a morsel's
// worth past that, so a small read pays for its rows and a scan's
// morsels, whose sizes vary, grow a buffer once.
func room[T any](xs []T, n int) []T {
	if cap(xs) < n {
		c := 1 << bits.Len(uint(n-1))
		if c > morselRows/8 {
			c = max(c, morselRows)
		}
		xs = make([]T, n, c)
	}
	return xs[:n]
}

// scratch is one worker's reusable working memory for a morsel pass:
// the morsel's row set, the selection the filter refines, and the group
// index, group ids, key hashes and operands of the fold. A worker takes
// one from scratchPool for the duration of a morselRun and hands it to
// every morsel it claims, so a warm pass allocates only what outlives
// the morsel. Every buffer grows on demand (room) to what the morsels it
// served needed, at most a morsel's rows, so a scratch new to a 10-row
// read costs a few hundred bytes, not a morsel's worth of every array.
type scratch struct {
	rs   rowSet
	js   []int32 // surviving row numbers while a filter refines
	gids []int32 // group id per row
	hs   []uint64
	kbuf []byte  // byte-encoded join keys of the morsel's rows
	koff []int32 // row j's key is kbuf[koff[j]:koff[j+1]]
	keys []vecOperand
	args []vecOperand
	gi   groupIndex
	pos  [][]int32 // per table, the first rows of the groups the output stage reads
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns w to the pool, dropping what it still references of
// the query it served (selections, gathered cells, a partial's keys) so
// an idle scratch pins no table version.
func putScratch(w *scratch) {
	clear(w.rs.idx[:cap(w.rs.idx)])
	for _, v := range w.rs.dense {
		clear(v.strs[:cap(v.strs)])
	}
	clear(w.keys[:cap(w.keys)])
	clear(w.args[:cap(w.args)])
	w.rs.b, w.rs.loc, w.gi.keys = nil, nil, nil
	scratchPool.Put(w)
}

// rows binds the morsel [lo, hi) of b's logical rows into the scratch
// row set.
func (w *scratch) rows(b *Batch, lo, hi int) *rowSet {
	rs := &w.rs
	rs.b, rs.lo, rs.loc, rs.chunk, rs.used = b, lo, iota32[:hi-lo], lo/chunkRows, 0
	nt := max(1, len(b.sel))
	if cap(rs.idx) < nt {
		rs.idx = make([][]int32, nt)
	}
	rs.idx = rs.idx[:nt]
	for t := range rs.idx {
		rs.idx[t] = nil
		if t < len(b.sel) && b.sel[t] != nil {
			rs.idx[t] = b.sel[t][lo:hi]
		}
	}
	return rs
}

// i32Pools recycles index buffers, one pool per power-of-two capacity:
// those that die before their operator returns (a join's key ids, key
// table and CSR) are taken and put back by the operator, those a query
// holds until it ends (a filter's selection, a join's pairs, composed
// selections) go through its task (task.i32). Only what leaves the engine
// — ChangeContext's positions — is allocated exactly.
var i32Pools [32]sync.Pool

// getI32 returns a pooled buffer of n int32s with arbitrary contents.
func getI32(n int) *[]int32 {
	class := bits.Len(uint(max(n, 1) - 1))
	if p, _ := i32Pools[class].Get().(*[]int32); p != nil {
		*p = (*p)[:n]
		return p
	}
	s := make([]int32, n, 1<<class)
	return &s
}

func putI32(p *[]int32) { i32Pools[bits.Len(uint(cap(*p)-1))].Put(p) }
