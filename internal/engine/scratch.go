package engine

import (
	"math/bits"
	"sync"
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

// rowSet is the set of rows one morsel of a pipeline works on: pos[j] is
// the position of row j in the batch's logical row space, and idx[t][j]
// the physical row of bound table t behind it. For a table the batch
// carries no selection for, idx[t] is pos itself.
type rowSet struct {
	pos []int32
	idx [][]int32
}

// n returns the number of rows in the set.
func (rs *rowSet) n() int { return len(rs.pos) }

// scratch is one worker's reusable working memory for a morsel pass:
// the morsel's row set, the selection the filter refines, and the group
// index, group ids, key hashes and operands of the fold. A worker takes
// one from scratchPool for the duration of a morselRun and hands it to
// every morsel it claims, so a warm pass allocates only what outlives
// the morsel.
type scratch struct {
	rs   rowSet
	pos  [morselRows]int32 // logical positions of the morsel's rows
	js   [morselRows]int32 // surviving row numbers while a filter refines
	gids [morselRows]int32 // group id per row
	hs   [morselRows]uint64
	kbuf []byte  // byte-encoded group keys of the morsel's rows
	koff []int32 // row j's key is kbuf[koff[j]:koff[j+1]]
	keys []vecOperand
	args []vecOperand
	gi   groupIndex
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns w to the pool, dropping what it still references of
// the query it served (stored columns, selections, a partial's keys) so
// an idle scratch pins no table version.
func putScratch(w *scratch) {
	clear(w.rs.idx[:cap(w.rs.idx)])
	clear(w.keys[:cap(w.keys)])
	clear(w.args[:cap(w.args)])
	w.rs.pos, w.gi.keys = nil, nil
	scratchPool.Put(w)
}

// rows binds the morsel [lo, hi) of b's logical rows into the scratch
// row set.
func (w *scratch) rows(b *Batch, lo, hi int) *rowSet {
	rs := &w.rs
	rs.pos = w.pos[:hi-lo]
	for j := range rs.pos {
		rs.pos[j] = int32(lo + j)
	}
	nt := max(1, len(b.sel))
	if cap(rs.idx) < nt {
		rs.idx = make([][]int32, nt)
	}
	rs.idx = rs.idx[:nt]
	for t := range rs.idx {
		if t < len(b.sel) && b.sel[t] != nil {
			rs.idx[t] = b.sel[t][lo:hi]
		} else {
			rs.idx[t] = rs.pos
		}
	}
	return rs
}

// keep narrows the row set to the surviving row numbers js (ascending).
// Only a batch without selections is narrowed in place — its idx is pos
// — which is the one case a filter is fused into the pass.
func (rs *rowSet) keep(js []int32) {
	if len(js) == len(rs.pos) {
		return
	}
	for k, j := range js {
		rs.pos[k] = rs.pos[j]
	}
	rs.pos = rs.pos[:len(js)]
	for t := range rs.idx {
		rs.idx[t] = rs.pos
	}
}

// i32Pools recycles the operator-lifetime index buffers (the filter's
// staging area, a join's key ids and CSR) that die before the operator
// returns, one pool per power-of-two capacity; what outlives the
// operator — a batch's selection — is allocated exactly.
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
