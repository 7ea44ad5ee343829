package engine

import (
	"fmt"
	"math"
	"sync/atomic"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// intRange returns the union of the ranges storage recorded for an int
// column's chunks: a closed range holding every cell, whatever selection
// the column is read through. ok is false for a column of another kind
// (a bool column's chunks are not ranged), one with an unranged chunk,
// and one with no chunk at all.
func (c *column) intRange() (lo, hi int64, ok bool) {
	if c == nil || c.kind != value.KindInt || len(c.chunks) == 0 {
		return 0, 0, false
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for _, ch := range c.chunks {
		if !ch.ranged {
			return 0, 0, false
		}
		lo, hi = min(lo, ch.lo.AsInt()), max(hi, ch.hi.AsInt())
	}
	return lo, hi, true
}

// keying is how a keyed join numbers its keys, decided by the key
// columns alone: over the int64 payload when the single key pair is
// uniformly int on both sides — by direct address when, further, the
// recorded range [lo, hi] of the laid-out side's column is narrower than
// directSpan, through a hash table when it is wide or unknown — and over
// the canonical Value.AppendKey bytes otherwise, so a join matches the
// pairs value.KeyEqual equates (1 joins 1.0, -0 joins 0) and no others.
type keying struct {
	ints, direct bool
	lo, hi       int64
}

// keyingOf decides the keying of a join whose laid-out side has key
// columns build and whose walked side has key columns probe.
func keyingOf(build, probe []*column) keying {
	var k keying
	k.ints = len(build) == 1 && build[0] != nil && probe[0] != nil &&
		build[0].kind == value.KindInt && probe[0].kind == value.KindInt
	if k.ints {
		if lo, hi, ok := build[0].intRange(); ok && narrow(lo, hi) {
			k.direct, k.lo, k.hi = true, lo, hi
		}
	}
	return k
}

// String renders the keying for Explain: direct[cells] or hash.
func (k keying) String() string {
	if k.direct {
		return fmt.Sprintf("direct[%d]", k.hi-k.lo+1)
	}
	return "hash"
}

// joinKeys numbers the distinct keys of a join's smaller input densely,
// in insertion order, as its keying says: ids addressed by key - lo, a
// flat open-addressing table over the int64 payload, or a map over the
// canonical key bytes.
type joinKeys struct {
	keying
	keys  []int64  // hash table: slot key
	ids   []int32  // slot (hash) or key - lo (direct): key id + 1, 0 empty
	tab   *[]int32 // the pooled buffer behind a direct ids
	byKey map[string]int32
	n     int32
	// missed counts the probe rows lookupPairs found no match for.
	missed atomic.Int32
}

// newJoinKeys returns an empty numbering for a build side of rows rows;
// free returns what it borrowed.
func newJoinKeys(k keying, rows int) *joinKeys {
	jk := &joinKeys{keying: k}
	switch {
	case k.direct:
		jk.tab = getI32(int(k.hi - k.lo + 1))
		jk.ids = *jk.tab
		clear(jk.ids)
	case k.ints:
		// At most half full; a quarter while that keeps the table small
		// enough to stay cache-resident, where short probe chains matter.
		size := 16
		for size < 2*rows {
			size *= 2
		}
		if size < 1<<16 {
			size *= 2
		}
		jk.keys, jk.ids = make([]int64, size), make([]int32, size)
	default:
		jk.byKey = make(map[string]int32, rows)
	}
	return jk
}

func (jk *joinKeys) free() {
	if jk.tab != nil {
		putI32(jk.tab)
	}
}

// intIDs writes the id of each int key xs[idx[j]] into out: adding
// unseen keys in row order when add is set, -1 for an absent key
// otherwise. A key outside the direct table's range is absent: its
// offset, taken in uint64 so that it cannot wrap back into the table,
// is past the last cell.
func (jk *joinKeys) intIDs(xs []int64, idx []int32, out []int32, add bool) {
	keys, ids := jk.keys, jk.ids
	if jk.direct {
		for j, i := range idx {
			s := uint64(xs[i]) - uint64(jk.lo)
			if s >= uint64(len(ids)) {
				out[j] = -1
				continue
			}
			if add && ids[s] == 0 {
				jk.n++
				ids[s] = jk.n
			}
			out[j] = ids[s] - 1
		}
		return
	}
	mask := uint64(len(ids) - 1)
	for j, i := range idx {
		x := xs[i]
		s := mix64(uint64(x)) & mask
		for ids[s] != 0 && keys[s] != x {
			s = (s + 1) & mask
		}
		if add && ids[s] == 0 {
			jk.n++
			keys[s], ids[s] = x, jk.n
		}
		out[j] = ids[s] - 1
	}
}

// bytesID returns the id of a byte-encoded key, as intIDs does per row.
func (jk *joinKeys) bytesID(key []byte, add bool) int32 {
	if id, ok := jk.byKey[string(key)]; ok {
		return id
	}
	if !add {
		return -1
	}
	jk.byKey[string(key)] = jk.n
	jk.n++
	return jk.n - 1
}

// joinSide is one input of a keyed join: the batch and which of each
// pair's columns is its own.
type joinSide struct {
	b    *Batch
	cols []ir.ColID
}

// morselIDs writes the key id of each row of the side's morsel [lo, hi)
// into ids, adding unseen keys when add is set and writing -1 for an
// absent key otherwise.
func (jk *joinKeys) morselIDs(w *scratch, s joinSide, ids []int32, lo, hi int, add bool) {
	rs := w.rows(s.b, lo, hi)
	out := ids[lo:hi]
	w.keys = w.keys[:0]
	for _, c := range s.cols {
		w.keys = append(w.keys, rs.col(c))
	}
	if jk.ints {
		jk.intIDs(w.keys[0].vec.ints, w.keys[0].idx, out, add)
		return
	}
	w.byteKeys(len(out))
	for j := range out {
		out[j] = jk.bytesID(w.kbuf[w.koff[j]:w.koff[j+1]], add)
	}
}

// byteKeys encodes the key operands w.keys of n rows as row keys: row
// j's key is w.kbuf[w.koff[j]:w.koff[j+1]], its cells' canonical keys
// (value.AppendKey) concatenated. Each is self-delimiting, so two rows'
// keys are equal exactly when their cells are value.KeyEqual one by one.
func (w *scratch) byteKeys(n int) {
	w.kbuf, w.koff = w.kbuf[:0], append(w.koff[:0], 0)
	for j := 0; j < n; j++ {
		for _, k := range w.keys {
			w.kbuf = k.Value(j).AppendKey(w.kbuf)
		}
		w.koff = append(w.koff, int32(len(w.kbuf)))
	}
}

// keyCols appends the side's key columns to cols.
func (s joinSide) keyCols(cols []*column) []*column {
	for _, c := range s.cols {
		cols = append(cols, s.b.cols[c])
	}
	return cols
}

// hashJoinBatch joins the accumulated batch — the tables listed in
// joined — with the scan batch of table next using the equality
// predicates in keys; with no keys it degrades to a cross product
// (left-major: it has no probe). Nothing is copied but row indices: the
// matched pairs (joinPairs) are composed onto the selections of both
// inputs, and a nil side of them — a lookup join whose walked input
// matched row for row — keeps that input's selection as it stands.
func (ev *Evaluator) hashJoinBatch(t *task, left, right *Batch, joined []int, keys []ir.Pred, next int) (*Batch, error) {
	mt := ev.metrics()
	mt.joinProbe.Add(int64(left.n))
	mt.joinBuildRows.Observe(int64(right.n))

	// Empty, non-nil: a nil selection would read as "the table's own rows".
	lIdx, rIdx := []int32{}, []int32{}
	switch {
	case left.n == 0 || right.n == 0:
		// No matches: an empty output batch.
	case len(keys) == 0:
		// Cross product, left-major.
		if err := t.allocBytes(ev, "join", 8*int64(left.n)*int64(right.n)); err != nil {
			return nil, err
		}
		cl, cr := t.i32(left.n*right.n), t.i32(left.n*right.n)
		err := ev.morselRun(t, "join.cross", ev.workersFor(left.n), allMorsels(left.n), func(_ *scratch, _, lo, hi int) error {
			o := lo * right.n
			for i := lo; i < hi; i++ {
				for j := 0; j < right.n; j++ {
					cl[o], cr[o] = int32(i), int32(right.phys(next, j))
					o++
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		lIdx, rIdx = cl, cr
	default:
		l, r := joinSide{b: left}, joinSide{b: right}
		for _, p := range keys {
			lc, rc := p.L.Col, p.R.Col
			if left.tabOf(lc) == next {
				lc, rc = rc, lc
			}
			l.cols, r.cols = append(l.cols, lc), append(r.cols, rc)
		}
		var err error
		if lIdx, rIdx, err = ev.joinPairs(t, l, r, next); err != nil {
			return nil, err
		}
	}

	out, err := left.pick(t, ev, "join", lIdx, joined)
	if err != nil {
		return nil, err
	}
	out.sel[next] = rIdx
	mt.joinRows.Add(int64(out.n))
	return out, nil
}

// joinPairs runs a keyed join and returns the matched pairs — logical
// left row, physical row of the incoming table — probe-major: the larger
// input is walked in its own row order and each of its rows is paired
// with its matches in the smaller input in their row order (the incoming
// table counts as the smaller when the two are equal). So the large
// table's side of the pairs ascends, a morsel of joined rows reads a
// chunk or two of it, and what is laid out per key is the small side: its
// distinct keys are numbered serially (joinKeys) and the larger input
// looks its rows' key ids up morsel-parallel. When every row of the
// smaller input has a key of its own, key id j is its row j and the probe
// writes the pairs itself (lookupPairs); otherwise a counting sort lays
// the smaller input's rows out per key id in row order (a CSR: one offset
// per key plus one row array, no per-key slices) and the emission walks
// the ids the probe wrote. Which input is the larger, and which path
// runs, are properties of the data, so the order is the same at every
// worker count.
func (ev *Evaluator) joinPairs(t *task, l, r joinSide, next int) ([]int32, []int32, error) {
	small, big := r, l
	if l.b.n < r.b.n {
		small, big = l, r
	}
	sp := getI32(small.b.n)
	defer putI32(sp)
	sids := *sp

	// Number the smaller input's keys serially, so ids follow row order.
	mt := ev.metrics()
	var sbuf, bbuf [4]*column
	jk := newJoinKeys(keyingOf(small.keyCols(sbuf[:0]), big.keyCols(bbuf[:0])), small.b.n)
	defer jk.free()
	if jk.direct {
		mt.joinDirect.Inc()
	} else {
		mt.joinHashed.Inc()
	}
	w := getScratch()
	for m := 0; m < morselCount(small.b.n); m++ {
		lo, hi := morselBounds(m, small.b.n)
		jk.morselIDs(w, small, sids, lo, hi, true)
	}
	putScratch(w)
	// Each input's rows as the pairs name them: the incoming table's by
	// physical row, through its selection; the left batch's by logical
	// row (nil: row i).
	var ssel, bsel []int32
	if small.b == r.b {
		ssel = r.b.sel[next]
	} else {
		bsel = r.b.sel[next]
	}
	if int(jk.n) == small.b.n {
		mt.joinLookups.Inc()
		return ev.lookupPairs(t, jk, l, r, big, ssel, bsel)
	}

	// Counting sort of the smaller input's rows by key id. ends[id]
	// counts, then holds the start of id's run, and after the scatter its
	// end — the start of the next id's — so with a zero in front, run id
	// is rows[from[id]:from[id+1]].
	fp, rowp := getI32(int(jk.n)+1), getI32(small.b.n)
	defer putI32(fp)
	defer putI32(rowp)
	from, rows := *fp, *rowp
	clear(from)
	ends := from[1:]
	for _, id := range sids {
		ends[id]++
	}
	for id, at := 0, int32(0); id < len(ends); id++ {
		ends[id], at = at, at+ends[id]
	}
	for j, id := range sids {
		row := int32(j)
		if ssel != nil {
			row = ssel[j]
		}
		rows[ends[id]] = row
		ends[id]++
	}

	bp := getI32(big.b.n)
	defer putI32(bp)
	bids := *bp
	if err := ev.probe(t, l.b, r.b, big.b, func(w *scratch, _, lo, hi int) error {
		jk.morselIDs(w, big, bids, lo, hi, false)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	total := 0
	for _, id := range bids {
		if id >= 0 {
			total += int(from[id+1] - from[id])
		}
	}
	if err := t.allocBytes(ev, "join", 8*int64(total)); err != nil {
		return nil, nil, err
	}
	lIdx, rIdx := t.i32(total), t.i32(total)
	// walked takes the larger input's row of each pair, laid the smaller's.
	walked, laid := lIdx, rIdx
	if big.b == r.b {
		walked, laid = rIdx, lIdx
	}
	o := 0
	for i, id := range bids {
		if id < 0 {
			continue
		}
		p := int32(i)
		if bsel != nil {
			p = bsel[i]
		}
		for k, end := from[id], from[id+1]; k < end; k++ {
			walked[o], laid[o] = p, rows[k]
			o++
		}
	}
	return lIdx, rIdx, nil
}

// lookupPairs is joinPairs once jk has given every row of the smaller
// input a key id of its own, so that id j is its row j — ssel[j] in the
// pairs when ssel is set, as bsel[i] names the larger input's row i: each
// walked row matches at most once. The probe writes that match, or -1,
// straight into the laid side of the pairs. When every walked row
// matched, the walked side is the larger input's own rows in order, and
// is returned as bsel — aliased, not copied, and nil for a table read
// whole or for the left batch, whose pick then shares its selections.
// Otherwise one pass closes the pairs up over the misses. Rows and pair
// bytes are charged as the CSR path charges them.
func (ev *Evaluator) lookupPairs(t *task, jk *joinKeys, l, r, big joinSide, ssel, bsel []int32) ([]int32, []int32, error) {
	laid := t.i32(big.b.n)
	if err := ev.probe(t, l.b, r.b, big.b, func(w *scratch, _, lo, hi int) error {
		jk.morselIDs(w, big, laid, lo, hi, false)
		var missed int32
		for j, id := range laid[lo:hi] {
			switch {
			case id < 0:
				missed++
			case ssel != nil:
				laid[lo+j] = ssel[id]
			}
		}
		jk.missed.Add(missed)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	total := big.b.n - int(jk.missed.Load())
	if err := t.allocBytes(ev, "join", 8*int64(total)); err != nil {
		return nil, nil, err
	}
	walked := bsel
	if total < big.b.n {
		walked = t.i32(total)
		o := 0
		for i, id := range laid {
			if id < 0 {
				continue
			}
			p := int32(i)
			if bsel != nil {
				p = bsel[i]
			}
			walked[o], laid[o] = p, id
			o++
		}
	}
	if big.b == r.b {
		return laid[:total], walked, nil
	}
	return walked, laid[:total], nil
}

// probe charges a keyed join's rows, build side first and then probe
// side, whichever of the two was numbered: the smaller input at once, the
// larger as walk looks its rows' keys up morsel-parallel against the
// finished numbering.
func (ev *Evaluator) probe(t *task, l, r, big *Batch, walk func(w *scratch, k, lo, hi int) error) error {
	sites := [2]string{"join.build", "join.probe"}
	for i, b := range [2]*Batch{r, l} {
		var err error
		if b == big {
			err = ev.morselRun(t, sites[i], ev.workersFor(b.n), allMorsels(b.n), walk)
		} else {
			err = ev.chargeRows(t, sites[i], b.n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
