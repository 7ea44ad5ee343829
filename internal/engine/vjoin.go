package engine

import (
	"aggview/internal/ir"
	"aggview/internal/value"
)

// joinKeys numbers the distinct keys of a join's smaller input densely,
// in insertion order: a flat open-addressing table over the int64
// payload when the single key pair is int on both sides, and a map over
// the canonical Value.AppendKey bytes otherwise, so cross-kind numeric
// equality (1 joins 1.0) matches the row-at-a-time engine exactly.
type joinKeys struct {
	ints  bool
	keys  []int64 // flat table: slot key
	ids   []int32 // flat table: slot key id + 1, 0 empty
	byKey map[string]int32
	n     int
}

func newJoinKeys(ints bool, rows int) *joinKeys {
	jk := &joinKeys{ints: ints}
	if !ints {
		jk.byKey = make(map[string]int32, rows)
		return jk
	}
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
	return jk
}

// intIDs writes the id of each int key xs[idx[j]] into out: adding
// unseen keys in row order when add is set, -1 for an absent key
// otherwise.
func (jk *joinKeys) intIDs(xs []int64, idx []int32, out []int32, add bool) {
	keys, ids := jk.keys, jk.ids
	mask := uint64(len(ids) - 1)
	for j, i := range idx {
		x := xs[i]
		s := mix64(uint64(x)) & mask
		for ids[s] != 0 && keys[s] != x {
			s = (s + 1) & mask
		}
		if add && ids[s] == 0 {
			jk.n++
			keys[s], ids[s] = x, int32(jk.n)
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
	jk.byKey[string(key)] = int32(jk.n)
	jk.n++
	return int32(jk.n - 1)
}

// joinSide is one input of a keyed join: the batch, which of each pair's
// columns is its own, and the site its rows are charged at.
type joinSide struct {
	b    *Batch
	cols []ir.ColID
	site string
}

// morselIDs writes the key id of each row of the side's morsel [lo, hi)
// into ids, adding unseen keys when add is set and writing -1 for an
// absent key otherwise.
func (jk *joinKeys) morselIDs(w *scratch, s joinSide, ids []int32, lo, hi int, add bool) {
	rs := w.rows(s.b, lo, hi)
	out := ids[lo:hi]
	w.keys = w.keys[:0]
	for _, c := range s.cols {
		w.keys = append(w.keys, colOperand(c, s.b, rs))
	}
	if jk.ints {
		jk.intIDs(w.keys[0].vec.ints, w.keys[0].idx, out, add)
		return
	}
	for j := range out {
		w.kbuf = w.kbuf[:0]
		for _, k := range w.keys {
			w.kbuf = append(k.Value(j).AppendKey(w.kbuf), 0)
		}
		out[j] = jk.bytesID(w.kbuf, add)
	}
}

// hashJoinBatch joins the accumulated batch — the tables listed in
// joined — with the scan batch of table next using the equality
// predicates in keys; with no keys it degrades to a cross product.
// Nothing is copied but row indices: the matched pairs come out
// left-major — for each left row in order, its matching incoming rows in
// their order, the order of the serial nested probe at every worker
// count — and are composed onto the selections of both inputs.
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
		lIdx, rIdx = make([]int32, left.n*right.n), make([]int32, left.n*right.n)
		err := ev.morselRun(t, "join.cross", ev.workersFor(left.n), allMorsels(left.n), func(_ *scratch, _, lo, hi int) error {
			o := lo * right.n
			for i := lo; i < hi; i++ {
				for j := 0; j < right.n; j++ {
					lIdx[o], rIdx[o] = int32(i), int32(right.phys(next, j))
					o++
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	default:
		l := joinSide{b: left, site: "join.probe"}
		r := joinSide{b: right, site: "join.build"}
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
// left row, physical row of the incoming table — left-major. The
// distinct keys of the smaller input are numbered serially (joinKeys),
// the larger input looks its rows' key ids up morsel-parallel, a
// counting sort lays the incoming table's matched rows out per key id
// in row order (a CSR: one offset per key plus one row array, no
// per-key slices), and the emission walks the left rows in order. Which
// input was the smaller changes who builds the key table, never the
// output.
func (ev *Evaluator) joinPairs(t *task, l, r joinSide, next int) ([]int32, []int32, error) {
	// Keying on the int64 payload is safe only when both vectors are
	// uniformly KindInt — with a float on either side the canonical key
	// encoding must unify 1 and 1.0.
	isInt := func(s joinSide) bool {
		col := s.b.cols[s.cols[0]]
		return col != nil && col.kind == value.KindInt
	}
	ints := len(l.cols) == 1 && isInt(l) && isInt(r)

	lp, rp := getI32(l.b.n), getI32(r.b.n)
	defer putI32(lp)
	defer putI32(rp)
	lids, rids := *lp, *rp
	small, sids, big, bids := r, rids, l, lids
	if l.b.n < r.b.n {
		small, sids, big, bids = l, lids, r, rids
	}
	// Number the smaller input's keys serially, so ids follow row order.
	jk := newJoinKeys(ints, small.b.n)
	w := getScratch()
	for m := 0; m < morselCount(small.b.n); m++ {
		lo, hi := morselBounds(m, small.b.n)
		jk.morselIDs(w, small, sids, lo, hi, true)
	}
	putScratch(w)
	// Rows are charged build side first, then probe side, whichever of
	// the two was numbered above: the other looks its keys up as it is
	// charged, morsel-parallel against the finished table.
	for _, s := range []joinSide{r, l} {
		var err error
		if s.b == small.b {
			err = ev.chargeRows(t, s.site, s.b.n)
		} else {
			err = ev.morselRun(t, s.site, ev.workersFor(s.b.n), allMorsels(s.b.n), func(w *scratch, _, lo, hi int) error {
				jk.morselIDs(w, big, bids, lo, hi, false)
				return nil
			})
		}
		if err != nil {
			return nil, nil, err
		}
	}

	// Counting sort of the incoming rows by key id. ends[id] counts, then
	// holds the start of id's run, and after the scatter its end — which
	// is the start of the next id's.
	ep := getI32(jk.n)
	defer putI32(ep)
	ends := *ep
	clear(ends)
	matched := 0
	for _, id := range rids {
		if id >= 0 {
			ends[id]++
			matched++
		}
	}
	for id, at := 0, int32(0); id < len(ends); id++ {
		ends[id], at = at, at+ends[id]
	}
	rowp := getI32(matched)
	defer putI32(rowp)
	rows := *rowp
	for j, id := range rids {
		if id >= 0 {
			rows[ends[id]] = int32(r.b.phys(next, j))
			ends[id]++
		}
	}
	run := func(id int32) []int32 {
		if id < 0 {
			return nil
		}
		if id == 0 {
			return rows[:ends[0]]
		}
		return rows[ends[id-1]:ends[id]]
	}

	total := 0
	for _, id := range lids {
		total += len(run(id))
	}
	if err := t.allocBytes(ev, "join", 8*int64(total)); err != nil {
		return nil, nil, err
	}
	lIdx, rIdx := make([]int32, total), make([]int32, total)
	o := 0
	for i, id := range lids {
		for _, row := range run(id) {
			lIdx[o], rIdx[o] = int32(i), row
			o++
		}
	}
	return lIdx, rIdx, nil
}
