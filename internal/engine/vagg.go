package engine

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// aggSpec is one aggregate occurrence as the fold sees it.
type aggSpec struct {
	fn  ir.AggFunc
	arg ir.Expr // nil for COUNT(*) and bare COUNT
	// fold marks MIN/MAX/SUM/AVG(arg), whose argument is evaluated and
	// folded; a COUNT reads the group's row count (no NULLs) and checks
	// its argument on the representative row at finalization.
	fold bool
}

func aggSpecs(aggs []*ir.Agg) []aggSpec {
	specs := make([]aggSpec, len(aggs))
	for i, a := range aggs {
		specs[i].fn = a.Func
		if !a.Star {
			specs[i].arg = a.Arg
		}
		specs[i].fold = specs[i].arg != nil && a.Func != ir.AggCount
	}
	return specs
}

// groupKeys holds the keys of a set of groups, one per group id, as
// typed cells: one vector per key column, cols[c] cell g being group g's
// key in column c. An int, bool or string column keeps its cells, a
// float column their canonical bits (keyOperand).
type groupKeys struct {
	cols []Vec
	n    int // groups
}

func (gk *groupKeys) reset() {
	for c := range gk.cols[:cap(gk.cols)] {
		v := &gk.cols[:cap(gk.cols)][c]
		clear(v.strs)
		v.ints, v.strs = v.ints[:0], v.strs[:0]
	}
	gk.cols, gk.n = gk.cols[:0], 0
}

// keyOperand returns a key column as the group index reads it: a float
// column as an int vector of its cells' canonical bits
// (value.CanonFloat), equal exactly when the cells are value.KeyEqual, so
// -0 and 0 are one key and every NaN is one key; any other column as it
// is.
func keyOperand(k vecOperand) vecOperand {
	if k.vec.kind != value.KindFloat {
		return k
	}
	bits := make([]int64, len(k.idx))
	for j, i := range k.idx {
		bits[j] = int64(math.Float64bits(value.CanonFloat(k.vec.floats[i])))
	}
	return denseOperand(&Vec{kind: value.KindInt, ints: bits})
}

// groupIndex assigns dense group ids in first-appearance order: an
// open-addressing table from key hash to group id over the keys it
// grows, which verify each hit. The same index serves a morsel's rows
// and the serial merge of partials, whose "rows" are another key set's
// groups. A worker keeps one in its scratch and points it at each
// morsel's partial in turn; the partial carries only the keys.
//
// A morsel grouped by one int or bool key whose cells lie in a range
// narrower than directSpan — the usual case: a day, a month, a plan —
// skips the hash table: direct holds group id + 1 at key - lo, so a row
// costs a subtraction and a load. Groups are created by the same rows in
// the same order either way, so which table answered shows in nothing
// but time. The table is valid for one assign call only, which is why
// the merge, whose index lives across calls, always hashes.
type groupIndex struct {
	keys   *groupKeys
	slots  []int32 // 0 empty, else group id + 1
	hash   []uint64
	newJ   []int32  // rows that created a group in the last assign call, in group order
	direct []uint16 // grown to the key span met, at most directSpan
}

// A direct cell holds a group id + 1 of one morsel's rows.
const _ = uint16(morselRows)

// directSpan is the widest key range (hi - lo + 1) the direct-addressed
// tables cover: the group index's per morsel, a join's key numbering per
// build side (vjoin.go).
const directSpan = 4096

// narrow reports whether the closed int range [lo, hi] fits a
// direct-addressed table. The width is taken in uint64, where hi - lo
// cannot wrap: MinInt64..MaxInt64 is 2^64-1 cells wide, not -1.
func narrow(lo, hi int64) bool { return uint64(hi)-uint64(lo) < directSpan }

var keySeed = maphash.MakeSeed()

// mix64 is the splitmix64 finalizer, used to spread integer keys.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// minSlots is the smallest table; together with the quarter load bound
// it keeps probe chains short enough that the probe loop's exit is a
// well-predicted branch.
const minSlots = 256

// reset empties the index and points it at an empty key set. The hash
// table is made by the first assign that hashes (hashing).
func (gi *groupIndex) reset(keys *groupKeys) {
	clear(gi.slots)
	gi.keys, gi.hash = keys, gi.hash[:0]
}

// hashing readies the hash table for an assign that hashes its keys.
func (gi *groupIndex) hashing() {
	if gi.slots == nil {
		gi.slots = make([]int32, minSlots)
	}
}

// add records a new group with hash h, created by row j, in empty slot s
// and returns its id and the slot mask, doubling the table once it is a
// quarter full.
func (gi *groupIndex) add(s int, h uint64, j int) (int, int) {
	g := gi.keys.n
	gi.keys.n++
	gi.slots[s] = int32(g + 1)
	gi.hash = append(gi.hash, h)
	gi.newJ = append(gi.newJ, int32(j))
	if 4*len(gi.hash) > len(gi.slots) {
		grown := make([]int32, 2*len(gi.slots))
		mask := uint64(len(grown) - 1)
		for g, gh := range gi.hash {
			s := gh & mask
			for grown[s] != 0 {
				s = (s + 1) & mask
			}
			grown[s] = int32(g + 1)
		}
		gi.slots = grown
	}
	return g, len(gi.slots) - 1
}

// assign maps each of n rows to its group id by the typed key columns
// keys (none: every row is the one global group), creating groups in
// row order. hs is hash scratch, grown to n cells when the keys are
// hashed. once says the index
// is empty and takes no other call before its next reset, which lets a
// narrow int key be addressed directly; assign reports whether it was.
func (gi *groupIndex) assign(keys []vecOperand, n int, hs *[]uint64, gids []int32, once bool) (direct bool) {
	gi.newJ = gi.newJ[:0]
	gk := gi.keys
	if cap(gk.cols) < len(keys) {
		gk.cols = make([]Vec, len(keys))
	}
	gk.cols = gk.cols[:len(keys)]
	for c := range keys {
		gk.cols[c].kind = keys[c].vec.kind
	}
	switch {
	case len(keys) == 0:
		if gk.n == 0 && n > 0 {
			gk.n = 1
			gi.newJ = append(gi.newJ, 0)
		}
		clear(gids[:n])
		return false
	case len(keys) == 1 && keys[0].vec.kind != value.KindString:
		if once && n > 0 {
			if lo, hi := keys[0].intRange(); narrow(lo, hi) {
				gi.assignDirect(&keys[0], lo, hi, gids)
				return true
			}
		}
		gi.hashing()
		gi.assignInt(&keys[0], gids)
		return false
	}
	gi.hashing()
	*hs = room(*hs, n)
	hv := *hs
	clear(hv)
	for c := range keys {
		k := &keys[c]
		if k.vec.kind == value.KindString {
			for j, i := range k.idx {
				hv[j] = mix64(hv[j]*0x9e3779b97f4a7c15 + maphash.String(keySeed, k.vec.strs[i]))
			}
		} else {
			for j, i := range k.idx {
				hv[j] = mix64(hv[j]*0x9e3779b97f4a7c15 + uint64(k.vec.ints[i]))
			}
		}
	}
	mask := len(gi.slots) - 1
	for j, h := range hv {
		for s := int(h) & mask; ; s = (s + 1) & mask {
			g := int(gi.slots[s]) - 1
			if g < 0 {
				g, mask = gi.add(s, h, j)
				for c := range keys {
					k := &keys[c]
					if k.vec.kind == value.KindString {
						gk.cols[c].strs = append(gk.cols[c].strs, k.vec.strs[k.idx[j]])
					} else {
						gk.cols[c].ints = append(gk.cols[c].ints, k.vec.ints[k.idx[j]])
					}
				}
			} else if gi.hash[g] != h || !gk.holds(g, keys, j) {
				continue
			}
			gids[j] = int32(g)
			break
		}
	}
	return false
}

// assignDirect is assign for one int (or bool) key column whose cells
// all lie in the narrow range [lo, hi]: the group of key x is looked up
// at direct[x-lo]. Only the cells the range covers are cleared, so a
// 28-day key costs a 28-cell clear per morsel, and whatever an earlier
// morsel or query left beyond them is never read.
func (gi *groupIndex) assignDirect(k *vecOperand, lo, hi int64, gids []int32) {
	gi.direct = room(gi.direct, int(hi-lo+1))
	tab := gi.direct
	clear(tab)
	gk := gi.keys
	col, xs := &gk.cols[0], k.vec.ints
	for j, i := range k.idx {
		x := xs[i]
		s := uint64(x) - uint64(lo)
		g := int32(tab[s]) - 1
		if g < 0 {
			g = int32(gk.n)
			gk.n++
			tab[s] = uint16(g + 1)
			gi.newJ = append(gi.newJ, int32(j))
			col.ints = append(col.ints, x)
		}
		gids[j] = g
	}
}

// assignInt is assign for one int (or bool) column whose range is wide
// or which the merge feeds call after call: the key itself is compared,
// with no hash column and no per-column verification loop.
func (gi *groupIndex) assignInt(k *vecOperand, gids []int32) {
	col := &gi.keys.cols[0]
	mask := len(gi.slots) - 1
	for j, i := range k.idx {
		x := k.vec.ints[i]
		h := mix64(uint64(x))
		for s := int(h) & mask; ; s = (s + 1) & mask {
			g := int(gi.slots[s]) - 1
			if g < 0 {
				g, mask = gi.add(s, h, j)
				col.ints = append(col.ints, x)
			} else if col.ints[g] != x {
				continue
			}
			gids[j] = int32(g)
			break
		}
	}
}

// holds reports whether group g's key is row j's.
func (gk *groupKeys) holds(g int, keys []vecOperand, j int) bool {
	for c := range keys {
		k := &keys[c]
		i := k.idx[j]
		if k.vec.kind == value.KindString {
			if k.vec.strs[i] != gk.cols[c].strs[g] {
				return false
			}
		} else if k.vec.ints[i] != gk.cols[c].ints[g] {
			return false
		}
	}
	return true
}

// accCol holds one aggregate's accumulators, one cell per group id, as a
// typed vector of its argument's kind: int64 (SUM, AVG's total and
// MIN/MAX over ints, MIN/MAX over the 0/1 payload of bools), float64
// (MIN/MAX over floats, and a float total once rounded) or string
// (MIN/MAX over strings). An AVG keeps its SUM's total and divides once,
// at output. An int total is the exact sum's low word, wrapping, and
// carry counts the signed 2^64 wraps that took it there (empty until one
// does; a group past its end has none): the total is exact when the count
// is 0, however the rows were grouped on the way. A float total is a
// value.Sum per group in sums, exact however the rows were grouped, and
// aggregate rounds it once into vec. A COUNT keeps nothing here; it reads
// the fold state's shared row counts.
type accCol struct {
	vec   Vec
	carry []int64
	sums  []value.Sum
}

func (c *accCol) reset() {
	clear(c.vec.strs)
	c.vec.ints, c.vec.floats, c.vec.strs = c.vec.ints[:0], c.vec.floats[:0], c.vec.strs[:0]
	c.carry, c.sums = c.carry[:0], c.sums[:0]
}

// growSums extends c's float totals to n groups, each new one empty. A
// pooled column's spare totals keep their storage (value.Sum.Reset).
func (c *accCol) growSums(n int) {
	for len(c.sums) < n {
		if len(c.sums) < cap(c.sums) {
			c.sums = c.sums[:len(c.sums)+1]
			c.sums[len(c.sums)-1].Reset()
		} else {
			c.sums = append(c.sums, value.Sum{})
		}
	}
}

// grow extends xs to n cells, filling new cells with init.
func grow[T any](xs []T, n int, init T) []T {
	for len(xs) < n {
		xs = append(xs, init)
	}
	return xs
}

// growFrom extends xs to n cells, cell len(xs)+k taking src's cell
// idx[newJ[k]] — a MIN/MAX accumulator starts at its group's first value.
func growFrom[T any](xs []T, n int, src []T, idx, newJ []int32) []T {
	for k := 0; len(xs) < n; k++ {
		xs = append(xs, src[idx[newJ[k]]])
	}
	return xs
}

// canonFloats replaces each cell of xs with its canonical member
// (value.CanonFloat).
func canonFloats(xs []float64) {
	for i, x := range xs {
		xs[i] = value.CanonFloat(x)
	}
}

func addCells(acc []int64, gids []int32, xs []int64, idx []int32) {
	for j, g := range gids {
		acc[g] += xs[idx[j]]
	}
}

// sumInts is addCells over int totals, wrapping, reporting whether any
// total wrapped: a sum's sign differs from both its addends' only when it
// wraps, so the loop ORs (s^a)&(s^x) across the rows and tests the sign
// once.
func sumInts(acc []int64, gids []int32, xs []int64, idx []int32) (wrapped bool) {
	var ov int64
	for j, g := range gids {
		a, x := acc[g], xs[idx[j]]
		s := a + x
		ov |= (s ^ a) & (s ^ x)
		acc[g] = s
	}
	return ov < 0
}

// countWraps takes out again the rows sumInts just folded into c's ng
// int totals (wrapping subtraction is exact) and re-folds them, counting
// each group's wraps into carry: a rare case, so only it pays the count.
func (c *accCol) countWraps(ng int, gids []int32, xs []int64, idx []int32) {
	acc, carry := c.vec.ints, grow(c.carry, ng, 0)
	for j, g := range gids {
		acc[g] -= xs[idx[j]]
	}
	for j, g := range gids {
		s, k := value.AddWide(acc[g], xs[idx[j]])
		acc[g], carry[g] = s, carry[g]+k
	}
	c.carry = carry
}

// extremeCells keeps per group the least (or greatest) cell.
func extremeCells[T int64 | string](acc []T, gids []int32, xs []T, idx []int32, greatest bool) {
	if greatest {
		for j, g := range gids {
			if x := xs[idx[j]]; x > acc[g] {
				acc[g] = x
			}
		}
		return
	}
	for j, g := range gids {
		if x := xs[idx[j]]; x < acc[g] {
			acc[g] = x
		}
	}
}

// extremeFloats is extremeCells under value.CompareFloats, which orders
// a NaN above +Inf: it is every group's MAX it meets, and a group's MIN
// only when the group holds nothing else.
func extremeFloats(acc []float64, gids []int32, xs []float64, idx []int32, greatest bool) {
	want := -1
	if greatest {
		want = 1
	}
	for j, g := range gids {
		if x := xs[idx[j]]; value.CompareFloats(x, acc[g]) == want {
			acc[g] = x
		}
	}
}

// foldTyped folds src's cells into the typed accumulators: row j goes to
// group gids[j]; accumulators grow to ng groups, newJ naming the row
// that created each group past the current length. A SUM and an AVG fold
// one total alike, from 0: an int total counts its wraps, a float total
// is exact (value.Sum).
// Fresh totals over a stored chunk's cells skip the count when the range
// storage recorded for the chunk keeps every total inside int64
// (sumFits): with every int SUM folded through sumInts,
// BenchmarkScanAgg/by_day/workers=1 read a median 878-947 µs against
// 731-750 µs with sumFits (30 runs a side on 2 vCPUs), 20-26% slower.
func (c *accCol) foldTyped(fn ir.AggFunc, src vecOperand, gids []int32, ng int, newJ []int32) {
	v, s, extreme := &c.vec, src.vec, fn == ir.AggMin || fn == ir.AggMax
	switch {
	case !extreme && v.kind == value.KindInt && len(v.ints) == 0 && src.sumFits(len(gids)):
		v.ints = grow(v.ints, ng, 0)
		addCells(v.ints, gids, s.ints, src.idx)
	case !extreme && v.kind == value.KindInt:
		v.ints = grow(v.ints, ng, 0)
		if sumInts(v.ints, gids, s.ints, src.idx) {
			c.countWraps(ng, gids, s.ints, src.idx)
		}
	case !extreme:
		c.growSums(ng)
		for j, g := range gids {
			c.sums[g].AddFloat(s.floats[src.idx[j]])
		}
	case v.kind == value.KindFloat:
		v.floats = growFrom(v.floats, ng, s.floats, src.idx, newJ)
		extremeFloats(v.floats, gids, s.floats, src.idx, fn == ir.AggMax)
	case v.kind == value.KindString:
		v.strs = growFrom(v.strs, ng, s.strs, src.idx, newJ)
		extremeCells(v.strs, gids, s.strs, src.idx, fn == ir.AggMax)
	default:
		v.ints = growFrom(v.ints, ng, s.ints, src.idx, newJ)
		extremeCells(v.ints, gids, s.ints, src.idx, fn == ir.AggMax)
	}
}

// sumFits reports whether totals from 0 over n of the operand's int
// cells stay inside int64 whatever cells they are: known without reading
// them only for a stored chunk, whose range [lo, hi] bounds every total
// by [n·lo, n·hi].
func (o *vecOperand) sumFits(n int) bool {
	if o.ch == nil || !o.ch.ranged || n == 0 {
		return false
	}
	lo, hi := o.intRange()
	return lo >= math.MinInt64/int64(n) && hi <= math.MaxInt64/int64(n)
}

// foldRows folds one morsel's evaluated argument into fresh
// accumulators for its ng groups, a constant argument as its broadcast.
// A SUM or AVG over a non-numeric argument raises its error on the
// morsel's first row.
func (c *accCol) foldRows(sp *aggSpec, src vecOperand, gids []int32, ng int, newJ []int32) error {
	if src.isConst {
		v := broadcast(src.c, len(gids))
		src = denseOperand(&v)
	}
	if (sp.fn == ir.AggSum || sp.fn == ir.AggAvg) && !numericKind(src.vec.kind) {
		return fmt.Errorf("engine: %s over non-numeric value %s", sp.fn, src.Value(0))
	}
	c.vec.kind = src.vec.kind
	c.foldTyped(sp.fn, src, gids, ng, newJ)
	return nil
}

// merge folds a later partial's accumulators src into c: partial group
// j goes to group gmap[j], c growing to ng groups (newJ names the
// partial group that created each new one). Every partial of a query
// holds one accumulator kind, and a partial's cells are the values, so
// the partials merge through the kernels that fold rows, per group in
// morsel order; an int total's carry adds the partial's, and a float
// total adds the partial's exact one.
func (c *accCol) merge(sp *aggSpec, src *accCol, gmap []int32, ng int, newJ []int32) {
	c.vec.kind = src.vec.kind
	if len(src.sums) > 0 {
		c.growSums(ng)
		for j, g := range gmap {
			c.sums[g].Merge(&src.sums[j])
		}
		return
	}
	c.foldTyped(sp.fn, denseOperand(&src.vec), gmap, ng, newJ)
	if n := len(src.carry); n > 0 {
		c.carry = grow(c.carry, ng, 0)
		addCells(c.carry, gmap[:n], src.carry, iota32[:n])
	}
}

// foldState is the aggregation state over a set of groups: their keys,
// each group's first row (its logical position in the batch, for
// the representative row and first-appearance order), its row count, and
// one accumulator column per aggregate. Each morsel's partial is one;
// the merged result is one more.
type foldState struct {
	keys  groupKeys
	first []int32
	rows  []int64
	accs  []accCol
}

func (st *foldState) reset(naggs int) {
	st.keys.reset()
	st.first, st.rows = st.first[:0], st.rows[:0]
	// A pooled state serves queries of differing aggregate counts: keep
	// the columns (and their capacity) it has and add what is missing.
	st.accs = st.accs[:cap(st.accs)]
	for len(st.accs) < naggs {
		st.accs = append(st.accs, accCol{})
	}
	st.accs = st.accs[:naggs]
	for a := range st.accs {
		st.accs[a].reset()
	}
}

// bytes is the state's payload footprint for the memory budget.
func (st *foldState) bytes() int64 {
	n := 12 * int64(len(st.rows))
	for c := range st.keys.cols {
		n += st.keys.cols[c].bytes()
	}
	for a := range st.accs {
		ac := &st.accs[a]
		n += ac.vec.bytes() + 8*int64(len(ac.carry))
		for g := range ac.sums {
			n += 24 + ac.sums[g].Bytes()
		}
	}
	return n
}

// foldPool recycles fold states: a morsel folds into one and commits it
// to its slot as its partial — no copy — the merge returns it, and the
// merged state is one more, returned once the result is assembled, so a
// warm aggregation allocates its result, not its partials or its groups.
var foldPool = sync.Pool{New: func() any { return new(foldState) }}

// maxPooledGroups bounds the merged state that goes back to foldPool. A
// partial holds at most one morsel's groups; a merged state far larger
// than that — and the group index that grew with it — would sit in the
// pools it shares with the partials until the next collection, and every
// later morsel handed that index would clear all of its slots.
const maxPooledGroups = 4 * morselRows

// aggPlan is what the fold pass of one aggregation query shares between
// its morsels: the batch, the pushed-down predicates of a fused scan and
// the aggregate occurrences.
type aggPlan struct {
	q     *ir.Query
	b     *Batch
	preds []ir.Pred
	specs []aggSpec
	mt    *evMetrics
}

// foldMorsel runs the pipeline over the morsel [lo, hi) of the plan's
// batch — filter into a selection, evaluate the aggregate arguments over
// the selected rows, assign group ids, fold each aggregate as a column
// loop — and returns the morsel's partial (nil when no row survives)
// and the number of rows folded. Argument errors surface first, in
// aggregate order, then fold errors, in aggregate order: every one is
// met on the morsel's first row.
func (w *scratch) foldMorsel(pl *aggPlan, lo, hi int) (*foldState, int, error) {
	b := pl.b
	rs := w.rows(b, lo, hi)
	if len(pl.preds) > 0 {
		js, err := w.refine(rs, pl.preds, nil)
		if err != nil {
			return nil, 0, err
		}
		// Narrow the set to the survivors (ascending; js stays untouched
		// while the set is in use). Only a batch without selections is
		// narrowed: the one case a filter is fused into the pass.
		rs.loc = js
	}
	if rs.n() == 0 {
		return nil, 0, nil
	}
	w.args = w.args[:0]
	for a := range pl.specs {
		var o vecOperand
		if sp := &pl.specs[a]; sp.fold {
			var err error
			if o, err = evalVop(sp.arg, rs); err != nil {
				return nil, 0, err
			}
		}
		w.args = append(w.args, o)
	}

	st := foldPool.Get().(*foldState)
	st.reset(len(pl.specs))
	w.gi.reset(&st.keys)
	w.gids = room(w.gids, rs.n())
	gids := w.gids
	w.keys = w.keys[:0]
	for _, gc := range pl.q.GroupBy {
		// An unbound key column reads the zero Value on every row: it
		// splits no group, so the index skips it.
		if k := rs.col(gc); !k.isConst {
			w.keys = append(w.keys, keyOperand(k))
		}
	}
	direct := w.gi.assign(w.keys, rs.n(), &w.hs, gids, true)
	// Which table numbered the groups is a property of the morsel's
	// cells, so the two counts repeat at every worker count.
	switch {
	case direct:
		pl.mt.aggDirect.Inc()
	case len(w.keys) > 0:
		pl.mt.aggHashed.Inc()
	}
	ng, newJ := st.keys.n, w.gi.newJ
	for _, j := range newJ {
		st.first = append(st.first, rs.pos(j))
	}
	st.rows = grow(st.rows, ng, 0)
	for _, g := range gids {
		st.rows[g]++
	}
	for a := range pl.specs {
		if sp := &pl.specs[a]; sp.fold {
			if err := st.accs[a].foldRows(sp, w.args[a], gids, ng, newJ); err != nil {
				return nil, 0, err
			}
		}
	}
	return st, rs.n(), nil
}

// mergePartial folds a morsel's partial p into the merged state st,
// indexed by w.gi, as rows of a fold: p's groups are looked up (or created,
// in p's group order — partials arrive in morsel order, so creation
// order is global first appearance) and its accumulator columns fold
// into st's.
func (st *foldState) mergePartial(w *scratch, specs []aggSpec, p *foldState) {
	n := p.keys.n
	w.gids = room(w.gids, n)
	gmap := w.gids
	w.keys = w.keys[:0]
	for c := range p.keys.cols {
		w.keys = append(w.keys, denseOperand(&p.keys.cols[c]))
	}
	w.gi.assign(w.keys, n, &w.hs, gmap, false)
	ng, newJ := st.keys.n, w.gi.newJ
	for _, j := range newJ {
		st.first = append(st.first, p.first[j])
	}
	st.rows = grow(st.rows, ng, 0)
	for a := range specs {
		if sp := &specs[a]; sp.fold {
			st.accs[a].merge(sp, &p.accs[a], gmap, ng, newJ)
		}
	}
	addCells(st.rows, gmap, p.rows, iota32[:n])
}

// aggregate evaluates the GROUP BY / HAVING / SELECT pipeline of an
// aggregation query over the batch. One morsel pass folds the batch into
// per-morsel partials (foldMorsel).
// When the batch is a stored table the pass is also its scan (fused):
// it skips the chunks preds exclude (scanMorsels), runs preds first on
// the rest, charges the rows it reads at site "scan" as it goes and the
// surviving rows at "agg.fold" as the partials merge, so both sites see
// the totals of separate passes.
// Partials belong to morsels of the batch, whose boundaries depend on
// the input alone, and merge serially in morsel index order — a fixed
// merge tree, so accumulator contents (including float accumulation
// order) and the first-appearance output order are byte-identical at
// every worker count. The partial of a one-morsel pass is the merged
// state as it stands: merging it into an empty state would re-hash every
// group to produce the same keys, first rows, counts and accumulators,
// so only the charge, the poll and the counters of the merge remain. A
// query without GROUP BY is the single-group case of the same path; an
// empty input yields no groups (see the package comment for this
// documented simplification).
func (ev *Evaluator) aggregate(t *task, p *Plan, b *Batch, preds []ir.Pred, fused bool) (*ColTable, error) {
	mt := ev.metrics()
	sw := mt.aggNs.Start()
	defer sw.Stop()
	pl := aggPlan{q: p.q, b: b, preds: preds, specs: p.specs, mt: mt}
	site := "agg.fold"
	if fused {
		site = "scan"
	}

	ms := allMorsels(b.n)
	if fused {
		ms = ev.scanMorsels(b, preds)
		mt.scanRows.Add(int64(ms.rows()))
	}
	// w merges the partials and runs the output stage; a one-morsel pass
	// folds inline on it too (see inline).
	var merged *foldState
	w := getScratch()
	defer func() {
		switch {
		case merged == nil:
		case merged.keys.n > maxPooledGroups:
			w.gi = groupIndex{}
		default:
			foldPool.Put(merged)
		}
		putScratch(w)
	}()
	var parts []*foldState
	var kept []int32
	var one [1]*foldState // a one-morsel pass's slots, on the stack
	var oneKept [1]int32
	if ms.count() == 1 {
		mt.poolSerial.Inc()
		lo, hi := ms.bounds(0)
		part, n, err := w.foldMorsel(&pl, lo, hi)
		if err == nil && part != nil {
			err = t.allocBytes(ev, "agg.fold", part.bytes())
		}
		if err == nil {
			err = t.charge(ev, site, int64(hi-lo))
		}
		if err != nil {
			return nil, err
		}
		one[0], oneKept[0] = part, int32(n)
		parts, kept = one[:], oneKept[:]
	} else {
		ps, ks, plm := make([]*foldState, ms.count()), make([]int32, ms.count()), pl
		err := ev.morselRun(t, site, ev.workersFor(ms.rows()), ms, func(w *scratch, k, lo, hi int) error {
			part, n, err := w.foldMorsel(&plm, lo, hi)
			if err != nil || part == nil {
				return err
			}
			ps[k], ks[k] = part, int32(n)
			return t.allocBytes(ev, "agg.fold", part.bytes())
		})
		if err != nil {
			return nil, err
		}
		parts, kept = ps, ks
	}

	if len(parts) == 1 && parts[0] != nil {
		merged = parts[0]
	} else {
		merged = foldPool.Get().(*foldState)
		merged.reset(len(pl.specs))
		w.gi.reset(&merged.keys)
	}
	rows := 0
	for m, part := range parts {
		if part == nil {
			continue
		}
		rows += int(kept[m])
		if fused {
			if err := t.charge(ev, "agg.fold", int64(kept[m])); err != nil {
				return nil, err
			}
		}
		if part != merged {
			merged.mergePartial(w, pl.specs, part)
			foldPool.Put(part)
		}
		if err := t.poll(ev, "agg.merge"); err != nil {
			return nil, err
		}
	}
	if fused {
		mt.scanKept.Add(int64(rows))
	}
	mt.aggRows.Add(int64(rows))
	mt.aggGroups.Add(int64(merged.keys.n))
	// A float SUM or AVG total is rounded once, here, from its exact
	// value; a float MIN or MAX is emitted as its canonical member,
	// whichever of the rule's equal values the fold met; an int total only
	// when int64 holds its exact value.
	for a := range merged.accs {
		ac := &merged.accs[a]
		if slices.ContainsFunc(ac.carry, func(k int64) bool { return k != 0 }) {
			return nil, &value.OverflowError{Op: '+'}
		}
		if len(ac.sums) > 0 {
			ac.vec.floats = grow(ac.vec.floats[:0], len(ac.sums), 0)
			for g := range ac.sums {
				ac.vec.floats[g] = ac.sums[g].Float()
			}
		}
		canonFloats(ac.vec.floats)
	}

	return assembleGroups(p, b, merged, w)
}

// groupStage is what the output stage evaluates HAVING and SELECT
// expressions over: the merged groups gsel (at most a morsel of them,
// the size every kernel is built for), each expression one operand of
// len(gsel) cells. It resolves the leaves for evalVop: an aggregate is
// its accumulator column read at gsel, a bare column a typed key column
// read at gsel or the stored column read at the groups' first rows — so
// a group costs no box, no map lookup and no dispatch.
type groupStage struct {
	b      *Batch
	specs  []aggSpec
	aggIdx map[*ir.Agg]int
	st     *foldState
	counts Vec     // st.rows as an int vector: what a COUNT reads
	keyAt  []int32 // keyAt[c]-1 is the typed key column of st.keys holding column c; 0: none
	keyBuf [16]int32
	w      *scratch // w.rs is the first rows of gsel: per table w.pos, filled on first use
	gsel   []int32
}

// bind points the stage at the groups gsel.
func (s *groupStage) bind(gsel []int32) {
	s.gsel = gsel
	rs := &s.w.rs
	rs.loc, rs.used = iota32[:len(gsel)], 0
	clear(rs.idx)
}

// col reads column c at the groups: a key is every row's cell, so the
// key column is the answer — a float key's canonical member, from the
// bits the index holds; any other column is read at each group's first
// row (an unbound one as the zero Value).
func (s *groupStage) col(c ir.ColID) vecOperand {
	if k := s.keyAt[c]; k > 0 {
		key := &s.st.keys.cols[k-1]
		if s.b.cols[c].kind != value.KindFloat {
			return vecOperand{vec: key, idx: s.gsel}
		}
		xs := make([]float64, len(s.gsel))
		for j, g := range s.gsel {
			xs[j] = math.Float64frombits(uint64(key.ints[g]))
		}
		return denseOperand(&Vec{kind: value.KindFloat, floats: xs})
	}
	rs := &s.w.rs
	if t := s.b.tabOf(c); s.b.cols[c] != nil && rs.idx[t] == nil {
		for len(s.w.pos) <= t {
			s.w.pos = append(s.w.pos, nil)
		}
		pos := room(s.w.pos[t], len(s.gsel))
		for j, g := range s.gsel {
			pos[j] = int32(s.b.phys(t, int(s.st.first[g])))
		}
		s.w.pos[t], rs.idx[t] = pos, pos
	}
	return rs.col(c)
}

// agg reads aggregate a at the groups: COUNT is the row counts, SUM, MIN
// or MAX its accumulator column in the stored kind, AVG its total over
// the count — one float division of the two numbers a rewriting's
// SUM(S)/SUM(N) divides.
func (s *groupStage) agg(a *ir.Agg) (vecOperand, error) {
	i, ok := s.aggIdx[a]
	if !ok {
		return vecOperand{}, fmt.Errorf("engine: aggregate %s not collected for this query", a.Func)
	}
	sp, ac := &s.specs[i], &s.st.accs[i]
	switch {
	case !sp.fold:
		return vecOperand{vec: &s.counts, idx: s.gsel}, nil
	case sp.fn == ir.AggAvg:
		xs := floatsOf(vecOperand{vec: &ac.vec, idx: s.gsel}, len(s.gsel))
		for j, g := range s.gsel {
			xs[j] = value.CanonFloat(xs[j] / float64(s.st.rows[g]))
		}
		return denseOperand(&Vec{kind: value.KindFloat, floats: xs}), nil
	}
	return vecOperand{vec: &ac.vec, idx: s.gsel}, nil
}

// n returns the number of groups bound.
func (s *groupStage) n() int { return len(s.gsel) }

// eachMorsel calls fn with the group ids a morsel at a time.
func eachMorsel(ids []int32, fn func(gsel []int32) error) error {
	for lo := 0; lo < len(ids); lo += morselRows {
		if err := fn(ids[lo:min(lo+morselRows, len(ids))]); err != nil {
			return err
		}
	}
	return nil
}

// assembleGroups is the output stage of an aggregation: HAVING and SELECT
// evaluated column-at-a-time over the merged groups, in first-appearance
// order, into typed result columns. It runs three passes over the groups,
// each a morsel of them at a time and, within a slice, one expression
// after the other — so of several failing expressions the error is that
// of the earliest pass, then slice, then expression, then group:
//
//   - every COUNT(arg) argument is evaluated at each group's first row: a
//     COUNT counts rows (no NULLs) but its argument must still surface
//     reference errors, for every group before any HAVING or SELECT error;
//   - HAVING refines each slice's group ids conjunct by conjunct (cmpSel,
//     the WHERE kernel), so a group an earlier conjunct rejected is
//     evaluated by nothing later and can raise nothing;
//   - SELECT is evaluated over the surviving groups, each slice of them
//     one chunk of every result column.
func assembleGroups(p *Plan, b *Batch, merged *foldState, w *scratch) (*ColTable, error) {
	q, specs, aggIdx := p.q, p.specs, p.aggIdx
	s := &groupStage{b: b, specs: specs, aggIdx: aggIdx, st: merged, w: w,
		counts: Vec{kind: value.KindInt, ints: merged.rows}}
	if s.keyAt = s.keyBuf[:]; len(b.cols) > len(s.keyBuf) {
		s.keyAt = make([]int32, len(b.cols))
	}
	w.rows(b, 0, 0) // sizes the row set to b's tables; bind and col fill it
	// The index keeps the bound GROUP BY columns, in order.
	k := int32(0)
	for _, gc := range q.GroupBy {
		if b.cols[gc] != nil {
			k++
			if s.keyAt[gc] == 0 {
				s.keyAt[gc] = k
			}
		}
	}
	// The groups still in the result: all of them, until HAVING has run.
	kp := getI32(merged.keys.n)
	defer putI32(kp)
	keep := *kp
	for g := range keep {
		keep[g] = int32(g)
	}

	var countArgs []ir.Expr
	for a := range specs {
		if sp := &specs[a]; sp.arg != nil && sp.fn == ir.AggCount {
			countArgs = append(countArgs, sp.arg)
		}
	}
	if len(countArgs) > 0 {
		err := eachMorsel(keep, func(gsel []int32) error {
			s.bind(gsel)
			for _, arg := range countArgs {
				if _, err := evalVop(arg, s); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	if len(q.Having) > 0 {
		kept := keep[:0] // closes up behind the slice being read
		err := eachMorsel(keep, func(gsel []int32) error {
			for _, h := range q.Having {
				s.bind(gsel)
				l, err := evalVop(h.L, s)
				if err != nil {
					return err
				}
				r, err := evalVop(h.R, s)
				if err != nil {
					return err
				}
				w.js = room(w.js, len(gsel))
				js, err := cmpSel(h.Op, l, r, iota32[:len(gsel)], w.js)
				if err != nil {
					return err
				}
				for k, j := range js { // in place: js ascends
					gsel[k] = gsel[j]
				}
				if gsel = gsel[:len(js)]; len(gsel) == 0 {
					break
				}
			}
			kept = append(kept, gsel...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		keep = kept
	}

	var one [1][]Vec
	parts := one[:0]
	if len(keep) > morselRows {
		parts = make([][]Vec, 0, morselCount(len(keep)))
	}
	err := eachMorsel(keep, func(gsel []int32) error {
		s.bind(gsel)
		part := make([]Vec, len(q.Select))
		for c, it := range q.Select {
			o, err := evalVop(it.Expr, s)
			if err != nil {
				return err
			}
			part[c] = o.cells(len(gsel))
		}
		parts = append(parts, part)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ct := resultTable(len(q.Select), len(keep), parts)
	// A bare SUM over floats keeps each kept group's exact total beside its
	// rounded cell (ColTable.Sums), moved out of the merged state, which
	// goes back to its pool without them; a second item naming the same
	// aggregate shares them.
	for c, it := range q.Select {
		a, ok := it.Expr.(*ir.Agg)
		if !ok || a.Func != ir.AggSum || len(merged.accs[aggIdx[a]].sums) == 0 {
			continue
		}
		if ct.sums == nil {
			ct.sums = map[int][]value.Sum{}
		}
		if d := slices.IndexFunc(q.Select[:c], func(it ir.SelectItem) bool { return it.Expr == a }); d >= 0 {
			ct.sums[c] = ct.sums[d]
			continue
		}
		ac, sums := &merged.accs[aggIdx[a]], make([]value.Sum, len(keep))
		for k, g := range keep {
			sums[k], ac.sums[g] = ac.sums[g], value.Sum{}
		}
		ct.sums[c] = sums
	}
	return ct, nil
}
