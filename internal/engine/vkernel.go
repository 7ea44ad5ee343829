package engine

import (
	"context"
	"fmt"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// cmpMask encodes a comparison operator as the set of orderings it
// keeps under value.Compare: bit 0 when the left cell orders below the
// right one, bit 1 when they are equal, bit 2 when it orders above. The
// float and mixed-kind kernels and the chunk test resolve the operator
// to its mask once per vector and test one bit per row.
func cmpMask(op ir.Op) (uint, error) {
	switch op {
	case ir.OpEq:
		return 0b010, nil
	case ir.OpNeq:
		return 0b101, nil
	case ir.OpLt:
		return 0b001, nil
	case ir.OpLeq:
		return 0b011, nil
	case ir.OpGt:
		return 0b100, nil
	case ir.OpGeq:
		return 0b110, nil
	default:
		return 0, fmt.Errorf("engine: unknown operator %v", op)
	}
}

// keepBit returns 1 when mask keeps c, a value.Compare result.
func keepBit(mask uint, c int) int {
	return int(mask >> (1 + c) & 1)
}

// selFloatConst writes to out the row numbers j of sel whose cell
// xs[idx[j]] satisfies mask against y, and returns them. out needs room
// for len(sel) entries and may be sel itself.
func selFloatConst(mask uint, xs []float64, idx []int32, y float64, sel, out []int32) []int32 {
	out = out[:len(sel)]
	k := 0
	for _, j := range sel {
		out[k] = j
		k += keepBit(mask, value.CompareFloats(xs[idx[j]], y))
	}
	return out[:k]
}

// selCmpConst is the filter loop over the totally ordered domains — ints
// (and the 0/1 payload of bools) and strings: it writes to out the row
// numbers j of sel whose cell xs[idx[j]] satisfies op against y and
// returns them. The operator is switched on once per vector, so a row
// costs one comparison turned into a flag move. out needs room for
// len(sel) entries and may be sel itself; op has passed cmpMask.
func selCmpConst[T int64 | string](op ir.Op, xs []T, idx []int32, y T, sel, out []int32) []int32 {
	out = out[:len(sel)]
	k := 0
	switch op {
	case ir.OpEq:
		for _, j := range sel {
			out[k] = j
			if xs[idx[j]] == y {
				k++
			}
		}
	case ir.OpNeq:
		for _, j := range sel {
			out[k] = j
			if xs[idx[j]] != y {
				k++
			}
		}
	case ir.OpLt:
		for _, j := range sel {
			out[k] = j
			if xs[idx[j]] < y {
				k++
			}
		}
	case ir.OpLeq:
		for _, j := range sel {
			out[k] = j
			if xs[idx[j]] <= y {
				k++
			}
		}
	case ir.OpGt:
		for _, j := range sel {
			out[k] = j
			if xs[idx[j]] > y {
				k++
			}
		}
	case ir.OpGeq:
		for _, j := range sel {
			out[k] = j
			if xs[idx[j]] >= y {
				k++
			}
		}
	}
	return out[:k]
}

// selCmpCols is selCmpConst for a column-column predicate.
func selCmpCols[T int64 | string](op ir.Op, xs []T, xi []int32, ys []T, yi []int32, sel, out []int32) []int32 {
	out = out[:len(sel)]
	k := 0
	switch op {
	case ir.OpEq:
		for _, j := range sel {
			out[k] = j
			if xs[xi[j]] == ys[yi[j]] {
				k++
			}
		}
	case ir.OpNeq:
		for _, j := range sel {
			out[k] = j
			if xs[xi[j]] != ys[yi[j]] {
				k++
			}
		}
	case ir.OpLt:
		for _, j := range sel {
			out[k] = j
			if xs[xi[j]] < ys[yi[j]] {
				k++
			}
		}
	case ir.OpLeq:
		for _, j := range sel {
			out[k] = j
			if xs[xi[j]] <= ys[yi[j]] {
				k++
			}
		}
	case ir.OpGt:
		for _, j := range sel {
			out[k] = j
			if xs[xi[j]] > ys[yi[j]] {
				k++
			}
		}
	case ir.OpGeq:
		for _, j := range sel {
			out[k] = j
			if xs[xi[j]] >= ys[yi[j]] {
				k++
			}
		}
	}
	return out[:k]
}

// vecOperand is one side of a vectorized predicate or expression over a
// morsel's row set: a broadcast constant, or a vector read through an
// index — cell j is vec's cell idx[j]. A stored column read as it stands
// is the morsel's chunk under the rows' cells in it; one read through a
// selection is its only chunk under the selected rows or, when it has
// several, the gathered cells under the identity, like any vector
// computed for the morsel (iota32). ch is the stored chunk vec belongs
// to, whose recorded range bounds the cells (nil for a computed vector).
type vecOperand struct {
	vec     *Vec
	idx     []int32
	ch      *chunk
	c       value.Value
	isConst bool
}

// col reads column c of the set's batch over the row set. An unbound
// slot reads as the zero Value.
func (rs *rowSet) col(c ir.ColID) vecOperand {
	col := rs.b.cols[c]
	if col == nil {
		return vecOperand{c: value.Value{}, isConst: true}
	}
	switch sel := rs.idx[rs.b.tabOf(c)]; {
	case sel == nil:
		ch := col.chunks[rs.chunk]
		return vecOperand{vec: &ch.Vec, idx: rs.loc, ch: ch}
	case len(col.chunks) == 1:
		ch := col.chunks[0]
		return vecOperand{vec: &ch.Vec, idx: sel, ch: ch}
	default:
		return denseOperand(rs.gather(col, sel))
	}
}

// intRange returns a closed range holding every cell of an int or bool
// operand over at least one row: what storage recorded for the chunk
// when the operand is one (a bound, not the least one: the rows may be a
// selection of the chunk's), the cells' own minimum and maximum
// otherwise.
func (o *vecOperand) intRange() (lo, hi int64) {
	switch {
	case o.vec.kind == value.KindBool:
		return 0, 1
	case o.ch != nil && o.ch.ranged:
		return o.ch.lo.AsInt(), o.ch.hi.AsInt()
	}
	xs := o.vec.ints
	lo = xs[o.idx[0]]
	hi = lo
	for _, i := range o.idx[1:] {
		lo, hi = min(lo, xs[i]), max(hi, xs[i])
	}
	return lo, hi
}

// term reads a predicate term over the row set.
func (rs *rowSet) term(t ir.Term) vecOperand {
	if t.IsConst {
		return vecOperand{c: t.Val, isConst: true}
	}
	return rs.col(t.Col)
}

// agg is where a row set meets an aggregate: nowhere an expression over
// rows may hold one.
func (rs *rowSet) agg(a *ir.Agg) (vecOperand, error) {
	return vecOperand{}, fmt.Errorf("engine: aggregate %s in a non-aggregated context", a.Func)
}

// denseOperand wraps a vector computed for the morsel.
func denseOperand(v *Vec) vecOperand {
	return vecOperand{vec: v, idx: iota32[:v.Len()]}
}

// kindOf returns the operand's cell kind.
func (o vecOperand) kindOf() value.Kind {
	if o.isConst {
		return o.c.Kind()
	}
	return o.vec.kind
}

// Value boxes the operand's cell for row j.
func (o vecOperand) Value(j int) value.Value {
	if o.isConst {
		return o.c
	}
	return o.vec.Value(int(o.idx[j]))
}

func numericKind(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }

// predSel refines the row numbers sel through one predicate over the
// row set (cmpSel over the predicate's two terms).
func predSel(p ir.Pred, rs *rowSet, sel, out []int32) ([]int32, error) {
	return cmpSel(p.Op, rs.term(p.L), rs.term(p.R), sel, out)
}

// cmpSel refines the row numbers sel to those whose cells satisfy l op r,
// writing the survivors to out (which needs room for len(sel) entries
// and may be sel itself). The kernel dispatches on the operand kinds once
// and runs a tight typed loop. A WHERE conjunct's operands are its terms;
// a HAVING conjunct's are the two expressions evaluated over the groups.
func cmpSel(op ir.Op, l, r vecOperand, sel, out []int32) ([]int32, error) {
	if l.isConst && !r.isConst {
		op = op.Flip()
		l, r = r, l
	}
	mask, err := cmpMask(op)
	if err != nil {
		return nil, err
	}
	all := func(keep bool) []int32 {
		if !keep {
			return out[:0]
		}
		return out[:copy(out[:len(sel)], sel)]
	}
	if l.isConst { // both sides constant
		h, err := compare(op, l.c, r.c)
		if err != nil {
			return nil, err
		}
		return all(h), nil
	}

	lk, rk := l.kindOf(), r.kindOf()
	// Incomparable kinds decide the whole vector: compare()
	// returns (op == Neq) for every row.
	if lk != rk && !(numericKind(lk) && numericKind(rk)) {
		return all(op == ir.OpNeq), nil
	}

	if r.isConst {
		switch {
		case lk == value.KindInt && rk == value.KindInt:
			return selCmpConst(op, l.vec.ints, l.idx, r.c.AsInt(), sel, out), nil
		case lk == value.KindFloat && rk == value.KindFloat:
			return selFloatConst(mask, l.vec.floats, l.idx, r.c.AsFloat(), sel, out), nil
		case numericKind(lk): // an int against a float: compared exactly
			return selCmpMixed(mask, l, r, sel, out), nil
		case lk == value.KindString:
			return selCmpConst(op, l.vec.strs, l.idx, r.c.AsString(), sel, out), nil
		default: // bool vs bool: 0/1 payload in the int domain
			y := int64(0)
			if r.c.AsBool() {
				y = 1
			}
			return selCmpConst(op, l.vec.ints, l.idx, y, sel, out), nil
		}
	}

	switch {
	case lk == value.KindInt && rk == value.KindInt:
		return selCmpCols(op, l.vec.ints, l.idx, r.vec.ints, r.idx, sel, out), nil
	case lk == value.KindFloat && rk == value.KindFloat:
		out = out[:len(sel)]
		k := 0
		for _, j := range sel {
			out[k] = j
			k += keepBit(mask, value.CompareFloats(l.vec.floats[l.idx[j]], r.vec.floats[r.idx[j]]))
		}
		return out[:k], nil
	case numericKind(lk): // an int against a float
		return selCmpMixed(mask, l, r, sel, out), nil
	case lk == value.KindString:
		return selCmpCols(op, l.vec.strs, l.idx, r.vec.strs, r.idx, sel, out), nil
	default: // bool vs bool
		return selCmpCols(op, l.vec.ints, l.idx, r.vec.ints, r.idx, sel, out), nil
	}
}

// selCmpMixed is the filter loop of an int operand against a float one,
// l a column and r a column or a constant: each row's two cells are
// compared exactly, by value.Compare, with no rounding through float64.
func selCmpMixed(mask uint, l, r vecOperand, sel, out []int32) []int32 {
	out = out[:len(sel)]
	k := 0
	for _, j := range sel {
		out[k] = j
		k += keepBit(mask, value.Compare(l.Value(int(j)), r.Value(int(j))))
	}
	return out[:k]
}

// refine runs a conjunction over the row set and returns the surviving row
// numbers, ascending, in the worker's scratch (or the read-only identity
// when there is nothing to test). preds refine first; rest — conjuncts
// with an expression on a side, which only a DELETE's or UPDATE's WHERE
// has — then run as HAVING does over groups (assembleGroups): each is
// evaluated over the rows still selected and no others, so a row an
// earlier conjunct rejected raises nothing. rest needs a batch read as it
// stands (no selections), the one a row set narrows over.
func (w *scratch) refine(rs *rowSet, preds []ir.Pred, rest []ir.HPred) ([]int32, error) {
	sel := iota32[:rs.n()]
	for _, p := range preds {
		w.js = room(w.js, len(sel))
		next, err := predSel(p, rs, sel, w.js)
		if err != nil {
			return nil, err
		}
		sel = next
		if len(sel) == 0 {
			return sel, nil
		}
	}
	if len(rest) == 0 {
		return sel, nil
	}
	if len(preds) == 0 {
		w.js = room(w.js, len(sel))
		sel = w.js[:copy(w.js, sel)] // the identity is nobody's to compact
	}
	all := rs.loc
	defer func() { rs.loc = all }()
	for _, h := range rest {
		rs.loc = sel
		l, err := evalVop(h.L, rs)
		if err != nil {
			return nil, err
		}
		r, err := evalVop(h.R, rs)
		if err != nil {
			return nil, err
		}
		// The operands read through sel, so the survivors land in a
		// buffer of their own before sel closes up over them.
		w.gids = room(w.gids, len(sel))
		js, err := cmpSel(h.Op, l, r, iota32[:len(sel)], w.gids)
		if err != nil {
			return nil, err
		}
		for k, j := range js { // in place: js ascends
			sel[k] = sel[j]
		}
		if sel = sel[:len(js)]; len(sel) == 0 {
			break
		}
	}
	return sel, nil
}

// excludes reports whether no cell of the chunk can satisfy mask against
// the constant y, which the caller has checked orders against the
// chunk's kind: the chunk's range [lo, hi] under value.Compare holds a
// cell below y only if lo is below it, one equal to y only if y lies in
// the range, one above it only if hi is above it.
func (ch *chunk) excludes(mask uint, y value.Value) bool {
	if !ch.ranged {
		return false
	}
	lo, hi := value.Compare(ch.lo, y), value.Compare(ch.hi, y)
	return !(mask&0b001 != 0 && lo < 0 || mask&0b010 != 0 && lo <= 0 && hi >= 0 || mask&0b100 != 0 && hi > 0)
}

// scanMorsels returns the morsels a scan of b under preds has to read. b
// is a stored table read as it stands, so morsel m is chunk m of every
// column: a chunk whose recorded range excludes one of the leading
// conjuncts holds no row of the result and is skipped — never bound,
// never charged. Only a leading run of conjuncts comparing an int, float
// or string column with a constant that orders against it is consulted:
// those cannot raise, so skipping the ones before the excluding conjunct
// raises nothing the row loop would have, and the conjuncts behind it
// would not have run on an empty selection either (refine stops there).
// The walk ends at the first conjunct of any other shape.
func (ev *Evaluator) scanMorsels(b *Batch, preds []ir.Pred) morsels {
	type test struct {
		col  *column
		mask uint
		y    value.Value
	}
	var buf [4]test // on the stack: a scan rarely pushes down more
	tests := buf[:0]
	for _, p := range preds {
		op, l, r := p.Op, p.L, p.R
		if l.IsConst {
			op, l, r = op.Flip(), r, l
		}
		if l.IsConst || !r.IsConst {
			break
		}
		col, yk := b.cols[l.Col], r.Val.Kind()
		mask, err := cmpMask(op)
		if err != nil || col == nil || !(numericKind(col.kind) && numericKind(yk) || col.kind == value.KindString && yk == value.KindString) {
			break
		}
		tests = append(tests, test{col, mask, r.Val})
	}
	ms := allMorsels(b.n)
	nm := ms.count()
	for m := 0; m < nm && len(tests) > 0; m++ {
		skip := false
		for i := 0; i < len(tests) && !skip; i++ {
			skip = tests[i].col.chunks[m].excludes(tests[i].mask, tests[i].y)
		}
		switch {
		case skip && ms.live == nil:
			ms.live = make([]int32, m, nm)
			for i := range ms.live {
				ms.live[i] = int32(i)
			}
		case !skip && ms.live != nil:
			ms.live = append(ms.live, int32(m))
		}
	}
	mt := ev.metrics()
	mt.scanChunks.Add(int64(nm))
	mt.scanSkipped.Add(int64(nm - ms.count()))
	return ms
}

// filterSel evaluates a conjunction (preds, then rest: see refine) over
// the morsels ms of the batch, morsel-parallel, and returns the surviving
// logical row positions in input order. Each morsel refines its rows in worker
// scratch and commits the survivors to its own range of a buffer drawn
// through the task; the ranges are then closed up in morsel order, so
// the selection is byte-identical to the serial scan. It lives as long
// as the task's other index vectors (task.i32) and is charged as held.
// One morsel is refined inline, into a buffer of its survivors.
func (ev *Evaluator) filterSel(t *task, site string, b *Batch, preds []ir.Pred, rest []ir.HPred, ms morsels) ([]int32, error) {
	var stage []int32
	total := 0
	if ms.count() == 1 {
		lo, hi := ms.bounds(0)
		w := ev.inline()
		rs, js, err := w.filter(b, preds, rest, lo, hi)
		if err == nil {
			stage = t.i32(len(js))
			total = rs.positions(js, stage)
			err = t.charge(ev, site, int64(hi-lo))
		}
		putScratch(w)
		if err != nil {
			return nil, err
		}
	} else {
		stage = t.i32(ms.count() * morselRows)
		kept := make([]int32, ms.count())
		err := ev.morselRun(t, site, ev.workersFor(ms.rows()), ms, func(w *scratch, k, lo, hi int) error {
			rs, js, err := w.filter(b, preds, rest, lo, hi)
			if err == nil {
				kept[k] = int32(rs.positions(js, stage[k*morselRows:]))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		for k, c := range kept {
			total += copy(stage[total:], stage[k*morselRows:][:c])
		}
	}
	if err := t.allocBytes(ev, site, 4*int64(total)); err != nil {
		return nil, err
	}
	return stage[:total], nil
}

// filter refines the morsel [lo, hi) of b: its row set and the rows of
// it that survive (refine).
func (w *scratch) filter(b *Batch, preds []ir.Pred, rest []ir.HPred, lo, hi int) (*rowSet, []int32, error) {
	rs := w.rows(b, lo, hi)
	js, err := w.refine(rs, preds, rest)
	return rs, js, err
}

// positions writes the logical positions of the set's rows js to out
// and returns how many it wrote.
func (rs *rowSet) positions(js, out []int32) int {
	for i, j := range js {
		out[i] = rs.pos(j)
	}
	return len(js)
}

// ChangeContext finds the rows of ct a DELETE or UPDATE lowered to rc
// changes: their positions, ascending, the rows themselves (olds) and, for
// an UPDATE, their replacements (news; nil for a DELETE). The match is the
// chunk-skipping, morsel-parallel typed filter a scan uses (rc.Where
// prunes chunks and refines first, then rc.Rest: see refine), so a row
// some conjunct rejected is evaluated by no later one; the rows read are
// charged to the context's budget at site "match". The assignments are
// evaluated over the matched rows' old values by the projection's kernel
// (evalVop), a morsel of them at a time, one expression after the other.
// Only the matched rows are boxed, and the results are the caller's own:
// the selection's buffer goes back with the task.
func (ev *Evaluator) ChangeContext(ctx context.Context, ct *ColTable, rc *ir.RowChange) (pos []int32, olds, news [][]value.Value, err error) {
	b := &Batch{n: ct.n, cols: ct.cols}
	t := ev.newTask(ctx)
	defer t.release(0)
	sel, err := ev.filterSel(t, "match", b, rc.Where, rc.Rest, ev.scanMorsels(b, rc.Where))
	if err != nil {
		return nil, nil, nil, err
	}
	pos = append(make([]int32, 0, len(sel)), sel...)
	olds = ct.rows(pos)
	if len(rc.Set) == 0 {
		return pos, olds, nil, nil
	}
	news = ct.rows(pos)
	matched := b.with(len(pos), [][]int32{pos})
	w := getScratch()
	defer putScratch(w)
	for lo := 0; lo < len(pos); lo += morselRows {
		if err := t.poll(ev, "match"); err != nil {
			return nil, nil, nil, err
		}
		rs := w.rows(matched, lo, min(lo+morselRows, len(pos)))
		for i, e := range rc.Set {
			o, err := evalVop(e, rs)
			if err != nil {
				return nil, nil, nil, err
			}
			for j := 0; j < rs.n(); j++ {
				news[lo+j][rc.SetCols[i]] = o.Value(j)
			}
		}
	}
	return pos, olds, news, nil
}

// Select returns the positions, ascending, of ct's rows whose cells
// satisfy every conjunct of preds, whose column terms name ct's columns
// by position: the typed filter a scan refines each morsel with
// (refine), run serially, a morsel at a time. It is how the maintainer
// decides a one-table view's WHERE over a write's delta table without
// an engine query.
func (ct *ColTable) Select(preds []ir.Pred) ([]int32, error) {
	b := &Batch{n: ct.n, cols: ct.cols}
	w := getScratch()
	defer putScratch(w)
	var out []int32
	for lo := 0; lo < ct.n; lo += morselRows {
		rs := w.rows(b, lo, min(lo+morselRows, ct.n))
		js, err := w.refine(rs, preds, nil)
		if err != nil {
			return nil, err
		}
		for _, j := range js {
			out = append(out, rs.pos(j))
		}
	}
	return out, nil
}

// intsOf returns the operand's cells in the int64 domain as a dense
// slice of n cells, broadcasting constants. Only called when the operand
// is int-kind.
func intsOf(o vecOperand, n int) []int64 {
	if o.isConst {
		return fill(n, o.c.AsInt())
	}
	xs := make([]int64, n)
	for j, i := range o.idx {
		xs[j] = o.vec.ints[i]
	}
	return xs
}

// floatsOf is intsOf in the float64 domain, widening int vectors. Only
// called when the operand is numeric.
func floatsOf(o vecOperand, n int) []float64 {
	if o.isConst {
		return fill(n, o.c.AsFloat())
	}
	xs := make([]float64, n)
	switch {
	case o.vec.kind == value.KindFloat:
		for j, i := range o.idx {
			xs[j] = o.vec.floats[i]
		}
	default:
		for j, i := range o.idx {
			xs[j] = float64(o.vec.ints[i])
		}
	}
	return xs
}

// cells returns the operand's n cells as a vector a result may keep. An
// operand that reads a whole stored chunk as it stands — the chunk's n
// cells under the identity — hands over the chunk's own vector, capacity
// clipped to its length: stored cells are never rewritten, and an append
// to the result's vector moves it out rather than writing the spare
// cells a later version of the table may fill (storage.go). Any other
// operand — a selection of a chunk, a pooled accumulator column, a
// worker's scratch — is copied into a vector of its own.
func (o vecOperand) cells(n int) Vec {
	if o.isConst {
		return broadcast(o.c, n)
	}
	if o.ch != nil && n > 0 && n == o.vec.Len() && len(o.idx) == n && &o.idx[0] == &iota32[0] {
		v := Vec{kind: o.vec.kind}
		switch v.kind {
		case value.KindFloat:
			v.floats = o.vec.floats[:n:n]
		case value.KindString:
			v.strs = o.vec.strs[:n:n]
		default:
			v.ints = o.vec.ints[:n:n]
		}
		return v
	}
	v := Vec{kind: o.vec.kind}
	switch v.kind {
	case value.KindFloat:
		v.floats = floatsOf(o, n)
	case value.KindString:
		v.strs = make([]string, n)
		for j, i := range o.idx[:n] {
			v.strs[j] = o.vec.strs[i]
		}
	default:
		v.ints = intsOf(o, n)
	}
	return v
}

// leaves resolves the leaves of an expression over the rows it is
// evaluated on — a column, an aggregate — and says how many rows that
// is: a morsel's row set (rowSet) or the output stage's groups
// (groupStage). evalVop walks the expression above them.
type leaves interface {
	col(c ir.ColID) vecOperand
	agg(a *ir.Agg) (vecOperand, error)
	n() int
}

// evalVop evaluates an expression over the rows at resolves its leaves
// on, into an operand: a column read in place through the rows' indices,
// a broadcast constant, or a vector computed for them — arithmetic runs
// as typed loops. Only those rows are evaluated, so a row a fused filter
// dropped can raise nothing.
func evalVop(e ir.Expr, at leaves) (vecOperand, error) {
	switch x := e.(type) {
	case *ir.ColRef:
		return at.col(x.Col), nil
	case *ir.Const:
		return vecOperand{c: x.Val, isConst: true}, nil
	case *ir.Arith:
		l, err := evalVop(x.L, at)
		if err != nil {
			return vecOperand{}, err
		}
		r, err := evalVop(x.R, at)
		if err != nil {
			return vecOperand{}, err
		}
		return arithVop(x.Op, l, r, at.n())
	case *ir.Agg:
		return at.agg(x)
	default:
		return vecOperand{}, fmt.Errorf("engine: unknown expression %T", e)
	}
}

// arithVop applies one arithmetic operator over two operands of n rows.
func arithVop(op ir.ArithOp, l, r vecOperand, n int) (vecOperand, error) {
	if l.isConst && r.isConst {
		v, err := applyArith(op, l.c, r.c)
		if err != nil {
			return vecOperand{}, err
		}
		return vecOperand{c: v, isConst: true}, nil
	}
	lk, rk := l.kindOf(), r.kindOf()
	if !numericKind(lk) || !numericKind(rk) {
		// A non-numeric operand fails every row alike: the value
		// package's error for the first, which a row loop would raise.
		if n == 0 {
			return denseOperand(&Vec{}), nil
		}
		_, err := applyArith(op, l.Value(0), r.Value(0))
		return vecOperand{}, err
	}
	if op != ir.ArithDiv && lk == value.KindInt && rk == value.KindInt {
		// Int arithmetic refuses to wrap (value.OverflowError): each loop
		// ORs a word that is non-zero on a row whose exact result int64
		// cannot hold, and tests it once.
		out, ra := intsOf(l, n), intsOf(r, n)
		var ov, k int64
		switch op {
		case ir.ArithAdd:
			for j, b := range ra {
				out[j], k = value.AddWide(out[j], b)
				ov |= k
			}
		case ir.ArithSub:
			for j, b := range ra {
				out[j], k = value.SubWide(out[j], b)
				ov |= k
			}
		default: // ir.ArithMul
			for j, b := range ra {
				a := out[j]
				out[j] = a * b
				ov |= value.MulHi(a, b) ^ out[j]>>63
			}
		}
		if ov != 0 {
			return vecOperand{}, &value.OverflowError{Op: op.String()[0]}
		}
		return denseOperand(&Vec{kind: value.KindInt, ints: out}), nil
	}
	out, ra := floatsOf(l, n), floatsOf(r, n)
	switch op {
	case ir.ArithAdd:
		for j := range out {
			out[j] += ra[j]
		}
	case ir.ArithSub:
		for j := range out {
			out[j] -= ra[j]
		}
	case ir.ArithMul:
		for j := range out {
			out[j] *= ra[j]
		}
	default: // ir.ArithDiv: division always yields a float (value.Div)
		for j := range out {
			d := ra[j]
			//aggvet:floateq division-by-zero guard mirrors value.Div: only an exactly-zero divisor is an error, near-zero must divide
			if d == 0 {
				_, err := value.Div(value.Float(out[j]), value.Float(d))
				return vecOperand{}, err
			}
			out[j] /= d
		}
	}
	return denseOperand(&Vec{kind: value.KindFloat, floats: out}), nil
}
