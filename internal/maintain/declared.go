package maintain

import (
	"fmt"
	"hash/maphash"
	"slices"

	"aggview/internal/engine"
	"aggview/internal/value"
)

// declared is one key, or functional dependency, of a base table. Its
// index counts the stored rows per 48-bit hash of their key cells
// (value.AppendKey, concatenated): a batch whose rows leave no hash with
// two rows cannot repeat a key value, and only the hashes that do are
// verified against the rows themselves. The maintainer's lock guards it.
type declared struct {
	table   string
	key, to []int    // column positions; to is nil for a key
	names   []string // the table's column names, for errors
	index   hashCounts
	seed    maphash.Seed
}

// DeclareKey makes the columns at positions key of table, which must
// hold no rows yet, a key (to nil) or the left-hand side of the
// functional dependency key -> to: from then on ApplyContext refuses,
// with a typed *engine.KeyError and nothing installed, a batch that
// would leave two rows agreeing on key (for an FD: and differing on to).
func (m *Maintainer) DeclareKey(table string, key, to []int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	tab, ok, _ := m.db.Scan(table)
	if !ok {
		return fmt.Errorf("maintain: unknown table %q", table)
	}
	if tab.NumRows() > 0 {
		return fmt.Errorf("maintain: %s holds rows; declare its keys before writing it", table)
	}
	if m.declared == nil {
		m.declared = map[string][]*declared{}
	}
	m.declared[table] = append(m.declared[table], &declared{table: table, key: key, to: to, names: tab.Attrs(), seed: maphash.MakeSeed()})
	return nil
}

// keysOf returns the table's declared keys: the columns of each
// declaration with no dependent columns.
func (m *Maintainer) keysOf(table string) [][]int {
	var keys [][]int
	for _, d := range m.declared[table] {
		if d.to == nil {
			keys = append(keys, d.key)
		}
	}
	return keys
}

// keyBatch is what one batch deletes from and inserts into a table with
// declared keys, across all its mutations of that table: the keys hold
// after the batch exactly when they hold of stored - deletes + inserts,
// stored being the table as committed.
type keyBatch struct {
	stored *engine.ColTable
	muts   []Mutation
	hashes []keyHashes // per declaration of the table, once checked
}

// deletes and inserts range over the batch's rows of either kind, in
// mutation order.
func (b *keyBatch) deletes(yield func([]value.Value) bool) { b.rows(yield, false) }
func (b *keyBatch) inserts(yield func([]value.Value) bool) { b.rows(yield, true) }

func (b *keyBatch) rows(yield func([]value.Value) bool, inserts bool) {
	for _, m := range b.muts {
		rows := m.Deletes
		if inserts {
			rows = m.Inserts
		}
		for _, r := range rows {
			if !yield(r) {
				return
			}
		}
	}
}

// hash is the 48-bit hash of row's cells at cols, and the key bytes it
// hashes; buf is scratch.
func (d *declared) hash(buf []byte, row []value.Value, cols []int) ([]byte, uint64) {
	buf = buf[:0]
	for _, c := range cols {
		buf = row[c].AppendKey(buf)
	}
	return buf, maphash.Bytes(d.seed, buf) >> 16
}

// keyHashes are a checked batch's key hashes, sorted: what its commit
// counts into the index.
type keyHashes struct{ ins, dels []uint64 }

// check refuses the batch b if it would leave two rows clashing on d:
// agreeing on the key (for an FD: and not on its dependent columns). A
// hash that the index (less the deleted rows) and the inserted rows give
// at most one row needs no more; the rows behind the others — a repeat,
// or a collision — are compared cell by cell (verify).
func (d *declared) check(b *keyBatch) (keyHashes, error) {
	var buf []byte
	var nIns, nDel int
	for _, m := range b.muts {
		nIns, nDel = nIns+len(m.Inserts), nDel+len(m.Deletes)
	}
	kh := keyHashes{make([]uint64, 0, nIns), make([]uint64, 0, nDel)}
	for r := range b.inserts {
		var h uint64
		buf, h = d.hash(buf, r, d.key)
		kh.ins = append(kh.ins, h)
	}
	for r := range b.deletes {
		var h uint64
		buf, h = d.hash(buf, r, d.key)
		kh.dels = append(kh.dels, h)
	}
	slices.Sort(kh.ins)
	slices.Sort(kh.dels)
	var suspect []uint64
	for i := 0; i < len(kh.ins); {
		h, n := kh.ins[i], int(d.index.count(kh.ins[i]))
		for ; i < len(kh.ins) && kh.ins[i] == h; i++ {
			n++
		}
		for k, _ := slices.BinarySearch(kh.dels, h); k < len(kh.dels) && kh.dels[k] == h; k++ {
			n--
		}
		if n > 1 {
			suspect = append(suspect, h)
		}
	}
	if len(suspect) > 0 {
		if err := d.verify(b, suspect); err != nil {
			return keyHashes{}, err
		}
	}
	return kh, nil
}

// verify counts the rows behind the suspect hashes (sorted) by their
// key bytes and, for an FD, their dependent bytes: every stored row with
// one, less the deleted rows, plus the inserted ones. The first inserted
// row whose group then holds two rows (for an FD: rows of two dependent
// values) is refused.
func (d *declared) verify(b *keyBatch, suspect []uint64) error {
	var buf []byte
	groups := map[string]map[string]int{} // key bytes -> dependent bytes ("" for a key) -> rows
	group := func(row []value.Value) (map[string]int, string) {
		var h uint64
		buf, h = d.hash(buf, row, d.key)
		if _, ok := slices.BinarySearch(suspect, h); !ok {
			return nil, ""
		}
		g := groups[string(buf)]
		if g == nil {
			g = map[string]int{}
			groups[string(buf)] = g
		}
		to := ""
		if d.to != nil {
			buf, _ = d.hash(buf, row, d.to)
			to = string(buf)
		}
		return g, to
	}
	tally := func(row []value.Value, by int) {
		if g, to := group(row); g != nil {
			g[to] += by
		}
	}
	row, cols := make([]value.Value, len(d.names)), append(slices.Clip(d.key), d.to...)
	for i := 0; i < b.stored.NumRows(); i++ {
		for _, c := range cols {
			row[c] = b.stored.Value(i, c)
		}
		tally(row, 1)
	}
	for r := range b.deletes {
		tally(r, -1)
	}
	for r := range b.inserts {
		tally(r, 1)
	}
	for r := range b.inserts {
		g, _ := group(r)
		clash := 0 // rows for a key; dependent values with rows for an FD
		for _, n := range g {
			switch {
			case n <= 0:
			case d.to == nil:
				clash += n
			default:
				clash++
			}
		}
		if clash > 1 {
			err := &engine.KeyError{Table: d.table}
			for _, c := range d.key {
				err.Key, err.Value = append(err.Key, d.names[c]), append(err.Value, r[c])
			}
			for _, c := range d.to {
				err.To = append(err.To, d.names[c])
			}
			return err
		}
	}
	return nil
}

// commit counts a batch's key hashes into the index once it has been
// applied. A deleted and an inserted copy of one hash cancel first: an
// UPDATE that leaves a row's key alone changes no count.
func (d *declared) commit(kh keyHashes) {
	ins, dels := kh.ins[:0], kh.dels[:0]
	for i, j := 0, 0; i < len(kh.ins) || j < len(kh.dels); {
		switch {
		case j == len(kh.dels) || i < len(kh.ins) && kh.ins[i] < kh.dels[j]:
			ins = append(ins, kh.ins[i])
			i++
		case i == len(kh.ins) || kh.dels[j] < kh.ins[i]:
			dels = append(dels, kh.dels[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	for _, h := range dels {
		d.index.add(h, -1)
	}
	for _, h := range ins {
		d.index.add(h, 1)
	}
}

// hashCounts is a multiset of 48-bit hashes: entries hash<<16 | count,
// kept sorted in blocks of at most blockCap entries. Block b holds the
// hashes from fences[b] (0 for the first block) up to the next fence; a
// lookup searches the fences, one small array, and then one block. A
// write moves entries within one block, and a full block splits in two,
// so the index grows by a block at a time rather than by copies of
// itself. A count that reaches many (0xffff) stays there: the index may
// then over-count a hash, which costs a verify, but never under-counts
// one.
type hashCounts struct {
	blocks [][]uint64
	fences []uint64
	n      int // entries
}

const (
	blockCap = 512
	many     = 1<<16 - 1
)

// find returns the block that holds h, or would, and h's position in it.
// Entries carry a count of at least 1, so h<<16 sorts before h's entry
// and after every smaller hash's.
func (s *hashCounts) find(h uint64) (b, i int, ok bool) {
	if len(s.blocks) == 0 {
		return 0, 0, false
	}
	b, found := slices.BinarySearch(s.fences, h)
	if !found {
		b--
	}
	blk := s.blocks[b]
	i, _ = slices.BinarySearch(blk, h<<16)
	return b, i, i < len(blk) && blk[i]>>16 == h
}

func (s *hashCounts) count(h uint64) int {
	if b, i, ok := s.find(h); ok {
		return int(s.blocks[b][i] & many)
	}
	return 0
}

// add moves h's count by n (±1), inserting or dropping its entry.
func (s *hashCounts) add(h uint64, n int) {
	b, i, ok := s.find(h)
	switch {
	case ok:
		blk := s.blocks[b]
		c := int(blk[i] & many)
		if c == many {
			return
		}
		if c += n; c > 0 {
			blk[i] = h<<16 | uint64(c)
			return
		}
		s.n--
		if blk = slices.Delete(blk, i, i+1); len(blk) > 0 {
			s.blocks[b] = blk
		} else {
			// The previous block takes the range over; a new first block
			// starts from 0.
			s.blocks, s.fences = slices.Delete(s.blocks, b, b+1), slices.Delete(s.fences, b, b+1)
			if b == 0 && len(s.fences) > 0 {
				s.fences[0] = 0
			}
		}
	case n <= 0:
		// Not counted: nothing to drop.
	case len(s.blocks) == 0:
		s.n++
		s.blocks, s.fences = [][]uint64{append(make([]uint64, 0, blockCap), h<<16|1)}, []uint64{0}
	default:
		s.n++
		blk := slices.Insert(s.blocks[b], i, h<<16|1)
		s.blocks[b] = blk
		if len(blk) >= blockCap {
			upper := append(make([]uint64, 0, blockCap), blk[blockCap/2:]...)
			s.blocks[b] = blk[:blockCap/2]
			s.blocks = slices.Insert(s.blocks, b+1, upper)
			s.fences = slices.Insert(s.fences, b+1, upper[0]>>16)
		}
	}
}
