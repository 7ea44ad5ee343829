package maintain

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/value"
)

// TestKeysAgreeWithKeyEqual holds the counting state's keys to
// value.KeyEqual on the values that tell a key apart from a formatted
// string: an int column that a float widens mid-test while it holds 1
// (so 1 and 1.0 must stay one group and one multiset value), NaN, −0
// and +0 (every NaN one group, the zeros two), ±(2^53+1) beside 2^53
// (distinct, though their floats are not), and "" and "s" beside
// strings holding \x00, in two grouping columns (where a key that does
// not length-prefix a string runs one cell into the next) and behind a
// float one (where one that joins cells with \x00 merges ("x\x00sy", "")
// with ("x", "y\x00s")).
// Random insert, delete and update batches run over SUM, COUNT, AVG,
// MIN and MAX views and a join view; after each batch every view has
// exactly the groups rebuild derives from the tables, with the same
// multiplicities (GroupCounts), and each group's row equals rebuild's
// cell for cell.
func TestKeysAgreeWithKeyEqual(t *testing.T) {
	ctx := context.Background()
	big := int64(1<<53 + 1)
	cols := []string{"Id", "G", "K", "F", "B", "S", "S2", "A"}
	views := []string{
		"SELECT K, F, SUM(A), COUNT(A), AVG(A) FROM T GROUP BY K, F",
		"SELECT S, B, SUM(B), MIN(S), MAX(K) FROM T GROUP BY S, B",
		"SELECT F, MIN(B), MAX(B), AVG(K) FROM T GROUP BY F",
		"SELECT K, S, COUNT(Id), MAX(S), SUM(K) FROM T GROUP BY K, S",
		"SELECT S, S2, COUNT(A), MIN(S2) FROM T GROUP BY S, S2",
		"SELECT F, S, S2, COUNT(A), SUM(K) FROM T GROUP BY F, S, S2",
		"SELECT Label, SUM(A), MIN(S), MAX(B), COUNT(K) FROM T, U WHERE T.G = U.G GROUP BY Label",
	}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5}
	bigs := []int64{big, -big, 1 << 53, 0}
	strs := []string{"", "\x00", "a\x00b", "a", "\x00\x00", "a\x00", "s", "s\x00", "x\x00sy", "y\x00s", "x"}

	db := engine.NewDB()
	db.Put("T", engine.NewRelation(cols...))
	labels := engine.NewRelation("G", "Label")
	for g, l := range []string{"", "\x00", "x\x00", "x"} {
		labels.Add(value.Int(int64(g)), value.Str(l))
	}
	db.Put("U", labels)
	reg := ir.NewRegistry()
	source := ir.MapSource{"T": cols, "U": {"G", "Label"}}
	m := New(db, reg)
	names := make([]string, len(views))
	for i, sql := range views {
		names[i] = fmt.Sprintf("V%d", i)
		v, err := ir.NewViewDef(names[i], ir.MustBuild(sql, source))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
		if inc, err := m.TrackContext(ctx, names[i]); err != nil || !inc {
			t.Fatalf("%s: incremental=%v err=%v", sql, inc, err)
		}
	}

	rng := rand.New(rand.NewSource(33))
	id, widened := int64(0), false
	row := func() []value.Value {
		id++
		k := value.Int(int64(1 + rng.Intn(2)))
		if widened && rng.Intn(2) == 0 {
			k = value.Float(float64(1 + rng.Intn(2)))
		}
		return []value.Value{value.Int(id), value.Int(int64(rng.Intn(4))), k,
			value.Float(floats[rng.Intn(len(floats))]), value.Int(bigs[rng.Intn(len(bigs))]),
			value.Str(strs[rng.Intn(len(strs))]), value.Str(strs[rng.Intn(len(strs))]), value.Int(int64(rng.Intn(9) - 3))}
	}
	var live [][]value.Value
	for batch := 0; batch < 60; batch++ {
		var mut Mutation
		mut.Table = "T"
		switch n := 1 + rng.Intn(6); {
		case batch == 30:
			// 1.0 into the int column K, which holds 1: the column widens.
			r := row()
			r[2] = value.Float(1)
			mut.Inserts, widened = [][]value.Value{r}, true
		case batch == 20 || batch == 21:
			// ('x\x00sy', '') and then ('x', 'y\x00s'), under one F.
			pair := [2][2]string{{"x\x00sy", ""}, {"x", "y\x00s"}}[batch-20]
			r := row()
			r[3], r[5], r[6] = value.Float(1.5), value.Str(pair[0]), value.Str(pair[1])
			mut.Inserts = [][]value.Value{r}
		case batch < 8 || len(live) < n || rng.Intn(3) == 0:
			for range n {
				mut.Inserts = append(mut.Inserts, row())
			}
		default:
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			mut.Deletes, live = live[:n:n], live[n:]
			if rng.Intn(2) == 0 { // an update: as many new rows as old
				for _, old := range mut.Deletes {
					r := row()
					r[0] = old[0]
					mut.Inserts = append(mut.Inserts, r)
				}
			}
		}
		if err := m.ApplyContext(ctx, mut); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		live = append(live, mut.Inserts...)
		for _, name := range names {
			sameAsRebuild(t, m, name, batch)
		}
	}
	if tab, _, _ := db.Scan("T"); tab.NumRows() == 0 {
		t.Fatal("the batches emptied T")
	} else if kind, _, _, _ := tab.Cells(2, 0); kind != value.KindFloat {
		t.Fatalf("K holds %s, want FLOAT: the test never widened it", kind)
	}
}

// sameAsRebuild checks a tracked view's counting state and rows against
// what rebuild derives from the tables.
func sameAsRebuild(t *testing.T, m *Maintainer, name string, batch int) {
	t.Helper()
	st := m.tracked[name]
	tab, groups, err := m.rebuild(context.Background(), st, &overlayStorage{db: m.db})
	if err != nil {
		t.Fatal(err)
	}
	counts, _ := m.GroupCounts(name)
	if len(groups) != len(counts) || len(groups) != st.tab.NumRows() || tab.NumRows() != st.tab.NumRows() {
		t.Fatalf("batch %d, %s: %d groups and %d rows maintained, rebuild derives %d", batch, st.def.Def, len(counts), st.tab.NumRows(), len(groups))
	}
	for k, want := range groups {
		got, ok := st.groups[k]
		if !ok || counts[string(k)] != want.n {
			t.Fatalf("batch %d, %s: group %v has multiplicity %d, rebuild says %d", batch, st.def.Def, want.groupVals, counts[string(k)], want.n)
		}
		for c := range st.def.OutCols {
			if g, w := st.tab.Value(got.pos, c), tab.Value(want.pos, c); !value.KeyEqual(g, w) {
				t.Fatalf("batch %d, %s: group %v column %s is %v, rebuild says %v", batch, st.def.Def, want.groupVals, st.def.OutCols[c], g, w)
			}
		}
	}
}

// TestFindingATouchedGroupAllocatesNothing pins the hot path's lookup:
// once a batch has touched a group, finding it again for the next delta
// row builds its key in the pending state's buffer and allocates nothing
// (the key here is 36 bytes, past what a string conversion may keep on
// the stack).
func TestFindingATouchedGroupAllocatesNothing(t *testing.T) {
	m, _, _ := setup(t, "SELECT Txn_Id, Acct_Id, Day, Amount, COUNT(Txn_Id) FROM Txns GROUP BY Txn_Id, Acct_Id, Day, Amount")
	if _, err := m.TrackContext(context.Background(), "V"); err != nil {
		t.Fatal(err)
	}
	// A delta query's finer group: the four group columns, COUNT(*).
	res := engine.BuildColTable(&engine.Relation{Attrs: []string{"t", "a", "d", "x", "n"}, Tuples: [][]value.Value{
		{value.Int(3), value.Int(1 << 60), value.Int(7), value.Int(-7), value.Int(1)},
	}})
	p := &pending{st: m.tracked["V"]}
	if err := p.absorb(context.Background(), res, nil, nil); err != nil {
		t.Fatal(err)
	}
	cs := make([]cells, 5)
	for c := range cs {
		cs[c].kind, cs[c].ints, cs[c].floats, cs[c].strs = res.Cells(c, 0)
	}
	t0 := p.group(cs, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		if p.group(cs, 0) != t0 {
			t.Fatal("the lookup found another group")
		}
	}); allocs != 0 {
		t.Fatalf("finding a touched group allocated %.0f objects, want 0", allocs)
	}
}
