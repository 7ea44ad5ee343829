package maintain

import (
	"context"
	"reflect"
	"testing"

	"aggview/internal/budget"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// TestAbortedBatchWritesNoCell is sharing test (c): a batch aborted at
// every maintenance site leaves the installed versions, the counting
// state and the spare capacity behind the stored columns untouched, so
// a different write afterwards — and then the retry — produce exactly
// their own rows.
func TestAbortedBatchWritesNoCell(t *testing.T) {
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), COUNT(Amount), MAX(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.TrackContext(context.Background(), "V"); err != nil {
		t.Fatal(err)
	}
	var want [][]value.Value
	for i := int64(0); i < 40; i++ {
		want = append(want, txn(i, i%5, 1, 10+i))
	}
	// Two appends, so the stored vectors carry spare capacity an
	// in-place extension would use.
	if err := m.InsertContext(context.Background(), "Txns", want[:39]...); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertContext(context.Background(), "Txns", want[39]); err != nil {
		t.Fatal(err)
	}

	mut := Mutation{
		Table:   "Txns",
		Deletes: [][]value.Value{want[3], want[8]},
		Inserts: [][]value.Value{txn(100, 1, 2, 500), txn(101, 9, 2, 1), txn(102, 2, 2, 7)},
	}
	baseTab, _, _ := db.Scan("Txns")
	viewTab, _, _ := db.Scan("V")
	counts, _ := m.GroupCounts("V")
	aborted := 0
	for k := int64(1); k <= 2; k++ { // the view's delta, then the commit point
		in := faultinject.New(faultinject.SiteMaintain, k)
		ctx, cancel := in.Arm(context.Background())
		err := m.ApplyContext(ctx, mut)
		cancel()
		if !in.Fired() {
			t.Fatalf("k=%d: the batch has fewer maintenance sites than expected", k)
		}
		if !budget.IsCanceled(err) {
			t.Fatalf("k=%d: aborted batch returned %v", k, err)
		}
		aborted++
		if cur, _, _ := db.Scan("Txns"); cur != baseTab {
			t.Fatalf("k=%d: aborted batch installed a base version", k)
		}
		if cur, _, _ := db.Scan("V"); cur != viewTab {
			t.Fatalf("k=%d: aborted batch installed a view version", k)
		}
		if now, _ := m.GroupCounts("V"); !reflect.DeepEqual(now, counts) {
			t.Fatalf("k=%d: aborted batch changed the counting state", k)
		}
	}

	// A different write lands in the cells the aborted attempts would
	// have used; none of their rows may show.
	pinned := db.Snapshot()
	other := txn(200, 4, 3, 9)
	if err := m.InsertContext(context.Background(), "Txns", other); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("Txns")
	if !engine.ResultsEqualBag(got, &engine.Relation{Attrs: got.Attrs, Tuples: append(append([][]value.Value{}, want...), other)}) {
		t.Fatalf("after %d aborts and one insert the table is not pre-state + that insert:\n%s", aborted, got.Sorted())
	}
	check(t, m, db, reg)

	// The retry succeeds and yields the exact bag; the snapshot pinned
	// before it still reads the pre-state.
	if err := m.ApplyContext(context.Background(), mut); err != nil {
		t.Fatal(err)
	}
	final := append([][]value.Value{}, want[:3]...)
	final = append(final, want[4:8]...)
	final = append(final, want[9:]...)
	final = append(append(final, other), mut.Inserts...)
	got, _ = db.Get("Txns")
	if !engine.ResultsEqualBag(got, &engine.Relation{Attrs: got.Attrs, Tuples: final}) {
		t.Fatalf("retry did not yield the exact bag:\n%s", got.Sorted())
	}
	check(t, m, db, reg)
	old, _ := pinned.Relation("Txns")
	if !engine.ResultsEqualBag(old, &engine.Relation{Attrs: old.Attrs, Tuples: want}) {
		t.Fatal("a later batch changed what a pinned snapshot reads")
	}
}

// TestMutationPositionsAreAHint pins Mutation.At: positions that hold
// their rows are used as given, anything else — out of range, repeated,
// pointing at other rows — falls back to the value probe, so a wrong
// hint can never remove the wrong row.
func TestMutationPositionsAreAHint(t *testing.T) {
	ctx := context.Background()
	for name, at := range map[string][]int32{
		"exact":    {4, 1},
		"swapped":  {1, 4},
		"repeated": {4, 4},
		"range":    {4, 99},
		"short":    {4},
		"none":     nil,
	} {
		m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), MIN(Amount) FROM Txns GROUP BY Acct_Id")
		if _, err := m.TrackContext(ctx, "V"); err != nil {
			t.Fatal(err)
		}
		var rows [][]value.Value
		for i := int64(0); i < 6; i++ {
			rows = append(rows, txn(i, i%2, 1, 10*i))
		}
		if err := m.InsertContext(ctx, "Txns", rows...); err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Deletes: [][]value.Value{rows[4], rows[1]}, At: at}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _ := db.Get("Txns")
		want := &engine.Relation{Attrs: got.Attrs, Tuples: [][]value.Value{rows[0], rows[2], rows[3], rows[5]}}
		if !engine.ResultsEqualBag(got, want) {
			t.Fatalf("%s: wrong rows removed:\n%s", name, got.Sorted())
		}
		check(t, m, db, reg)
	}
}

// TestSameTableTwiceInOneBatch stages a second mutation of a table
// against the first one's staged result (a copy, never the installed
// arrays) and commits both as one version.
func TestSameTableTwiceInOneBatch(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), COUNT(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.TrackContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertContext(ctx, "Txns", txn(1, 0, 1, 10), txn(2, 1, 1, 20)); err != nil {
		t.Fatal(err)
	}
	before := db.Version("Txns")
	err := m.ApplyContext(ctx,
		Mutation{Table: "Txns", Inserts: [][]value.Value{txn(3, 0, 1, 30)}},
		Mutation{Table: "Txns", Deletes: [][]value.Value{txn(3, 0, 1, 30), txn(1, 0, 1, 10)}, Inserts: [][]value.Value{txn(4, 1, 1, 40)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("Txns")
	want := &engine.Relation{Attrs: got.Attrs, Tuples: [][]value.Value{txn(2, 1, 1, 20), txn(4, 1, 1, 40)}}
	if !engine.ResultsEqualBag(got, want) {
		t.Fatalf("two mutations of one table:\n%s", got.Sorted())
	}
	if db.Version("Txns") != before+1 {
		t.Fatalf("batch installed %d versions of Txns, want 1", db.Version("Txns")-before)
	}
	check(t, m, db, reg)
}

// TestGroupsTouchedCounter pins the write-path observability: a batch
// reports the groups it patched, not the groups the view has.
func TestGroupsTouchedCounter(t *testing.T) {
	ctx := context.Background()
	m, _, _ := setup(t, "SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id")
	m.Metrics = obs.NewMetrics()
	if _, err := m.TrackContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	var rows [][]value.Value
	for i := int64(0); i < 50; i++ {
		rows = append(rows, txn(i, i, 1, i))
	}
	if err := m.InsertContext(ctx, "Txns", rows...); err != nil {
		t.Fatal(err)
	}
	touched := m.Metrics.Volatile("maintain.groups.touched")
	base := touched.Load()
	if err := m.InsertContext(ctx, "Txns", txn(100, 7, 1, 1), txn(101, 7, 1, 1), txn(102, 9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := touched.Load() - base; got != 2 {
		t.Fatalf("maintain.groups.touched advanced by %d for a batch over 2 of 50 groups", got)
	}
}
