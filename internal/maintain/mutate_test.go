package maintain

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"aggview/internal/budget"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
	"aggview/internal/value"
)

func TestDeleteAndUpdatePropagate(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), COUNT(Amount), MIN(Amount), MAX(Amount) FROM Txns GROUP BY Acct_Id")
	if inc, err := m.TrackContext(ctx, "V"); err != nil || !inc {
		t.Fatalf("track: inc=%v err=%v", inc, err)
	}
	if err := m.InsertContext(ctx, "Txns", txn(1, 0, 1, 10), txn(2, 0, 1, 30), txn(3, 1, 1, 7)); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)

	// Deleting the extremum forces a re-scan of the surviving value
	// multiset: MAX must fall back from 30 to 10.
	if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Deletes: [][]value.Value{txn(2, 0, 1, 30)}}); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
	got, _ := db.Get("V")
	for _, row := range got.Tuples {
		if row[0].AsInt() == 0 && row[4].AsInt() != 10 {
			t.Fatalf("MAX retraction not rescanned: %s", got)
		}
	}

	// An update is a delete+insert in one atomic batch.
	if err := m.ApplyContext(ctx, Mutation{
		Table:   "Txns",
		Deletes: [][]value.Value{txn(3, 1, 1, 7)},
		Inserts: [][]value.Value{txn(3, 1, 1, 70)},
	}); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)

	// Deleting a group's last row removes the group entirely.
	if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Deletes: [][]value.Value{txn(3, 1, 1, 70)}}); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
	got, _ = db.Get("V")
	if got.Len() != 1 {
		t.Fatalf("expected the acct-1 group to disappear: %s", got)
	}
}

func TestDeleteAbsentRowIsCleanError(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.TrackContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertContext(ctx, "Txns", txn(1, 0, 1, 10)); err != nil {
		t.Fatal(err)
	}
	err := m.ApplyContext(ctx, Mutation{Table: "Txns", Deletes: [][]value.Value{txn(99, 9, 9, 9)}})
	if err == nil {
		t.Fatal("expected an error deleting an absent row")
	}
	// The failed batch must not have touched anything.
	check(t, m, db, reg)
	rel, _ := db.Get("Txns")
	if rel.Len() != 1 {
		t.Fatalf("base table changed by failed delete: %s", rel)
	}
}

// TestIncrementalShapes pins the view shapes that stay incremental
// under counting maintenance, and asserts the maintain.fallback.full
// counter fires exactly for the recompute-based ones (satellite: the
// old code recomputed silently).
func TestIncrementalShapes(t *testing.T) {
	ctx := context.Background()
	shapes := []struct {
		sql         string
		incremental bool
	}{
		{"SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id", true},
		{"SELECT Acct_Id, COUNT(Amount) FROM Txns GROUP BY Acct_Id", true},
		{"SELECT Acct_Id, AVG(Amount) FROM Txns GROUP BY Acct_Id", true},
		{"SELECT Acct_Id, MIN(Amount), MAX(Amount) FROM Txns GROUP BY Acct_Id", true},
		{"SELECT Acct_Id, SUM(Amount + Amount) FROM Txns GROUP BY Acct_Id", true},
		{"SELECT Branch, SUM(Amount) FROM Txns, Accounts WHERE Txns.Acct_Id = Accounts.Acct_Id GROUP BY Branch", true},
		{"SELECT Txn_Id, Amount FROM Txns WHERE Amount > 10", true},
		{"SELECT SUM(Amount) FROM Txns", true},
		// Not delta-monotone or not expressible as counting deltas:
		{"SELECT DISTINCT Acct_Id FROM Txns", false},
		{"SELECT Acct_Id, COUNT(Amount) FROM Txns GROUP BY Acct_Id HAVING COUNT(Amount) > 1", false},
		{"SELECT Acct_Id, MIN(Amount + Amount) FROM Txns GROUP BY Acct_Id", false},
	}
	for _, sh := range shapes {
		t.Run(sh.sql, func(t *testing.T) {
			m, db, reg := setup(t, sh.sql)
			metrics := obs.NewMetrics()
			m.Metrics = metrics
			inc, err := m.TrackContext(ctx, "V")
			if err != nil {
				t.Fatal(err)
			}
			if inc != sh.incremental {
				t.Fatalf("incremental=%v, want %v", inc, sh.incremental)
			}
			if err := m.ApplyContext(ctx, Mutation{
				Table:   "Txns",
				Inserts: [][]value.Value{txn(1, 0, 1, 20), txn(2, 1, 2, 40)},
			}); err != nil {
				t.Fatal(err)
			}
			if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Deletes: [][]value.Value{txn(1, 0, 1, 20)}}); err != nil {
				t.Fatal(err)
			}
			check(t, m, db, reg)
			falls := metrics.Volatile("maintain.fallback.full").Load()
			if sh.incremental && falls != 0 {
				t.Fatalf("incremental shape recomputed %d times", falls)
			}
			if !sh.incremental && falls == 0 {
				t.Fatal("recompute fallback not counted")
			}
		})
	}
}

// TestSelfJoinStillRecomputes pins the per-table fallback: a self-join
// over the mutated table has delta cross terms, so it recomputes (and
// says so on the metric).
func TestSelfJoinStillRecomputes(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT T1.Acct_Id, SUM(T2.Amount) FROM Txns T1, Txns T2 WHERE T1.Txn_Id = T2.Txn_Id GROUP BY T1.Acct_Id")
	metrics := obs.NewMetrics()
	m.Metrics = metrics
	if _, err := m.TrackContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Inserts: [][]value.Value{txn(1, 0, 1, 5)}}); err != nil {
		t.Fatal(err)
	}
	check(t, m, db, reg)
	if metrics.Volatile("maintain.fallback.full").Load() == 0 {
		t.Fatal("self-join mutation should count a full-recompute fallback")
	}
}

// TestInsertDeleteIdentity is the delta-algebra property test:
// inserting a batch and then deleting the same batch is the identity on
// the multiplicity counts (and on the materialization).
func TestInsertDeleteIdentity(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), COUNT(Amount), MIN(Amount), AVG(Amount) FROM Txns GROUP BY Acct_Id")
			m.Workers = workers
			if _, err := m.TrackContext(ctx, "V"); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			var seedRows [][]value.Value
			for i := 0; i < 30; i++ {
				seedRows = append(seedRows, txn(int64(i), rng.Int63n(4), rng.Int63n(5), rng.Int63n(50)))
			}
			if err := m.InsertContext(ctx, "Txns", seedRows...); err != nil {
				t.Fatal(err)
			}
			before, _ := m.GroupCounts("V")
			beforeRel, _ := db.Get("V")
			beforeCopy := &engine.Relation{Attrs: beforeRel.Attrs, Tuples: beforeRel.Tuples}

			for trial := 0; trial < 25; trial++ {
				var batch [][]value.Value
				for i := 0; i < 1+rng.Intn(6); i++ {
					batch = append(batch, txn(int64(1000+trial*10+i), rng.Int63n(4), rng.Int63n(5), rng.Int63n(50)))
				}
				if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Inserts: batch}); err != nil {
					t.Fatal(err)
				}
				if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Deletes: batch}); err != nil {
					t.Fatal(err)
				}
				after, _ := m.GroupCounts("V")
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("insert∘delete changed multiplicity counts:\nbefore %v\nafter  %v", before, after)
				}
				got, _ := db.Get("V")
				if !engine.ResultsEqualBag(got, beforeCopy) {
					t.Fatalf("insert∘delete changed the materialization")
				}
				check(t, m, db, reg)
			}
		})
	}
}

// TestBatchedEqualsSerialDeltas is the second delta-algebra property:
// one batched ApplyContext call is equivalent to applying the same
// mutations one at a time, at both worker counts.
func TestBatchedEqualsSerialDeltas(t *testing.T) {
	ctx := context.Background()
	viewSQL := "SELECT Branch, SUM(Amount), COUNT(Amount), MAX(Amount) FROM Txns, Accounts WHERE Txns.Acct_Id = Accounts.Acct_Id GROUP BY Branch"
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var muts []Mutation
			var pool [][]value.Value
			ids := int64(0)
			for i := 0; i < 8; i++ {
				var ins [][]value.Value
				for j := 0; j < 1+rng.Intn(4); j++ {
					ids++
					row := txn(ids, rng.Int63n(6), rng.Int63n(5), rng.Int63n(40))
					ins = append(ins, row)
					pool = append(pool, row)
				}
				muts = append(muts, Mutation{Table: "Txns", Inserts: ins})
				if i >= 2 && len(pool) > 0 {
					// Delete a row inserted by an earlier mutation of the
					// same batch (each row at most once).
					j := rng.Intn(len(pool))
					muts = append(muts, Mutation{Table: "Txns", Deletes: [][]value.Value{pool[j]}})
					pool = append(pool[:j:j], pool[j+1:]...)
				}
			}

			mBatch, dbBatch, _ := setup(t, viewSQL)
			mBatch.Workers = workers
			if _, err := mBatch.TrackContext(ctx, "V"); err != nil {
				t.Fatal(err)
			}
			if err := mBatch.ApplyContext(ctx, muts...); err != nil {
				t.Fatal(err)
			}

			mSerial, dbSerial, regSerial := setup(t, viewSQL)
			mSerial.Workers = workers
			if _, err := mSerial.TrackContext(ctx, "V"); err != nil {
				t.Fatal(err)
			}
			for _, mut := range muts {
				if err := mSerial.ApplyContext(ctx, mut); err != nil {
					t.Fatal(err)
				}
			}
			check(t, mSerial, dbSerial, regSerial)

			got, _ := dbBatch.Get("V")
			want, _ := dbSerial.Get("V")
			if !engine.ResultsEqualBag(got, want) {
				t.Fatalf("batched vs serial deltas diverged:\nbatched:\n%s\nserial:\n%s", got.Sorted(), want.Sorted())
			}
			cb, _ := mBatch.GroupCounts("V")
			cs, _ := mSerial.GroupCounts("V")
			if !reflect.DeepEqual(cb, cs) {
				t.Fatalf("batched vs serial multiplicities diverged: %v vs %v", cb, cs)
			}
		})
	}
}

// TestSnapshotIsolationConcurrentRefresh asserts that a reader pinning
// an engine.Snapshot never observes a half-applied batch: on every
// pinned version, the materialization bag-equals a direct evaluation of
// the view definition over the same pinned base tables. The refresher
// goroutine is joined before the test returns.
func TestSnapshotIsolationConcurrentRefresh(t *testing.T) {
	ctx := context.Background()
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), COUNT(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.TrackContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertContext(ctx, "Txns", txn(1, 0, 1, 10), txn(2, 1, 1, 20)); err != nil {
		t.Fatal(err)
	}
	v, _ := reg.Get("V")

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		id := int64(100)
		var live [][]value.Value
		for i := 0; i < 120; i++ {
			var mut Mutation
			mut.Table = "Txns"
			if len(live) > 4 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live))
				mut.Deletes = [][]value.Value{live[j]}
				live = append(live[:j:j], live[j+1:]...)
			} else {
				id++
				row := txn(id, rng.Int63n(4), rng.Int63n(5), rng.Int63n(30))
				mut.Inserts = [][]value.Value{row}
				live = append(live, row)
			}
			if err := m.ApplyContext(ctx, mut); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				snap := db.Snapshot()
				pinned, ok := snap.Relation("V")
				if !ok {
					errs <- fmt.Errorf("snapshot lost the materialization")
					return
				}
				ev := engine.NewEvaluator(db, nil)
				ev.Store = snap
				direct, err := ev.ExecContext(ctx, v.Def)
				if err != nil {
					errs <- err
					return
				}
				if !engine.ResultsEqualBag(pinned, direct) {
					errs <- fmt.Errorf("reader observed a half-applied batch:\npinned:\n%s\ndirect:\n%s", pinned.Sorted(), direct.Sorted())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check(t, m, db, reg)
}

// TestFaultInjectMaintainAtomicBatch arms the cancellation injector at
// the maintenance delta-application site for every k until the batch
// survives, asserting the exact-state-or-clean-typed-error contract:
// an aborted batch leaves both the base table and the materialization
// untouched.
func TestFaultInjectMaintainAtomicBatch(t *testing.T) {
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), MIN(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.TrackContext(context.Background(), "V"); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertContext(context.Background(), "Txns", txn(1, 0, 1, 10), txn(2, 1, 1, 20), txn(3, 1, 2, 30)); err != nil {
		t.Fatal(err)
	}
	mut := Mutation{
		Table:   "Txns",
		Deletes: [][]value.Value{txn(2, 1, 1, 20)},
		Inserts: [][]value.Value{txn(4, 2, 1, 40), txn(5, 0, 2, 50)},
	}
	for k := int64(1); ; k++ {
		if k > 10_000 {
			t.Fatal("injector never exhausted")
		}
		baseBefore, _ := db.Get("Txns")
		viewBefore, _ := db.Get("V")
		in := faultinject.New(faultinject.SiteMaintain, k)
		ctx, cancel := in.Arm(context.Background())
		err := m.ApplyContext(ctx, mut)
		cancel()
		if err == nil {
			if !in.Fired() {
				// Injection exhausted without firing: the batch ran
				// clean; verify and stop.
				check(t, m, db, reg)
				return
			}
			t.Fatal("batch reported success after the injector fired mid-batch")
		}
		if !budget.IsCanceled(err) {
			t.Fatalf("fault surfaced as untyped error: %v", err)
		}
		baseAfter, _ := db.Get("Txns")
		viewAfter, _ := db.Get("V")
		if !engine.ResultsEqualBag(baseBefore, baseAfter) || !engine.ResultsEqualBag(viewBefore, viewAfter) {
			t.Fatalf("aborted batch left partial state at k=%d", k)
		}
		check(t, m, db, reg)
	}
}
