package maintain

import (
	"context"
	"maps"
	"math/rand"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/value"
)

// TestRebuildEqualsDefinition holds the one definition of a maintained
// row to the view's own: for every incremental shape, the materialization
// right after TrackContext, after a forced recompute (the branch a self-join or
// a view over a view takes, entered here by marking the table
// view-mediated and applying an empty batch) is row for row — order included, cells compared as ResultsEqualBag
// compares them — what executing the definition returns, and the
// multiplicity counts do not move. The table spans three morsels and
// holds float amounts, so a group's rows fold in more than one partial.
func TestRebuildEqualsDefinition(t *testing.T) {
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id",
		"SELECT Acct_Id, Day, COUNT(Amount) FROM Txns GROUP BY Acct_Id, Day",
		"SELECT Acct_Id, AVG(Amount) FROM Txns GROUP BY Acct_Id",
		"SELECT Acct_Id, MIN(Amount), MAX(Amount) FROM Txns GROUP BY Acct_Id",
		"SELECT SUM(Amount), Day, COUNT(Amount), MAX(Txn_Id), AVG(Amount + Amount) FROM Txns GROUP BY Day",
		"SELECT Branch, SUM(Amount), COUNT(Amount) FROM Txns, Accounts WHERE Txns.Acct_Id = Accounts.Acct_Id GROUP BY Branch",
		"SELECT Day, SUM(Amount), MIN(Amount) FROM Txns WHERE Amount > 10 AND Day <= 3 GROUP BY Day",
		"SELECT Txn_Id, Amount FROM Txns WHERE Amount > 10",
		"SELECT SUM(Amount) FROM Txns",
	} {
		t.Run(sql, func(t *testing.T) {
			m, db, reg := setup(t, sql)
			rng := rand.New(rand.NewSource(5))
			rows := make([][]value.Value, 2500)
			for i := range rows {
				rows[i] = []value.Value{value.Int(int64(i)), value.Int(int64(rng.Intn(6))), value.Int(int64(1 + rng.Intn(5))), value.Float(float64(rng.Intn(4000)) / 16)}
			}
			if err := m.InsertContext(ctx, "Txns", rows...); err != nil {
				t.Fatal(err)
			}
			if inc, err := m.TrackContext(ctx, "V"); err != nil || !inc {
				t.Fatalf("incremental=%v err=%v", inc, err)
			}
			v, _ := reg.Get("V")
			want, err := engine.NewEvaluator(db, reg).ExecContext(ctx, v.Def)
			if err != nil {
				t.Fatal(err)
			}
			counts, counted := m.GroupCounts("V")
			sameAsDefinition := func(when string) {
				t.Helper()
				got, _ := db.Get("V")
				if got.Len() != want.Len() {
					t.Fatalf("%s: %d rows, the definition returns %d", when, got.Len(), want.Len())
				}
				for i := range got.Tuples {
					if !engine.ResultsEqualBag(&engine.Relation{Tuples: got.Tuples[i : i+1]}, &engine.Relation{Tuples: want.Tuples[i : i+1]}) {
						t.Fatalf("%s: row %d is %v, the definition returns %v", when, i, got.Tuples[i], want.Tuples[i])
					}
				}
				if now, ok := m.GroupCounts("V"); ok != counted || !maps.Equal(now, counts) {
					t.Fatalf("%s: the multiplicity counts moved", when)
				}
			}
			sameAsDefinition("after Track")

			st := m.tracked["V"]
			st.viaView["Txns"] = true
			if err := m.ApplyContext(ctx, Mutation{Table: "Txns"}); err != nil {
				t.Fatal(err)
			}
			delete(st.viaView, "Txns")
			sameAsDefinition("after a recompute")

			// The rebuilt state still absorbs deltas.
			if err := m.ApplyContext(ctx, Mutation{Table: "Txns", Deletes: rows[:40], Inserts: [][]value.Value{txn(9001, 2, 3, 77)}}); err != nil {
				t.Fatal(err)
			}
			check(t, m, db, reg)
		})
	}
}
