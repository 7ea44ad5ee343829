package oracle

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/value"
)

// refCase is one table T(G, X, S) of the rows given.
func refCase(rows ...[]value.Value) *Case {
	return &Case{Tables: []*TableSpec{{Name: "T", Cols: []string{"G", "X", "S"}, Rows: rows}}}
}

func row(vs ...value.Value) []value.Value { return vs }

// TestReferenceHandAnswers holds the reference to answers worked out by
// hand, never to the engine's.
func TestReferenceHandAnswers(t *testing.T) {
	i, f, s := value.Int, value.Float, value.Str
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	three := refCase(row(i(1), i(10), s("a")), row(i(1), i(20), s("b")), row(i(2), i(30), s("a")))
	withView := refCase(three.Tables[0].Rows...)
	withView.Views = []*ViewSpec{{Name: "V", Def: QuerySpec{Select: []string{"G", "SUM(X)"}, From: []string{"T"}, GroupBy: []string{"G"}}}}
	for _, tc := range []struct {
		name string
		c    *Case
		sql  string
		want [][]value.Value
	}{
		{"empty input, no GROUP BY: no row", refCase(), "SELECT SUM(X), COUNT(*) FROM T", nil},
		{"HAVING without GROUP BY keeps the one group", three, "SELECT SUM(X) FROM T HAVING COUNT(G) > 2", [][]value.Value{{i(60)}}},
		{"HAVING without GROUP BY drops the one group", three, "SELECT SUM(X) FROM T HAVING COUNT(G) > 3", nil},
		{"int SUM back inside int64", refCase(row(i(1), i(1<<62), s("")), row(i(1), i(1<<62), s("")), row(i(1), i(-1<<62), s(""))),
			"SELECT SUM(X) FROM T", [][]value.Value{{i(1 << 62)}}},
		{"MIN skips a NaN, MAX is it", refCase(row(i(1), f(nan), s("")), row(i(1), f(1), s(""))),
			"SELECT MIN(X), MAX(X) FROM T", [][]value.Value{{f(1), f(nan)}}},
		{"-0 and 0 are one group", refCase(row(f(negZero), i(1), s("")), row(f(0), i(2), s(""))),
			"SELECT G, SUM(X) FROM T GROUP BY G", [][]value.Value{{f(0), i(3)}}},
		{"a string = a number is false", three, "SELECT G FROM T WHERE S = 1", nil},
		{"a string <> a number is true", three, "SELECT G FROM T WHERE S <> 1", [][]value.Value{{i(1)}, {i(1)}, {i(2)}}},
		{"self-join through range variables", three, "SELECT r.X, s.X FROM T r, T s WHERE r.G = s.G AND r.S <> s.S",
			[][]value.Value{{i(10), i(20)}, {i(20), i(10)}}},
		{"a derived table and a view", withView,
			"SELECT v.sum_X, d.n FROM V v, (SELECT G, COUNT(*) AS n FROM T WHERE X > 10 GROUP BY G) d WHERE v.G = d.G",
			[][]value.Value{{i(30), i(1)}, {i(30), i(1)}}},
	} {
		got, err := newModel(tc.c).query(tc.sql)
		if err != nil {
			t.Errorf("%s: %s: %v", tc.name, tc.sql, err)
			continue
		}
		if want := (&engine.Relation{Tuples: tc.want}); !engine.ResultsEqualBag(want, got) {
			t.Errorf("%s: %s\n got:\n%s\nwant:\n%s", tc.name, tc.sql, got.Sorted(), want.Sorted())
		}
	}

	// Float SUM is the exact total rounded once: 1e16 + 2, not the
	// running sum's 1e16.
	got, err := newModel(refCase(row(i(1), f(1e16), s("")), row(i(1), f(1), s("")), row(i(1), f(1), s("")))).query("SELECT SUM(X) FROM T")
	if err != nil || len(got.Tuples) != 1 || math.Float64bits(got.Tuples[0][0].AsFloat()) != 0x4341c37937e08001 {
		t.Errorf("SUM over 1e16, 1.0, 1.0: %v %v, want bits 4341c37937e08001", got, err)
	}
	// An int total past int64 is an overflow, not a wrapped int.
	_, err = newModel(refCase(row(i(1), i(1<<62), s("")), row(i(1), i(1<<62), s("")))).query("SELECT SUM(X) FROM T")
	if oe := (*value.OverflowError)(nil); !errors.As(err, &oe) {
		t.Errorf("SUM over 2^62, 2^62: error %v, want a *value.OverflowError", err)
	}
}

// TestDirectMatchesReference holds the facade's direct answer at worker
// counts 1 and 4 to the reference: queries over random small R1/R2
// instances (seed 11, 60 trials), and a chain join whose greedy join
// order matters.
func TestDirectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func(name string, cols ...string) *TableSpec {
		tab := &TableSpec{Name: name, Cols: cols}
		for n := rng.Intn(8); len(tab.Rows) < n; {
			r := make([]value.Value, len(cols))
			for j := range r {
				r[j] = value.Int(int64(rng.Intn(4)))
			}
			tab.Rows = append(tab.Rows, r)
		}
		return tab
	}
	chain := func() []*TableSpec {
		t1 := &TableSpec{Name: "T1", Cols: []string{"A", "B"}}
		t2 := &TableSpec{Name: "T2", Cols: []string{"C", "D"}}
		t3 := &TableSpec{Name: "T3", Cols: []string{"E", "F"}}
		for n := int64(0); n < 6; n++ {
			t1.Rows = append(t1.Rows, row(value.Int(n), value.Int(n%3)))
			t2.Rows = append(t2.Rows, row(value.Int(n%3), value.Int(n%2)))
			t3.Rows = append(t3.Rows, row(value.Int(n%2), value.Int(n)))
		}
		return []*TableSpec{t1, t2, t3}
	}
	for _, tc := range []struct {
		name    string
		trials  int
		tables  func() []*TableSpec
		queries []string
	}{
		{"random", 60, func() []*TableSpec { return []*TableSpec{random("R1", "A", "B", "C", "D"), random("R2", "E", "F")} }, []string{
			"SELECT A, B FROM R1 WHERE A = B",
			"SELECT A FROM R1, R2 WHERE A = E AND B < F",
			"SELECT A, E FROM R1, R2 WHERE B = F AND C <> D",
			"SELECT A, COUNT(B), SUM(C) FROM R1 GROUP BY A",
			"SELECT A, E, SUM(B) FROM R1, R2 WHERE C = F GROUP BY A, E",
			"SELECT A, MIN(B), MAX(C) FROM R1 GROUP BY A HAVING COUNT(D) > 1",
			"SELECT DISTINCT A, B FROM R1, R2",
			"SELECT E, SUM(A * B) FROM R1, R2 WHERE A <= E GROUP BY E",
			"SELECT r.A, s.B FROM R1 r, R1 s WHERE r.A = s.A",
			"SELECT AVG(B) FROM R1",
		}},
		{"chain-join", 1, chain, []string{"SELECT A, F FROM T1, T2, T3 WHERE B = C AND D = E"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			for trial := 0; trial < tc.trials; trial++ {
				c := &Case{Tables: tc.tables()}
				sys, err := c.CompileContext(ctx, aggview.Options{})
				if err != nil {
					t.Fatal(err)
				}
				m := newModel(c)
				for _, sql := range tc.queries {
					want, werr := m.query(sql)
					for _, w := range []int{1, 4} {
						sys.Opts.Workers = w
						got, err := sys.QueryContext(ctx, sql)
						if (err == nil) != (werr == nil) {
							t.Fatalf("trial %d, workers=%d: %s: engine error %v, reference error %v", trial, w, sql, err, werr)
						}
						if err == nil && !engine.ResultsEqualBag(want, got) {
							t.Fatalf("trial %d, workers=%d: %s: the engine disagrees with the reference\nengine:\n%s\nreference:\n%s",
								trial, w, sql, got.Sorted(), want.Sorted())
						}
					}
				}
			}
		})
	}
}
