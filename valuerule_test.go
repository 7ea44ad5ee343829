package aggview

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"aggview/internal/value"
)

// The probes of this file hold every consumer of values to the one rule
// of internal/value: -0 is 0, NaN is NaN and orders above +Inf, an int
// meets a float exactly, and wherever the system chooses among, or
// folds, values the rule calls equal it emits the canonical member.

// cellBits renders a result row by row, a float cell with its bits too,
// so that -0 and 0, and NaNs of two payloads, tell apart.
func cellBits(r *Result) string {
	var b strings.Builder
	for _, t := range r.Tuples {
		for i, v := range t {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v.String())
			if v.Kind() == value.KindFloat {
				fmt.Fprintf(&b, "#%x", math.Float64bits(v.AsFloat()))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// canonNaN is the canonical NaN (math.NaN()), otherNaN one of another
// payload.
var canonNaN, otherNaN = math.NaN(), math.Float64frombits(0x7ff8000000000bad)

func negZero() float64 { return math.Copysign(0, -1) }

// TestProbeMinMaxOverNaN: MIN/MAX over a group holding a NaN, maintained
// through a delete and a reinsert and read directly, answers one thing —
// NaN is the greatest value — in 40 fresh systems.
func TestProbeMinMaxOverNaN(t *testing.T) {
	ctx := context.Background()
	const q = "SELECT G, MIN(X), MAX(X), COUNT(X) FROM T GROUP BY G"
	want := "1 | 2.0 | NaN | 6"
	for run := 0; run < 40; run++ {
		s := New()
		s.MustLoad("CREATE TABLE T(Id, G, X); CREATE VIEW V AS " + q + ";")
		var rows [][]Value
		for i, x := range []float64{5, math.NaN(), 3, 7, 2, 9} {
			rows = append(rows, []Value{Int(int64(i)), Int(1), Float(x)})
		}
		if err := s.InsertContext(ctx, "T", rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TrackViewContext(ctx, "V"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeleteContext(ctx, "T", "Id = 0"); err != nil {
			t.Fatal(err)
		}
		if err := s.InsertContext(ctx, "T", []Value{Int(6), Int(1), Float(5)}); err != nil {
			t.Fatal(err)
		}
		direct := mustQuery(t, s, q)
		viaView, used, err := s.QueryBestContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if used == nil || len(used.Used) == 0 || used.Used[0] != "V" {
			t.Fatalf("run %d: the view did not answer (%v)", run, used)
		}
		for name, r := range map[string]*Result{"direct": direct, "view": viaView} {
			if got := strings.TrimSpace(strings.SplitN(r.String(), "\n", 2)[1]); got != want {
				t.Fatalf("run %d: %s answers %q, want %q", run, name, got, want)
			}
		}
	}
}

// TestProbeSignedZeroIsOneValue: a float column holding 0.0 and -0.0 has
// one group, one distinct value, and both rows equal to 0; a projection
// still shows each row's own sign.
func TestProbeSignedZeroIsOneValue(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad("CREATE TABLE T(Id, X);")
	if err := s.InsertContext(ctx, "T", []Value{Int(1), Float(negZero())}, []Value{Int(2), Float(0)}); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"SELECT X, COUNT(Id) FROM T GROUP BY X":  "0.0#0 | 2\n",
		"SELECT DISTINCT X FROM T":               "0.0#0\n",
		"SELECT COUNT(Id) FROM T WHERE X = 0":    "2\n",
		"SELECT COUNT(Id) FROM T WHERE X = -0.0": "2\n",
		"SELECT Id FROM T WHERE X < 0":           "",
	} {
		if got := cellBits(mustQuery(t, s, sql)); got != want {
			t.Errorf("%s: %q, want %q", sql, got, want)
		}
	}
	// A write stores the value it is given: -0.0 over 0.0 is stored,
	// though the rule calls the two equal.
	if _, err := s.UpdateContext(ctx, "T", "X = -0.0", "Id = 2"); err != nil {
		t.Fatal(err)
	}
	if got, want := cellBits(mustQuery(t, s, "SELECT X FROM T")), "-0.0#8000000000000000\n-0.0#8000000000000000\n"; got != want {
		t.Errorf("after SET X = -0.0: %q, want %q", got, want)
	}
}

// TestProbeIntFloatPast2To53: an int column holding 2^53 and 2^53+1
// meets the float 2^53 exactly, and a filter and a join agree on which
// rows are equal to it.
func TestProbeIntFloatPast2To53(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad("CREATE TABLE B(Bid, N); CREATE TABLE T(Tid, X);")
	if err := s.InsertContext(ctx, "B", []Value{Int(1), Int(1<<53 + 1)}, []Value{Int(2), Int(1 << 53)}); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertContext(ctx, "T", []Value{Int(1), Float(1 << 53)}); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"SELECT Bid FROM B WHERE N = 9007199254740992.0":                "2\n",
		"SELECT Bid FROM B WHERE N > 9007199254740992.0":                "1\n",
		"SELECT Bid FROM B WHERE N <> 9007199254740992.0":               "1\n",
		"SELECT Tid FROM T WHERE X < 9007199254740993":                  "1\n",
		"SELECT Bid, Tid FROM T, B WHERE T.X = B.N":                     "2 | 1\n",
		"SELECT Bid, Tid FROM T, B WHERE T.X < B.N":                     "1 | 1\n",
		"SELECT Bid FROM T, B WHERE T.X = B.N AND N = 9007199254740993": "",
	} {
		if got := cellBits(mustQuery(t, s, sql)); got != want {
			t.Errorf("%s: %q, want %q", sql, got, want)
		}
	}
}

// TestProbeNaNFilter holds the filter kernels to NaN's place in the
// order: equal only to NaN, above every number.
func TestProbeNaNFilter(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad("CREATE TABLE T(Id, X);")
	for i, x := range []float64{math.NaN(), 5, 0, negZero()} {
		if err := s.InsertContext(ctx, "T", []Value{Int(int64(i + 1)), Float(x)}); err != nil {
			t.Fatal(err)
		}
	}
	for sql, want := range map[string]string{
		"SELECT Id FROM T WHERE X = 5.0":  "2\n",
		"SELECT Id FROM T WHERE X <> 5.0": "1\n3\n4\n",
		"SELECT Id FROM T WHERE X > 5.0":  "1\n",
		"SELECT Id FROM T WHERE X <= 5":   "2\n3\n4\n",
		"SELECT Id FROM T WHERE X >= 0":   "1\n2\n3\n4\n",
	} {
		if got := cellBits(mustQuery(t, s, sql)); got != want {
			t.Errorf("%s: %q, want %q", sql, got, want)
		}
	}
}

// specialRows returns n rows of T(Id, G, X) whose X cycles through -0,
// 0, a NaN of math.NaN()'s payload and one of another, 1.5 and -1.5, in
// an order that puts the non-canonical members first.
func specialRows(lo, n int) [][]Value {
	xs := []float64{negZero(), otherNaN, 0, canonNaN, 1.5, -1.5}
	rows := make([][]Value, n)
	for i := range rows {
		id := lo + i
		rows[i] = []Value{Int(int64(id)), Int(int64(id % 3)), Float(xs[id%len(xs)])}
	}
	return rows
}

// checkCanonical fails unless every float cell of r is its own canonical
// member.
func checkCanonical(t *testing.T, what string, r *Result) {
	t.Helper()
	for _, tup := range r.Tuples {
		for _, v := range tup {
			if v.Kind() == value.KindFloat && math.Float64bits(v.AsFloat()) != math.Float64bits(value.CanonFloat(v.AsFloat())) {
				t.Fatalf("%s: cell %v (#%x) is not its canonical member:\n%s", what, v, math.Float64bits(v.AsFloat()), cellBits(r))
			}
		}
	}
}

// TestSpecialFloatsCanonical groups, deduplicates, takes MIN/MAX of and
// sums a float column of -0, 0 and two NaN payloads: the answers are the
// same bits at one worker and at four, every float cell is the
// canonical member, and a view maintained through inserts and deletes
// holds, bit for bit, what a rebuild of it holds.
func TestSpecialFloatsCanonical(t *testing.T) {
	ctx := context.Background()
	queries := map[string]string{
		"VG": "SELECT X, COUNT(Id) FROM T GROUP BY X",
		"VM": "SELECT G, MIN(X), MAX(X), SUM(X), COUNT(X) FROM T GROUP BY G",
		"VD": "SELECT DISTINCT X FROM T",
		"VZ": "SELECT G, SUM(X), MIN(X), COUNT(X) FROM T WHERE X = 0 GROUP BY G",
	}
	load := func(s *System) {
		script := "CREATE TABLE T(Id, G, X);"
		for name, q := range queries {
			script += " CREATE VIEW " + name + " AS " + q + ";"
		}
		s.MustLoad(script)
	}

	s := New()
	load(s)
	if err := s.InsertContext(ctx, "T", specialRows(0, 5000)...); err != nil {
		t.Fatal(err)
	}
	for name, q := range queries {
		s.Opts.Workers = 1
		one := mustQuery(t, s, q)
		s.Opts.Workers = 4
		four := mustQuery(t, s, q)
		if cellBits(one) != cellBits(four) {
			t.Fatalf("%s: workers 1 and 4 differ:\n%s\nvs\n%s", name, cellBits(one), cellBits(four))
		}
		checkCanonical(t, name, one)
	}
	if got := mustQuery(t, s, queries["VG"]).Len(); got != 4 {
		t.Fatalf("VG: %d groups, want 4 (0, NaN, 1.5, -1.5)", got)
	}

	for name := range queries {
		if _, err := s.TrackViewContext(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes take away the first rows of each class, so a maintained
	// group's first member is gone; inserts bring back members in the
	// other order.
	if _, err := s.DeleteContext(ctx, "T", "Id < 12"); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertContext(ctx, "T", specialRows(6001, 8)...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteContext(ctx, "T", "X = 1.5"); err != nil {
		t.Fatal(err)
	}

	rebuilt := New()
	load(rebuilt)
	base, _ := s.DB.Get("T")
	if err := rebuilt.InsertContext(ctx, "T", base.Tuples...); err != nil {
		t.Fatal(err)
	}
	for name := range queries {
		if _, err := rebuilt.TrackViewContext(ctx, name); err != nil {
			t.Fatal(err)
		}
		got, _ := s.DB.Get(name)
		want, _ := rebuilt.DB.Get(name)
		if cellBits(got.Sorted()) != cellBits(want.Sorted()) {
			t.Fatalf("%s: maintained\n%s\nrebuilt\n%s", name, cellBits(got.Sorted()), cellBits(want.Sorted()))
		}
		checkCanonical(t, name+" maintained", got)
	}
}
