package aggview

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/maintain"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// The probes of this file hold aggregates to exact answers: a direct
// query, a rewriting over a view and a maintained view answer the same
// bits or the same typed error, with no tolerance between them.

// TestProbeAvgIsSumOverCount: AVG over {2^53, 1, 1} is one division of the
// exact total 2^53+2 by 3, whether the engine folds it directly, a
// rewriting divides a view's SUM by its COUNT, or a tracked AVG view
// keeps it through inserts and deletes.
func TestProbeAvgIsSumOverCount(t *testing.T) {
	ctx := context.Background()
	const q = "SELECT G, AVG(X) FROM T GROUP BY G"
	want := cellBits(&Result{Tuples: [][]Value{{Int(1), Float(float64(1<<53+2) / 3)}}})
	s := New()
	s.MustLoad(`CREATE TABLE T(Id, G, X);
		CREATE VIEW V AS SELECT G, SUM(X), COUNT(X) FROM T GROUP BY G;
		CREATE VIEW W AS ` + q + ";")
	if _, err := s.TrackViewContext(ctx, "W"); err != nil {
		t.Fatal(err)
	}
	for i, x := range []int64{7, 1 << 53, 1, 5, 1} {
		if err := s.InsertContext(ctx, "T", []Value{Int(int64(i)), Int(1), Int(x)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, where := range []string{"X = 7", "X = 5"} {
		if _, err := s.DeleteContext(ctx, "T", where); err != nil {
			t.Fatal(err)
		}
	}
	if got := cellBits(mustQuery(t, s, q)); got != want {
		t.Errorf("direct: %q, want %q", got, want)
	}
	rws, err := s.RewritingsContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	overV := 0
	for _, rw := range rws {
		if len(rw.Used) != 1 || rw.Used[0] != "V" {
			continue
		}
		overV++
		res, err := s.ExecRewritingContext(ctx, rw)
		if err != nil {
			t.Fatal(err)
		}
		if got := cellBits(res); got != want {
			t.Errorf("through V (%s): %q, want %q", rw.SQL(), got, want)
		}
	}
	if overV == 0 {
		t.Fatal("no rewriting reads V")
	}
	w, _ := s.DB.Get("W")
	if got := cellBits(w); got != want {
		t.Errorf("tracked W: %q, want %q", got, want)
	}
}

// TestProbeSumNotFromAvg: SUM over {1,2,3,4,5,6,8} is the int 29. A view
// exporting AVG(X) and COUNT(X) but no SUM(X) would answer 29.000000000000004
// as AVG × COUNT, so no rewriting reads it, and the best plan answers 29.
func TestProbeSumNotFromAvg(t *testing.T) {
	ctx := context.Background()
	const q = "SELECT G, SUM(X) FROM T GROUP BY G"
	s := New()
	s.MustLoad("CREATE TABLE T(Id, G, X); CREATE VIEW V AS SELECT G, AVG(X), COUNT(X) FROM T GROUP BY G;")
	for i, x := range []int64{1, 2, 3, 4, 5, 6, 8} {
		if err := s.InsertContext(ctx, "T", []Value{Int(int64(i)), Int(1), Int(x)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.TrackViewContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	rws, err := s.RewritingsContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range rws {
		t.Errorf("a rewriting reads %v: %s", rw.Used, rw.SQL())
	}
	res, _, err := s.QueryBestContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cellBits(res), "1 | 29\n"; got != want || res.Tuples[0][1].Kind() != value.KindInt {
		t.Errorf("best plan: %q, want %q, an INT", got, want)
	}
}

// TestProbeIntSumOverflows: two rows of 2^62 sum past int64. A direct SUM
// answers a typed *value.OverflowError, not the wrapped -2^63; with a
// tracked view summing them, the second insert is that error and leaves
// the table and the view as they were.
func TestProbeIntSumOverflows(t *testing.T) {
	ctx := context.Background()
	var ov *value.OverflowError
	row := func(id int64) []Value { return []Value{Int(id), Int(1), Int(1 << 62)} }

	s := New()
	s.MustLoad("CREATE TABLE T(Id, G, X);")
	if err := s.InsertContext(ctx, "T", row(1), row(2)); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"SELECT SUM(X) FROM T", "SELECT G, AVG(X) FROM T GROUP BY G", "SELECT SUM(X + X) FROM T WHERE Id = 1"} {
		if res, err := s.QueryContext(ctx, sql); !errors.As(err, &ov) {
			t.Errorf("direct %s: %v, %v; want an overflow error", sql, res, err)
		}
	}

	s = New()
	s.MustLoad("CREATE TABLE T(Id, G, X); CREATE VIEW V AS SELECT G, SUM(X), AVG(X), COUNT(X) FROM T GROUP BY G;")
	if err := s.InsertContext(ctx, "T", row(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	v, _ := s.DB.Get("V")
	before := cellBits(v)
	if err := s.InsertContext(ctx, "T", row(2)); !errors.As(err, &ov) {
		t.Fatalf("insert overflowing V's SUM: %v, want an overflow error", err)
	}
	if n := mustQuery(t, s, "SELECT Id FROM T").Len(); n != 1 {
		t.Errorf("the aborted insert left %d rows in T, want 1", n)
	}
	v, _ = s.DB.Get("V")
	if got := cellBits(v); got != before || !strings.HasPrefix(got, "1 | 4611686018427387904 | ") {
		t.Errorf("V after the aborted insert: %q, want %q", got, before)
	}
}

// TestProbeDeleteMinInt64UnderSum: group 1 of T holds MinInt64 and 5, and
// V sums it. Deleting the MinInt64 row, or updating it into group 2,
// subtracts MinInt64 from a total that then fits: the write succeeds. A
// write whose new total leaves int64 is still refused, with T and V as
// they were.
func TestProbeDeleteMinInt64UnderSum(t *testing.T) {
	ctx := context.Background()
	const minInt = "-9223372036854775808"
	fresh := func() *System {
		s := New()
		s.MustLoad("CREATE TABLE T(Id, G, X); CREATE VIEW V AS SELECT G, SUM(X), COUNT(X) FROM T GROUP BY G;")
		if err := s.InsertContext(ctx, "T", []Value{Int(1), Int(1), Int(math.MinInt64)}, []Value{Int(2), Int(1), Int(5)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TrackViewContext(ctx, "V"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	view := func(s *System) string {
		v, _ := s.DB.Get("V")
		rows := strings.SplitAfter(cellBits(v), "\n")
		sort.Strings(rows)
		return strings.Join(rows, "")
	}

	s := fresh()
	if n, err := s.DeleteContext(ctx, "T", "Id = 1"); err != nil || n != 1 {
		t.Fatalf("delete of the MinInt64 row: %d, %v", n, err)
	}
	if got := view(s); got != "1 | 5 | 1\n" {
		t.Errorf("V after the delete: %q", got)
	}

	s = fresh()
	if n, err := s.UpdateContext(ctx, "T", "G = 2", "Id = 1"); err != nil || n != 1 {
		t.Fatalf("update moving the MinInt64 row: %d, %v", n, err)
	}
	want := "1 | 5 | 1\n2 | " + minInt + " | 1\n"
	if got := view(s); got != want {
		t.Errorf("V after the update: %q, want %q", got, want)
	}

	// Group 2's total MinInt64 - 1 leaves int64, by insert or by update.
	var ov *value.OverflowError
	if err := s.InsertContext(ctx, "T", []Value{Int(3), Int(2), Int(-1)}); !errors.As(err, &ov) {
		t.Errorf("insert overflowing V's SUM: %v, want an overflow error", err)
	}
	if _, err := s.UpdateContext(ctx, "T", "G = 2, X = -1", "Id = 2"); !errors.As(err, &ov) {
		t.Errorf("update overflowing V's SUM: %v, want an overflow error", err)
	}
	if got := view(s); got != want {
		t.Errorf("V after the refused writes: %q, want %q", got, want)
	}
	if got := cellBits(mustQuery(t, s, "SELECT Id, G, X FROM T")); got != "1 | 2 | "+minInt+"\n2 | 1 | 5\n" {
		t.Errorf("T after the refused writes: %q", got)
	}
}

// TestProbeNonFiniteSumIsAbsorbed: group 1 of T holds 1.5 and 1e308, and
// V sums, counts and averages it. Inserting a row of NaN, +Inf or 1e308
// (whose total is +Inf) and deleting it again is absorbed like any other
// write: the view's exact total counts the NaN or the infinity apart from
// its finite part, and the delete takes it back out. V reads as the
// direct query, bit for bit, after both, and neither write recomputes it.
func TestProbeNonFiniteSumIsAbsorbed(t *testing.T) {
	ctx := context.Background()
	const direct = "SELECT G, SUM(X), COUNT(X), AVG(X) FROM T GROUP BY G"
	for _, x := range []float64{math.NaN(), math.Inf(1), 1e308} {
		s := New()
		s.Metrics = obs.NewMetrics()
		s.MustLoad("CREATE TABLE T(Id, G, X); CREATE VIEW V AS " + direct + ";")
		if err := s.InsertContext(ctx, "T", []Value{Int(1), Int(1), Float(1.5)}, []Value{Int(2), Int(1), Float(1e308)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TrackViewContext(ctx, "V"); err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			v, _ := s.DB.Get("V")
			if got, want := cellBits(v), cellBits(mustQuery(t, s, direct)); got != want {
				t.Errorf("X = %v, after the %s: V reads %q, the direct query %q", x, step, got, want)
			}
		}
		if err := s.InsertContext(ctx, "T", []Value{Int(3), Int(1), Float(x)}); err != nil {
			t.Fatal(err)
		}
		check("insert")
		if n, err := s.DeleteContext(ctx, "T", "Id = 3"); err != nil || n != 1 {
			t.Fatalf("delete: %d, %v", n, err)
		}
		check("delete")
		if n := s.Metrics.Volatile("maintain.fallback.full").Load(); n != 0 {
			t.Errorf("X = %v: %d writes recomputed V, want none", x, n)
		}
	}
}

// TestProbeOneBatchKeepsTheExactTotal: V sums group 1 of T, which holds
// 0.5. One insert adds 1e16 and 1.0, and a delete then removes the 1e16
// row, leaving 0.5 + 1.0. The insert's delta query folds its two rows
// into one finer group whose cell rounds to 1e16 (1e16 + 1 is a tie, and
// ties go to even), so a view that added that cell would read 0.5; V
// adds the group's exact total instead and stores 1.5, bit for bit what
// the direct query and the best plan answer, and neither write recomputes
// it.
func TestProbeOneBatchKeepsTheExactTotal(t *testing.T) {
	ctx := context.Background()
	const q = "SELECT G, SUM(X), COUNT(X) FROM T GROUP BY G"
	s := New()
	s.Metrics = obs.NewMetrics()
	s.MustLoad("CREATE TABLE T(Id, G, X); CREATE VIEW V AS " + q + ";")
	if err := s.InsertContext(ctx, "T", []Value{Int(1), Int(1), Float(0.5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertContext(ctx, "T", []Value{Int(2), Int(1), Float(1e16)}, []Value{Int(3), Int(1), Float(1)}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.DeleteContext(ctx, "T", "Id = 2"); err != nil || n != 1 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	const want = "1 | 1.5#3ff8000000000000 | 2\n"
	v, _ := s.DB.Get("V")
	if got := cellBits(v); got != want {
		t.Errorf("V: %q, want %q", got, want)
	}
	if got := cellBits(mustQuery(t, s, q)); got != want {
		t.Errorf("direct: %q, want %q", got, want)
	}
	res, _, err := s.QueryBestContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := cellBits(res); got != want {
		t.Errorf("best plan: %q, want %q", got, want)
	}
	if n := s.Metrics.Volatile("maintain.fallback.full").Load(); n != 0 {
		t.Errorf("%d writes recomputed V, want none", n)
	}
}

// TestProbeCoalescingNeverReAddsRoundedCells: V sums T by (G, H), so its
// cells for group 1 are round(1e16 + 1.0) = 1e16 and -1e16. Re-adding them
// for SELECT G, SUM(X) answers 0.0 where the exact total is 1.0, with no
// write at all. Condition C4' refuses that coalescing over a float
// column: the best plan and every rewriting answer 1.0, as the direct
// query does.
func TestProbeCoalescingNeverReAddsRoundedCells(t *testing.T) {
	ctx := context.Background()
	const q = "SELECT G, SUM(X) FROM T GROUP BY G"
	const want = "1 | 1.0#3ff0000000000000\n"
	s := New()
	s.MustLoad("CREATE TABLE T(G, H, X); CREATE VIEW V AS SELECT G, H, SUM(X), COUNT(X) FROM T GROUP BY G, H;")
	if err := s.InsertContext(ctx, "T", []Value{Int(1), Int(1), Float(1e16)}, []Value{Int(1), Int(2), Float(-1e16)}, []Value{Int(1), Int(1), Float(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	if got := cellBits(mustQuery(t, s, q)); got != want {
		t.Fatalf("direct: %q, want %q", got, want)
	}
	res, _, err := s.QueryBestContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := cellBits(res); got != want {
		t.Errorf("best plan: %q, want %q", got, want)
	}
	rws, err := s.RewritingsContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range rws {
		res, err := s.ExecRewritingContext(ctx, rw)
		if err != nil {
			t.Fatal(err)
		}
		if got := cellBits(res); got != want {
			t.Errorf("%s: %q, want %q", rw.SQL(), got, want)
		}
	}
}

// TestProbeDirectFloatSumIsRoundedOnce: SUM over 1e16, 1.0 and 1.0 is the
// exact 1e16 + 2 rounded once, which float64 holds; adding the rows in
// order would round 1e16 + 1 to 1e16 twice. Every worker count answers
// it, over one chunk and over rows that span three, with the two 1.0s in
// other chunks than the 1e16.
func TestProbeDirectFloatSumIsRoundedOnce(t *testing.T) {
	ctx := context.Background()
	const want = "1 | 1.0000000000000002e+16#4341c37937e08001\n"
	for _, rows := range []int{3, engine.RowsSpanning(3)} {
		for _, workers := range []int{1, 2, 8} {
			s := New()
			s.Opts.Workers = workers
			s.MustLoad("CREATE TABLE T(G, X);")
			batch := make([][]Value, rows)
			for i := range batch {
				batch[i] = []Value{Int(1), Float(0)}
			}
			batch[0][1], batch[rows/2][1], batch[rows-1][1] = Float(1e16), Float(1), Float(1)
			if err := s.InsertContext(ctx, "T", batch...); err != nil {
				t.Fatal(err)
			}
			if got := cellBits(mustQuery(t, s, "SELECT G, SUM(X) FROM T GROUP BY G")); got != want {
				t.Errorf("%d rows, workers %d: %q, want %q", rows, workers, got, want)
			}
		}
	}
}

// TestProbeAbortedBatchKeepsTheFloatTotal: V1 sums the float X and V2 the
// int Y of group 1. An insert of 1e16 into X and 1 into Y overflows V2's
// total (MaxInt64 + 1), so the batch aborts after V1 absorbed its delta
// into a staged copy of its total: V1's live total is as it was, and the
// next write reads 0.5 + 1.0, not 1e16 + 1.5.
func TestProbeAbortedBatchKeepsTheFloatTotal(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad(`CREATE TABLE T(Id, G, X, Y);
		CREATE VIEW V1 AS SELECT G, SUM(X), COUNT(X) FROM T GROUP BY G;
		CREATE VIEW V2 AS SELECT G, SUM(Y), COUNT(Y) FROM T GROUP BY G;`)
	if err := s.InsertContext(ctx, "T", []Value{Int(1), Int(1), Float(0.5), Int(math.MaxInt64)}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"V1", "V2"} {
		if _, err := s.TrackViewContext(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	var ov *value.OverflowError
	if err := s.InsertContext(ctx, "T", []Value{Int(2), Int(1), Float(1e16), Int(1)}); !errors.As(err, &ov) {
		t.Fatalf("insert overflowing V2: %v, want an overflow error", err)
	}
	if err := s.InsertContext(ctx, "T", []Value{Int(3), Int(1), Float(1), Int(-1)}); err != nil {
		t.Fatal(err)
	}
	v, _ := s.DB.Get("V1")
	if got, want := cellBits(v), "1 | 1.5#3ff8000000000000 | 2\n"; got != want {
		t.Errorf("V1: %q, want %q", got, want)
	}
}

// TestProbeOverflowIsTheExactTotal: whether an int total overflows
// depends on its exact value only, not on the order or the grouping its
// rows were summed in. T's group 1 holds 2^62, 2^62 and -2^62, which pass
// int64 part-way in row order, and V splits them into subgroups holding 0
// and 2^62: the direct SUM, the best plan and every rewriting over V
// answer 2^62. A tracked view that absorbs the same rows in one insert
// keeps its exact total.
func TestProbeOverflowIsTheExactTotal(t *testing.T) {
	ctx := context.Background()
	const q = "SELECT G, SUM(X) FROM T GROUP BY G"
	const want = "1 | 4611686018427387904\n"
	s := New()
	s.MustLoad("CREATE TABLE T(Id, G, H, X); CREATE VIEW V AS SELECT G, H, SUM(X), COUNT(X) FROM T GROUP BY G, H;")
	if err := s.InsertContext(ctx, "T",
		[]Value{Int(1), Int(1), Int(1), Int(1 << 62)},
		[]Value{Int(2), Int(1), Int(2), Int(1 << 62)},
		[]Value{Int(3), Int(1), Int(1), Int(-1 << 62)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	if got := cellBits(mustQuery(t, s, q)); got != want {
		t.Errorf("direct: %q, want %q", got, want)
	}
	res, _, err := s.QueryBestContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := cellBits(res); got != want {
		t.Errorf("best plan: %q, want %q", got, want)
	}
	rws, err := s.RewritingsContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) == 0 {
		t.Fatal("no rewriting reads V")
	}
	for _, rw := range rws {
		res, err := s.ExecRewritingContext(ctx, rw)
		if err != nil {
			t.Fatalf("%s: %v", rw.SQL(), err)
		}
		if got := cellBits(res); got != want {
			t.Errorf("%s: %q, want %q", rw.SQL(), got, want)
		}
	}

	s = New()
	s.MustLoad("CREATE TABLE T(Id, G, X); CREATE VIEW W AS SELECT G, SUM(X), COUNT(X) FROM T GROUP BY G;")
	if err := s.InsertContext(ctx, "T", []Value{Int(1), Int(1), Int(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "W"); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertContext(ctx, "T", []Value{Int(3), Int(1), Int(1 << 62)}, []Value{Int(4), Int(1), Int(1 << 62)}, []Value{Int(5), Int(1), Int(-1 << 62)}); err != nil {
		t.Fatalf("an insert whose total passes int64 part-way: %v", err)
	}
	w, _ := s.DB.Get("W")
	if got, want := cellBits(w), "1 | 4611686018427387909 | 4\n"; got != want {
		t.Errorf("tracked W: %q, want %q", got, want)
	}
}

// TestProbeMinMaxViewTracksItsExactTotal: T holds (1, MaxInt64, 0.5) and
// (1, MinInt64, 1.0) twice each, and V sums I and takes MIN and MAX of F
// by G. V's total, -2, fits int64, but the two MaxInt64 rows share their
// F: a Track that grouped by the MIN/MAX argument too would total them
// past int64 and refuse V. Track reads T's rows itself, so V reads as its
// definition, 1 | -2 | 0.5 | 1.0. Deleting one MaxInt64 row leaves
// MaxInt64 + 2·MinInt64, which int64 cannot hold, so the delete is
// refused and V still reads as its definition; deleting one MinInt64 row
// leaves MaxInt64 - 1, and V reads as its definition again.
func TestProbeMinMaxViewTracksItsExactTotal(t *testing.T) {
	ctx := context.Background()
	const def = "SELECT G, SUM(I), MIN(F), MAX(F) FROM T GROUP BY G"
	s := New()
	s.MustLoad("CREATE TABLE T(G, I, F); CREATE VIEW V AS " + def + ";")
	maxRow, minRow := []Value{Int(1), Int(math.MaxInt64), Float(0.5)}, []Value{Int(1), Int(math.MinInt64), Float(1)}
	if err := s.InsertContext(ctx, "T", maxRow, maxRow, minRow, minRow); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "V"); err != nil {
		t.Fatalf("TrackViewContext: %v", err)
	}
	asDefinition := func(step, want string) {
		t.Helper()
		v, _ := s.DB.Get("V")
		if got := cellBits(v); got != want || got != cellBits(mustQuery(t, s, def)) {
			t.Errorf("after %s: V reads %q, want %q, the definition %q", step, got, want, cellBits(mustQuery(t, s, def)))
		}
	}
	const tracked = "1 | -2 | 0.5#3fe0000000000000 | 1.0#3ff0000000000000\n"
	asDefinition("the Track", tracked)

	var ov *value.OverflowError
	if err := s.maintainer().ApplyContext(ctx, maintain.Mutation{Table: "T", Deletes: [][]Value{maxRow}}); !errors.As(err, &ov) {
		t.Errorf("deleting one MaxInt64 row: %v, want an overflow error", err)
	}
	asDefinition("the refused delete", tracked)
	if err := s.maintainer().ApplyContext(ctx, maintain.Mutation{Table: "T", Deletes: [][]Value{minRow}}); err != nil {
		t.Fatalf("deleting one MinInt64 row: %v", err)
	}
	asDefinition("deleting a MinInt64 row", "1 | 9223372036854775806 | 0.5#3fe0000000000000 | 1.0#3ff0000000000000\n")
}
