package aggview_test

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/obs"
)

// scanShape is one of the benchmark's base_scan templates: a query no
// view is asked to answer, run directly over all of Calls.
type scanShape struct{ name, sql string }

// scanShapes adds the benchmark's 500-row Customer table to a warehouse
// and returns the four base_scan shapes: group every row by Day; filter
// half of Calls by Day and join Customer; MAX under a Charge range; COUNT
// for one Day.
func scanShapes(t testing.TB, sys *aggview.System) []scanShape {
	t.Helper()
	sys.MustLoad(`CREATE TABLE Customer(Cust_Id, Area_Code) KEY(Cust_Id);`)
	rng := rand.New(rand.NewSource(3))
	cust := engine.NewRelation("Cust_Id", "Area_Code")
	for c := 0; c < 500; c++ {
		cust.Add(aggview.Int(int64(c)), aggview.Int(int64(200+rng.Intn(40))))
	}
	if err := sys.InsertContext(context.Background(), "Customer", cust.Tuples...); err != nil {
		t.Fatal(err)
	}
	return []scanShape{
		{"by_day", `SELECT Day, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Day`},
		{"charge_range", `SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Charge >= 500 AND Charge < 1500 GROUP BY Plan_Id`},
		{"one_day", `SELECT Month, COUNT(Call_Id) FROM Calls WHERE Day = 7 GROUP BY Month`},
		{"area_join", `SELECT Area_Code, SUM(Charge) FROM Calls, Customer WHERE Calls.Cust_Id = Customer.Cust_Id AND Day <= 14 GROUP BY Area_Code`},
	}
}

// medianAllocated returns the median of the bytes nine calls of run
// allocate. A sync.Pool hands a buffer back only to the P that put it or
// through a steal, so now and then a call — after a collection emptied a
// pool, say — refills one that the next calls then find warm; a pipeline
// that allocated what it read would do so on every call.
func medianAllocated(run func()) uint64 {
	samples := make([]uint64, 9)
	var before, after runtime.MemStats
	for i := range samples {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		samples[i] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// TestScanCostIsResultSized is the regression guard for the one-pass
// aggregation pipeline: a warm scan-filter-fold over Calls allocates its
// per-morsel partials and its result, not copies of the columns it
// reads — so it stays far under the table's size and barely grows with
// it — and a join allocates index vectors over the matched rows, not
// gathered columns of both sides. Each figure is the median of single
// calls (medianAllocated).
func TestScanCostIsResultSized(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100000-row warehouse")
	}
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop what the pipeline recycles")
	}
	perQuery := func(calls int) map[string]uint64 {
		sys := warehouse(t, calls)
		out := map[string]uint64{}
		for _, sh := range scanShapes(t, sys) {
			run := func() {
				if res, err := sys.QueryContext(context.Background(), sh.sql); err != nil || res.Len() == 0 {
					t.Fatalf("%s: empty result or error: %v", sh.name, err)
				}
			}
			run() // warm: pooled scratch, lazily built registries
			out[sh.name] = medianAllocated(run)
		}
		return out
	}
	small, large := perQuery(10_000), perQuery(100_000)
	t.Logf("bytes allocated per warm query at 10000 rows: %v", small)
	t.Logf("bytes allocated per warm query at 100000 rows: %v", large)
	// With the merged groups pooled too (PR 19) a single-table shape
	// allocates 8-16 KB, too small a base for a ratio: the per-morsel
	// slots alone (a partial, a row count and an error cell per 1024
	// rows) add about 3.5 KB over the 88 extra morsels, and measured
	// growth stays under 4 KB. So growth is bounded in bytes, at about
	// twice that: 8 KB over 90000 extra rows is under 0.1 B per row, where a
	// scan copying one int64 column would add 8 B per row and a bitmap
	// over the table 11 KB. (The 1.5x ratio this replaces allowed 10-20 KB
	// on the 19-40 KB the shapes allocated before the pooling.)
	for _, name := range []string{"by_day", "charge_range", "one_day"} {
		if large[name] >= 64<<10 {
			t.Errorf("%s over 100000 rows allocated %d B, want under 64 KB", name, large[name])
		}
		if large[name] >= small[name]+8<<10 {
			t.Errorf("%s grew from %d B at 10000 rows to %d B at 100000 (want under 8 KB more): the scan copies what it reads",
				name, small[name], large[name])
		}
	}
	// area_join: 1.25x the 19 296 B it allocated at GOMAXPROCS=2 once its
	// join became a lookup (each further worker adds under 1 KB).
	if large["area_join"] >= 24120 {
		t.Errorf("area_join over 100000 rows allocated %d B, want under 24120 B", large["area_join"])
	}
}

// TestClusteredScanSkipsChunks is the read side of chunked storage on a
// load order that lets it show: over a Calls appended in Day order (a
// chronicle's own order) every chunk spans a day or two, so the one-day
// shape reads the few chunks whose [min, max] admits Day = 7 — at least
// ten times fewer rows than over the uniform load, where every chunk
// spans all 28 days and none can be skipped — and the half-range join
// about half. Both loads hold the same rows, so each shape returns the
// same bag on both.
func TestClusteredScanSkipsChunks(t *testing.T) {
	const calls = 40 * 1024
	uniform, clustered := warehouse(t, calls), warehouse(t, 0)
	rel, _ := uniform.DB.Get("Calls")
	sort.SliceStable(rel.Tuples, func(i, j int) bool { return rel.Tuples[i][3].AsInt() < rel.Tuples[j][3].AsInt() })
	if err := clustered.InsertContext(context.Background(), "Calls", rel.Tuples...); err != nil {
		t.Fatal(err)
	}
	scanned := func(sys *aggview.System, sql string) (*aggview.Result, int64) {
		sys.Metrics = obs.NewMetrics()
		res, err := sys.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		return res, sys.Metrics.Counter("engine.scan.rows").Load()
	}
	shapes := scanShapes(t, uniform)
	scanShapes(t, clustered)
	for _, sh := range shapes {
		want, all := scanned(uniform, sh.sql)
		got, read := scanned(clustered, sh.sql)
		if !engine.ResultsEqualBag(want, got) {
			t.Errorf("%s: the Day-ordered load answers differently from the uniform one", sh.name)
		}
		t.Logf("%s: engine.scan.rows %d over the uniform load, %d over the Day-ordered one", sh.name, all, read)
		switch sh.name {
		case "one_day":
			if read*10 > all {
				t.Errorf("one_day read %d rows of the Day-ordered load against %d of the uniform one, want at least 10x fewer", read, all)
			}
		case "area_join":
			if read*100 < all*45 || read*100 > all*60 {
				t.Errorf("area_join read %d rows of the Day-ordered load against %d of the uniform one, want about half", read, all)
			}
		default:
			if read != all {
				t.Errorf("%s filters on no clustered column but read %d rows against %d", sh.name, read, all)
			}
		}
	}
}

// TestJoinCostIsResultSized is the allocation guard for the join, the one
// hot path that had none: the selection of Calls, the matched pairs and
// the composed selections are index vectors drawn through the task and
// returned as the query ends, and the key table over Customer's 500
// Cust_Ids is addressed directly out of a pooled buffer, so a warm
// area_join allocates its per-morsel slots, its partials' bookkeeping and
// its result — under 64 KB at 100000 Calls rows (660 KB when the pairs
// and the selection were exact allocations) and at most 8 KB more than at
// 10000, where one int32 per joined row would add 180 KB. The figure is
// the median of single calls (medianAllocated): now and then a call
// refills a pool with one 400 KB vector.
func TestJoinCostIsResultSized(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100000-row warehouse")
	}
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop what the pipeline recycles")
	}
	perCall := func(calls int) uint64 {
		sys := warehouse(t, calls)
		sh := scanShapes(t, sys)[3]
		if sh.name != "area_join" {
			t.Fatalf("scanShapes()[3] is %s, want area_join", sh.name)
		}
		run := func() {
			if res, err := sys.QueryContext(context.Background(), sh.sql); err != nil || res.Len() == 0 {
				t.Fatalf("%s: empty result or error: %v", sh.name, err)
			}
		}
		run() // warm: pooled scratch and index vectors, lazily built registries
		return medianAllocated(run)
	}
	small, large := perCall(10_000), perCall(100_000)
	t.Logf("bytes allocated per warm area_join: %d at 10000 rows, %d at 100000", small, large)
	if large > 64<<10 {
		t.Errorf("area_join over 100000 rows allocated %d B per call, want at most 64 KB", large)
	}
	if large > small+8<<10 {
		t.Errorf("area_join grew from %d B at 10000 rows to %d B at 100000 (want at most 8 KB more): the join allocates what it matches",
			small, large)
	}
}

// TestScanShapesTakeTheDirectPath makes a silent fall back to hashing
// fail a test instead of only reading slower: over a seeded warehouse
// every morsel of the four base_scan shapes (the first of which is
// write_mix's by_day) numbers its groups through the direct table — Day,
// Plan_Id, Month and Area_Code all lie in narrow ranges, as storage's
// chunk ranges say — and area_join numbers Customer's Cust_Ids by direct
// address; the counts repeat at every worker count.
func TestScanShapesTakeTheDirectPath(t *testing.T) {
	const calls = 12 * 1024
	sys := warehouse(t, calls)
	for _, sh := range scanShapes(t, sys) {
		var first [4]int64
		for k, workers := range []int{1, 0} {
			sys.Opts.Workers, sys.Metrics = workers, obs.NewMetrics()
			if res, err := sys.QueryContext(context.Background(), sh.sql); err != nil || res.Len() == 0 {
				t.Fatalf("%s: empty result or error: %v", sh.name, err)
			}
			got := [4]int64{}
			for i, name := range []string{"engine.agg.morsels_direct", "engine.agg.morsels_hashed", "engine.join.keys_direct", "engine.join.keys_hashed"} {
				got[i] = sys.Metrics.Counter(name).Load()
			}
			wantJoins := int64(0)
			if sh.name == "area_join" {
				wantJoins = 1
			}
			if got[0] == 0 || got[1] != 0 || got[2] != wantJoins || got[3] != 0 {
				t.Errorf("%s workers %d: %d morsels grouped directly and %d by hashing, %d joins keyed directly and %d by hashing; want every morsel and %d joins direct",
					sh.name, workers, got[0], got[1], got[2], got[3], wantJoins)
			}
			if k == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: path counters %v at GOMAXPROCS workers, %v at one", sh.name, got, first)
			}
		}
	}
}
