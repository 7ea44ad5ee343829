package maintain

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aggview/internal/budget"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// scratchViews read T(Id, G, I, F, B) every way a write stages: SUM and
// COUNT(*) with MIN/MAX read from the delta table, a float SUM and AVG,
// a delta query (the computed argument), and a conjunctive view.
var scratchViews = map[string]string{
	"VS": "SELECT G, SUM(B), COUNT(*), MIN(F), MAX(F) FROM T GROUP BY G",
	"VF": "SELECT G, SUM(F), AVG(F) FROM T GROUP BY G",
	"VQ": "SELECT G, SUM(I * 2), MAX(I) FROM T GROUP BY G",
	"VC": "SELECT G, F FROM T WHERE I > 0",
}

// scratchSystem tracks scratchViews over an empty T.
func scratchSystem(t *testing.T) (*Maintainer, *engine.DB) {
	t.Helper()
	m, db := system(t, "T", []string{"Id", "G", "I", "F", "B"}, scratchViews)
	m.Metrics = obs.NewMetrics()
	for name := range scratchViews {
		if inc, err := m.TrackContext(context.Background(), name); err != nil || !inc {
			t.Fatalf("%s: incremental=%v err=%v", name, inc, err)
		}
	}
	return m, db
}

// holdsEveryView checks each tracked view against its rebuild (the
// counting state and rows) and against its definition.
func holdsEveryView(t *testing.T, m *Maintainer, db *engine.DB, batch int) {
	t.Helper()
	for _, name := range m.Tracked() {
		if !m.tracked[name].conjunctive {
			sameAsRebuild(t, m, name, batch)
		}
		def, _ := m.views.Get(name)
		want, err := engine.NewEvaluator(db, m.views).ExecContext(context.Background(), def.Def)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := db.Get(name); !engine.ResultsEqualBag(got, want) {
			t.Fatalf("batch %d: %s diverged from its definition:\n%s\nwant:\n%s", batch, name, got.Sorted(), want.Sorted())
		}
	}
}

// TestAbortedBatchesLeaveScratchTheNextBatchResets aborts two batches
// after every view absorbed their delta — one whose new int total leaves
// int64 while the views are staged, one at the maintenance site before
// the commit, when every view has staged its rows — and holds the good
// batches after each to the rebuild and the definition: whatever the
// aborted batch left in a view's scratch (touched groups, keys, drops,
// staged rows) shows in no view.
func TestAbortedBatchesLeaveScratchTheNextBatchResets(t *testing.T) {
	ctx := context.Background()
	m, db := scratchSystem(t)
	id := int64(0)
	row := func(g, i int64, f float64, b int64) []value.Value {
		id++
		return []value.Value{value.Int(id), value.Int(g), value.Int(i), value.Float(f), value.Int(b)}
	}
	var rows [][]value.Value
	for g := int64(0); g < 12; g++ {
		rows = append(rows, row(g, g-3, float64(g)/2, 10*g), row(g, 1, -float64(g), 1))
	}
	big := row(20, 1, 0.25, math.MaxInt64-10)
	rows = append(rows, big)
	if err := m.InsertContext(ctx, "T", rows...); err != nil {
		t.Fatal(err)
	}

	// A batch that deletes, updates and creates groups, every view's
	// scratch touched, then aborted.
	dirty := func() Mutation {
		mut := Mutation{Table: "T", Deletes: [][]value.Value{rows[0], rows[1], rows[4]}}
		for g := int64(30); g < 40; g++ {
			mut.Inserts = append(mut.Inserts, row(g, 5, 1.5, g))
		}
		return mut
	}
	before := func() (map[string]*engine.ColTable, map[string]map[string]int64) {
		tabs, counts := map[string]*engine.ColTable{}, map[string]map[string]int64{}
		for _, name := range append(m.Tracked(), "T") {
			tabs[name], _, _ = db.Scan(name)
			counts[name], _ = m.GroupCounts(name)
		}
		return tabs, counts
	}
	unchanged := func(what string, tabs map[string]*engine.ColTable, counts map[string]map[string]int64) {
		t.Helper()
		for name, tab := range tabs {
			if now, _, _ := db.Scan(name); now != tab {
				t.Fatalf("%s installed a version of %s", what, name)
			}
			if now, _ := m.GroupCounts(name); !reflect.DeepEqual(now, counts[name]) {
				t.Fatalf("%s changed %s's counting state", what, name)
			}
		}
	}

	// The new total of group 20's SUM(B) leaves int64 once VS stages it,
	// after the other three views have staged theirs.
	tabs, counts := before()
	over := dirty()
	over.Inserts = append(over.Inserts, row(20, 1, 0.75, 100))
	var ov *value.OverflowError
	if err := m.ApplyContext(ctx, over); !errors.As(err, &ov) {
		t.Fatalf("the overflowing batch returned %v, want a *value.OverflowError", err)
	}
	unchanged("the overflowing batch", tabs, counts)
	good := Mutation{Table: "T", Deletes: [][]value.Value{rows[2], big}, Inserts: [][]value.Value{row(0, 7, 3, 3), row(30, 2, 2, 2), row(5, -1, 0.5, 5)}}
	if err := m.ApplyContext(ctx, good); err != nil {
		t.Fatal(err)
	}
	holdsEveryView(t, m, db, 1)

	// One maintenance site per view, then the commit point.
	tabs, counts = before()
	in := faultinject.New(faultinject.SiteMaintain, int64(len(scratchViews)+1))
	fctx, cancel := in.Arm(ctx)
	err := m.ApplyContext(fctx, dirty())
	cancel()
	if !in.Fired() || !budget.IsCanceled(err) {
		t.Fatalf("the batch aborted at the commit point returned %v (fired %v)", err, in.Fired())
	}
	unchanged("the batch aborted at the commit point", tabs, counts)
	if err := m.ApplyContext(ctx, Mutation{Table: "T", Deletes: [][]value.Value{rows[6]}, Inserts: [][]value.Value{row(6, 4, 4, 4), row(31, 3, 3, 3)}}); err != nil {
		t.Fatal(err)
	}
	holdsEveryView(t, m, db, 2)
	if err := m.ApplyContext(ctx, dirty()); err != nil {
		t.Fatal(err)
	}
	holdsEveryView(t, m, db, 3)
}

// TestScratchStagesOnlyItsOwnBatch runs a batch that touches many groups
// — dropping some, patching some, creating some — then one that touches
// a single group: the view's kept scratch stages that group alone, with
// no key, patched row, dropped row or appended row left from the batch
// before.
func TestScratchStagesOnlyItsOwnBatch(t *testing.T) {
	ctx := context.Background()
	m, db := scratchSystem(t)
	row := func(id, g int64) []value.Value {
		return []value.Value{value.Int(id), value.Int(g), value.Int(g), value.Float(float64(g)), value.Int(g)}
	}
	var rows [][]value.Value
	for g := int64(0); g < 200; g++ {
		rows = append(rows, row(g, g))
	}
	if err := m.InsertContext(ctx, "T", rows...); err != nil {
		t.Fatal(err)
	}
	many := Mutation{Table: "T", Deletes: rows[:100]} // 50 groups vanish, 50 are patched
	for g := int64(0); g < 50; g++ {
		many.Inserts = append(many.Inserts, row(1000+g, 2*g+1), row(2000+g, 500+g))
	}
	if err := m.ApplyContext(ctx, many); err != nil {
		t.Fatal(err)
	}
	st := m.tracked["VS"]
	p := st.scratch
	if p == nil || len(p.keys) != 150 || len(p.drop) != 50 || len(p.setAt) != 50 || len(p.appends) != 50 {
		t.Fatalf("the first batch staged %d keys, %d drops, %d patched and %d appended rows, want 150, 50, 50, 50", len(p.keys), len(p.drop), len(p.setAt), len(p.appends))
	}
	holdsEveryView(t, m, db, 1)

	touched := m.Metrics.Volatile("maintain.groups.touched")
	t0 := touched.Load()
	if err := m.ApplyContext(ctx, Mutation{Table: "T", Inserts: [][]value.Value{row(3000, 199)}}); err != nil {
		t.Fatal(err)
	}
	if st.scratch != p {
		t.Fatal("the view did not keep its scratch")
	}
	if len(p.keys) != 1 || len(p.groups) != 1 || len(p.drop) != 0 || len(p.setAt) != 1 || len(p.setRows) != 1 || len(p.appends) != 0 {
		t.Fatalf("a one-group batch staged %d keys (%d groups), %d drops, %d patched and %d appended rows, want 1, 1, 0, 1, 0", len(p.keys), len(p.groups), len(p.drop), len(p.setAt), len(p.appends))
	}
	if g := st.groups[p.keys[0]]; g == nil || p.setAt[0] != int32(g.pos) || p.setRows[0][0].AsInt() != 199 {
		t.Fatalf("the one-group batch patched row %d with %v, want group 199's", p.setAt[0], p.setRows[0])
	}
	if n := touched.Load() - t0; n != 3 { // VS, VF, VQ
		t.Fatalf("a one-group batch touched %d groups across the three aggregation views, want 3", n)
	}
	holdsEveryView(t, m, db, 2)
}

// TestBulkWriteKeepsNoScratch inserts 5000 rows, each a group of its
// own, into tracked views: the views and the maintainer let go of what
// the write staged (the keys, slabs and rows of 5000 groups, the signed
// delta's 5000 rows), and the next write builds small buffers afresh.
func TestBulkWriteKeepsNoScratch(t *testing.T) {
	ctx := context.Background()
	m, db := scratchSystem(t)
	row := func(id int64) []value.Value {
		return []value.Value{value.Int(id), value.Int(id), value.Int(1), value.Float(0.5), value.Int(id)}
	}
	if err := m.InsertContext(ctx, "T", row(-1)); err != nil {
		t.Fatal(err)
	}
	for name, st := range m.tracked {
		if st.scratch == nil {
			t.Fatalf("%s keeps no scratch after a one-row write", name)
		}
	}
	bulk := make([][]value.Value, 5000)
	for i := range bulk {
		bulk[i] = row(int64(i))
	}
	if err := m.InsertContext(ctx, "T", bulk...); err != nil {
		t.Fatal(err)
	}
	for name, st := range m.tracked {
		if st.scratch != nil {
			t.Fatalf("%s kept the scratch of a 5000-group write", name)
		}
	}
	if m.deltaCells != nil || m.deltaRows != nil {
		t.Fatal("the maintainer kept a 5000-row signed delta's buffers")
	}
	if err := m.InsertContext(ctx, "T", row(9000)); err != nil {
		t.Fatal(err)
	}
	if p := m.tracked["VS"].scratch; p == nil || cap(p.slab) > slabChunk || cap(m.deltaCells) > 6 {
		t.Fatal("the write after the bulk one did not start small buffers of its own")
	}
	holdsEveryView(t, m, db, 1)
}

// TestSteadyWriteAllocations bounds what a steady-state 16-row insert
// into the benchmark's six-view warehouse allocates, in objects: once
// each view keeps its scratch, a write allocates its signed delta table,
// the created groups' values and keys, the live MIN/MAX multisets'
// growth, the engine's new chunks and V1's key lookup, not its staging,
// the keys of the live groups it touches or the batch's commit list.
// Measured: 254 objects (256 under the race detector), bound 1.25x that;
// 331 (bound 400) while V1 ran a delta query and each batch allocated its
// commit list, sorted the tracked views and boxed each view's staged
// output; 517 while every batch built its staging afresh.
func TestSteadyWriteAllocations(t *testing.T) {
	ctx := context.Background()
	m, _ := warehouse(t, 3000)
	if err := trackWarehouse(ctx, m); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	rng := rand.New(rand.NewSource(2))
	batches := make([][][]value.Value, runs+1)
	for b := range batches {
		for i := 0; i < 16; i++ {
			batches[b] = append(batches[b], callRow(rng, 3000+16*b+i))
		}
	}
	b := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := m.ApplyContext(ctx, Mutation{Table: "Calls", Inserts: batches[b]}); err != nil {
			t.Fatal(err)
		}
		b++
	})
	t.Logf("a 16-row insert into six tracked views allocates %.0f objects", allocs)
	if steadyWriteAllocs := 318; allocs > float64(steadyWriteAllocs) {
		t.Fatalf("a steady 16-row insert allocated %.0f objects, want at most %d", allocs, steadyWriteAllocs)
	}
}

// warehouse builds the benchmark's six views, untracked, over a Calls
// table of the given size and the ten calling plans, keyed by Plan_Id as
// the benchmark declares them, with a maintainer that reports to fresh
// metrics.
func warehouse(t *testing.T, calls int) (*Maintainer, *engine.DB) {
	t.Helper()
	cols := []string{"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge"}
	db := engine.NewDB()
	db.Put("Calling_Plans", engine.NewRelation("Plan_Id", "Plan_Name"))
	var plans [][]value.Value
	for p := int64(0); p < 10; p++ {
		plans = append(plans, []value.Value{value.Int(p), value.Str(fmt.Sprintf("plan_%02d", p))})
	}
	rng := rand.New(rand.NewSource(1))
	rel := engine.NewRelation(cols...)
	for i := 0; i < calls; i++ {
		rel.Tuples = append(rel.Tuples, callRow(rng, i))
	}
	db.Put("Calls", rel)
	reg := ir.NewRegistry()
	source := ir.MapSource{"Calls": cols, "Calling_Plans": {"Plan_Id", "Plan_Name"}}
	for _, v := range warehouseViews {
		def, err := ir.NewViewDef(v.name, ir.MustBuild(v.sql, source))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(def); err != nil {
			t.Fatal(err)
		}
	}
	m := New(db, reg)
	if err := m.DeclareKey("Calling_Plans", []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertContext(context.Background(), "Calling_Plans", plans...); err != nil {
		t.Fatal(err)
	}
	m.Metrics = obs.NewMetrics()
	return m, db
}

// trackWarehouse tracks the six views, each incrementally.
func trackWarehouse(ctx context.Context, m *Maintainer) error {
	for _, v := range warehouseViews {
		if inc, err := m.TrackContext(ctx, v.name); err != nil || !inc {
			return fmt.Errorf("tracking %s: incremental=%v err=%v", v.name, inc, err)
		}
	}
	return nil
}
