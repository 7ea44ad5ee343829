package oracle

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/value"
)

// handCase builds a small deterministic scenario: one keyed table, a
// SUM/COUNT view and an AVG view over it, and a step sequence hitting
// every mutation kind plus interleaved queries.
func handCase() *MutationCase {
	base := &Case{
		Tables: []*TableSpec{{
			Name: "Sales",
			Cols: []string{"Region", "Amount", "Qty"},
			Key:  nil,
			Rows: [][]value.Value{
				{value.Str("n"), value.Int(10), value.Int(1)},
				{value.Str("n"), value.Int(20), value.Int(2)},
				{value.Str("s"), value.Int(30), value.Int(3)},
			},
		}},
		Views: []*ViewSpec{
			{
				Name: "Totals",
				Def: QuerySpec{
					Select:  []string{"Region", "SUM(Amount)", "COUNT(Amount)"},
					From:    []string{"Sales"},
					GroupBy: []string{"Region"},
				},
			},
			{
				Name: "Avgs",
				Def: QuerySpec{
					Select:  []string{"Region", "AVG(Amount)"},
					From:    []string{"Sales"},
					GroupBy: []string{"Region"},
				},
			},
		},
	}
	q := QuerySpec{
		Select:  []string{"Region", "SUM(Amount)"},
		From:    []string{"Sales"},
		GroupBy: []string{"Region"},
	}
	return &MutationCase{
		Base: base,
		Steps: []MutStep{
			{Kind: StepInsert, Table: "Sales", Rows: [][]value.Value{
				{value.Str("w"), value.Int(5), value.Int(1)},
				{value.Str("n"), value.Int(7), value.Int(4)},
			}},
			{Kind: StepQuery, Query: &q},
			{Kind: StepDelete, Table: "Sales", Where: "Amount < 10"},
			{Kind: StepUpdate, Table: "Sales", Set: "Amount = Amount + 100", Where: "Region = 's'"},
			{Kind: StepQuery, Query: &q},
			{Kind: StepDelete, Table: "Sales", Where: "Region = 'w'"},
			{Kind: StepUpdate, Table: "Sales", Set: "Qty = 9", Where: ""},
			{Kind: StepQuery, Query: &q},
		},
	}
}

// The deterministic scenario must pass all three passes, maintain both
// views incrementally, and actually exercise the fault machinery.
func TestMutationHandCase(t *testing.T) {
	mc := handCase()
	out, err := CheckMutationContext(context.Background(), mc, MutOptions{Faults: []int64{1, 2, 5}})
	if err != nil {
		t.Fatalf("CheckMutation: %v", err)
	}
	if !out.OK() {
		for _, v := range out.Violations {
			t.Errorf("violation: %s", v.String())
		}
		t.Fatalf("hand case failed with %d violations", len(out.Violations))
	}
	if out.Incremental != 2 {
		t.Errorf("Incremental = %d, want 2 (SUM/COUNT and AVG views both countable)", out.Incremental)
	}
	if len(out.Modes) != 1 || out.Modes[0] != "incremental" {
		t.Errorf("Modes = %v, want [incremental]", out.Modes)
	}
	if out.Steps != len(mc.Steps) {
		t.Errorf("Steps = %d, want %d", out.Steps, len(mc.Steps))
	}
	if out.FaultRuns == 0 {
		t.Error("fault pass ran no injected mutations")
	}
}

// A view of a shape counting deltas cannot maintain is reported under the
// fallback that decided it, beside the incremental ones.
func TestMutationModesNameTheFallback(t *testing.T) {
	mc := handCase()
	mc.Base.Views = append(mc.Base.Views, &ViewSpec{
		Name: "Big",
		Def: QuerySpec{
			Select:  []string{"Region", "SUM(Amount)"},
			From:    []string{"Sales"},
			GroupBy: []string{"Region"},
			Having:  []string{"SUM(Amount) > 20"},
		},
	})
	out, err := CheckMutationContext(context.Background(), mc, MutOptions{Readers: -1})
	if err != nil || !out.OK() {
		t.Fatalf("CheckMutation: %v, %d violations", err, len(out.Violations))
	}
	if !slices.Equal(out.Modes, []string{"incremental", "recompute:having"}) {
		t.Errorf("Modes = %v, want [incremental recompute:having] (first seen, views in name order)", out.Modes)
	}
}

// The concurrent pass joins its snapshot readers before it returns: when
// CheckMutationContext returns no reader is still in a turn, and the
// goroutine count is back to its baseline. The concurrent pass runs last
// (no fault pass), and the table is large enough that a reader turn —
// two view reads and a prepared plan, each against direct evaluation —
// takes milliseconds, so an unjoined reader is caught mid-turn.
func TestMutationConcurrentPassJoinsReaders(t *testing.T) {
	mc := handCase()
	sales := mc.Base.Tables[0]
	for i := 0; i < 20000; i++ {
		sales.Rows = append(sales.Rows, []value.Value{
			value.Str([]string{"n", "s", "e"}[i%3]), value.Int(int64(i % 97)), value.Int(int64(i % 5)),
		})
	}
	for run := 0; run < 3; run++ {
		runtime.GC()
		before := runtime.NumGoroutine()
		out, err := CheckMutationContext(context.Background(), mc, MutOptions{Readers: 4})
		stacks, inTurn := readersInTurn()
		if err != nil || !out.OK() {
			t.Fatalf("CheckMutation: %v, %+v", err, out)
		}
		if inTurn > 0 {
			t.Fatalf("run %d: %d snapshot readers still in a turn after CheckMutationContext returned\n%s", run, inTurn, stacks)
		}
		// A joined reader may still be on its way out of wg.Done.
		after := runtime.NumGoroutine()
		for settle := time.Now().Add(time.Second); after > before && time.Now().Before(settle); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Fatalf("run %d: %d goroutines before CheckMutationContext, %d after it returned", run, before, after)
		}
	}
}

// readersInTurn dumps every goroutine and counts the concurrent pass's
// snapshot readers that have not reached their deferred wg.Done.
func readersInTurn() (string, int) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "created by aggview/internal/oracle.concurrentPass") && !strings.Contains(g, "WaitGroup).Done") {
			n++
		}
	}
	return stacks, n
}

// Script → ReplayMutation → Script must be the identity: shrunken
// repros printed by the soak have to replay verbatim.
func TestMutationScriptRoundTrip(t *testing.T) {
	mc := handCase()
	script := mc.Script()
	back, err := ReplayMutation(script)
	if err != nil {
		t.Fatalf("ReplayMutation: %v\nscript:\n%s", err, script)
	}
	if got := back.Script(); got != script {
		t.Fatalf("round-trip drift:\n--- original ---\n%s\n--- replayed ---\n%s", script, got)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		gen := GenerateMutation(rng, GenOptions{})
		script := gen.Script()
		back, err := ReplayMutation(script)
		if err != nil {
			t.Fatalf("trial %d: ReplayMutation: %v\nscript:\n%s", trial, err, script)
		}
		if got := back.Script(); got != script {
			t.Fatalf("trial %d: round-trip drift:\n--- original ---\n%s\n--- replayed ---\n%s", trial, script, got)
		}
	}
}

// Mutation scripts must also parse through the single-query Replay
// entry point: DELETE and UPDATE collapse into the table contents and
// the last SELECT becomes the case query.
func TestReplayCollapsesMutations(t *testing.T) {
	script := "CREATE TABLE T(A, B);\n" +
		"INSERT INTO T VALUES ('x', 1), ('x', 2), ('y', 3);\n" +
		"CREATE VIEW V AS SELECT A, SUM(B) FROM T GROUP BY A;\n" +
		"INSERT INTO T VALUES ('y', 4);\n" +
		"DELETE FROM T WHERE B < 2;\n" +
		"UPDATE T SET B = B + 10 WHERE A = 'y';\n" +
		"SELECT A, SUM(B) FROM T GROUP BY A;\n" +
		"SELECT A, COUNT(B) FROM T GROUP BY A;\n"
	c, err := Replay(script)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	want := [][]value.Value{
		{value.Str("x"), value.Int(2)},
		{value.Str("y"), value.Int(13)},
		{value.Str("y"), value.Int(14)},
	}
	got := c.Tables[0].Rows
	if !engine.ResultsEqualBag(
		&engine.Relation{Attrs: c.Tables[0].Cols, Tuples: want},
		&engine.Relation{Attrs: c.Tables[0].Cols, Tuples: got},
	) {
		t.Fatalf("collapsed rows = %v, want %v", got, want)
	}
	if len(c.Query.Select) != 2 || c.Query.Select[1] != "COUNT(B)" {
		t.Fatalf("Replay kept query %q, want the last SELECT", c.Query.SQL())
	}
	// A checked replayed case must still pass end to end.
	out, err := CheckContext(context.Background(), c, Options{})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !out.OK() {
		t.Fatalf("replayed case failed: %v", out.Violations)
	}
}

// A tampered materialization must be caught, and the shrinker must
// reduce the scenario to something minimal whose script still replays.
func TestMutationTamperCaughtAndShrinks(t *testing.T) {
	ctx := context.Background()
	mc := handCase()
	opt := MutOptions{
		Readers: -1, // serial pass only: tampering happens pre-steps
		Tamper: func(sys *aggview.System) {
			// The shrinker may have dropped this view from a candidate;
			// such candidates simply pass.
			rel, ok := sys.DB.Get("Totals")
			if !ok {
				return
			}
			bad := &engine.Relation{Attrs: rel.Attrs}
			for _, row := range rel.Tuples {
				r := append([]value.Value{}, row...)
				r[1] = value.Int(r[1].AsInt() + 1)
				bad.Tuples = append(bad.Tuples, r)
			}
			sys.DB.Apply([]engine.Commit{{Name: "Totals", Table: engine.BuildColTable(bad), Silent: true}})
		},
	}
	out, err := CheckMutationContext(ctx, mc, opt)
	if err != nil {
		t.Fatalf("CheckMutation: %v", err)
	}
	if out.OK() {
		t.Fatal("tampered materialization not caught")
	}
	shrunk := ShrinkMutationContext(ctx, mc, opt)
	if len(shrunk.Steps) != 0 {
		t.Errorf("shrunk to %d steps, want 0 (tamper fires before any step)", len(shrunk.Steps))
	}
	if len(shrunk.Base.Views) != 1 {
		t.Errorf("shrunk to %d views, want 1", len(shrunk.Base.Views))
	}
	sOut, err := CheckMutationContext(ctx, shrunk, opt)
	if err != nil {
		t.Fatalf("CheckMutation(shrunk): %v", err)
	}
	if sOut.OK() {
		t.Fatal("shrunk scenario no longer fails")
	}
	if _, err := ReplayMutation(shrunk.Script()); err != nil {
		t.Fatalf("shrunk script does not replay: %v\n%s", err, shrunk.Script())
	}
}

// A passing scenario must come back from the shrinker untouched.
func TestShrinkMutationKeepsPassingCase(t *testing.T) {
	mc := handCase()
	if got := ShrinkMutationContext(context.Background(), mc, MutOptions{Readers: -1}); got != mc {
		t.Fatal("ShrinkMutation shrank a passing scenario")
	}
}

// A quick seeded soak slice: generated scenarios with concurrency and
// faults on must hold. The full gate lives in scripts/check.sh via
// cmd/oraclerunner -mutate.
func TestMutationSoakSlice(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(42))
	incremental := 0
	for trial := 0; trial < trials; trial++ {
		mc := GenerateMutation(rng, GenOptions{})
		opt := MutOptions{Faults: []int64{1 + rng.Int63n(4)}}
		out, err := CheckMutationContext(context.Background(), mc, opt)
		if err != nil {
			t.Fatalf("trial %d: CheckMutation: %v", trial, err)
		}
		if !out.OK() {
			shrunk := ShrinkMutationContext(t.Context(), mc, opt)
			t.Fatalf("trial %d: %d violations; first: %s\nminimal repro:\n%s",
				trial, len(out.Violations), out.Violations[0].String(), shrunk.Script())
		}
		incremental += out.Incremental
	}
	if incremental == 0 {
		t.Error("no generated view tracked incrementally across the soak slice")
	}
}

// Generated update steps must never assign a declared key column —
// that would silently break the KEY contract mid-scenario.
func TestGenerateMutationRespectsKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		mc := GenerateMutation(rng, GenOptions{})
		keyed := map[string]map[string]bool{}
		for _, tb := range mc.Base.Tables {
			m := map[string]bool{}
			for _, k := range tb.Key {
				m[strings.ToLower(k)] = true
			}
			keyed[tb.Name] = m
		}
		for _, st := range mc.Steps {
			if st.Kind != StepUpdate {
				continue
			}
			for _, assign := range strings.Split(st.Set, ", ") {
				col := strings.ToLower(strings.TrimSpace(strings.SplitN(assign, "=", 2)[0]))
				if keyed[st.Table][col] {
					t.Fatalf("trial %d: UPDATE assigns key column %s of %s: %s", trial, col, st.Table, st.SQL())
				}
			}
		}
	}
}
