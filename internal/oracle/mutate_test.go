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
	"aggview/internal/faultinject"
	"aggview/internal/value"
)

// handCase builds a small deterministic scenario: one table, a
// SUM/COUNT view and an AVG view over it, and a step sequence hitting
// every mutation kind plus interleaved queries.
func handCase() *Case {
	c := &Case{
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
	c.Steps = []Step{
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
	}
	return c
}

// The deterministic scenario must pass all three passes, maintain both
// views incrementally, check its query steps through the rewriter, and
// actually exercise the fault machinery.
func TestMutationHandCase(t *testing.T) {
	mc := handCase()
	var faults []faultinject.Spec
	for _, k := range []int64{1, 2, 5} {
		faults = append(faults, faultinject.Spec{Site: faultinject.SiteMaintain, K: k})
	}
	out, err := CheckContext(context.Background(), mc, Options{Faults: faults})
	if err != nil {
		t.Fatalf("Check: %v", err)
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
	if out.Rewritings == 0 {
		t.Error("no query step was checked through a rewriting")
	}
	if out.FaultRuns == 0 {
		t.Error("fault pass ran no injected mutations")
	}
}

// TestMutationScriptRoundTrip checks Script → Replay → Script is the
// identity over the mutation generator's output and the hand scenario:
// a mutation script replays as itself.
func TestMutationScriptRoundTrip(t *testing.T) {
	checkRoundTrips(t, map[string][]roundTripScript{
		"mutation": generatedScripts(GenerateMutation),
		"hand":     {{sql: handCase().Script()}},
	})
}

// A view of a shape counting deltas cannot maintain is reported under the
// fallback that decided it, beside the incremental ones.
func TestMutationModesNameTheFallback(t *testing.T) {
	mc := handCase()
	mc.Views = append(mc.Views, &ViewSpec{
		Name: "Big",
		Def: QuerySpec{
			Select:  []string{"Region", "SUM(Amount)"},
			From:    []string{"Sales"},
			GroupBy: []string{"Region"},
			Having:  []string{"SUM(Amount) > 20"},
		},
	})
	out, err := CheckContext(context.Background(), mc, Options{Readers: -1})
	if err != nil || !out.OK() {
		t.Fatalf("Check: %v, %d violations", err, len(out.Violations))
	}
	if !slices.Equal(out.Modes, []string{"incremental", "recompute:having"}) {
		t.Errorf("Modes = %v, want [incremental recompute:having] (first seen, views in name order)", out.Modes)
	}
}

// The concurrent pass joins its snapshot readers before it returns: when
// CheckContext returns no reader is still in a turn, and the
// goroutine count is back to its baseline. The concurrent pass runs last
// (no fault pass), and the table is large enough that a reader turn —
// two view reads and a prepared plan, each against direct evaluation —
// takes milliseconds, so an unjoined reader is caught mid-turn.
func TestMutationConcurrentPassJoinsReaders(t *testing.T) {
	mc := handCase()
	sales := mc.Tables[0]
	for i := 0; i < 20000; i++ {
		sales.Rows = append(sales.Rows, []value.Value{
			value.Str([]string{"n", "s", "e"}[i%3]), value.Int(int64(i % 97)), value.Int(int64(i % 5)),
		})
	}
	for run := 0; run < 3; run++ {
		runtime.GC()
		before := runtime.NumGoroutine()
		out, err := CheckContext(context.Background(), mc, Options{Readers: 4})
		stacks, inTurn := readersInTurn()
		if err != nil || !out.OK() {
			t.Fatalf("Check: %v, %+v", err, out)
		}
		if inTurn > 0 {
			t.Fatalf("run %d: %d snapshot readers still in a turn after CheckContext returned\n%s", run, inTurn, stacks)
		}
		// A joined reader may still be on its way out of wg.Done.
		after := runtime.NumGoroutine()
		for settle := time.Now().Add(time.Second); after > before && time.Now().Before(settle); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Fatalf("run %d: %d goroutines before CheckContext, %d after it returned", run, before, after)
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

// A tampered rewriting in a scenario must be caught, and the shrinker
// must reduce the scenario to one query step over one view whose script
// still replays, as itself, to a failing case.
func TestMutationTamperCaughtAndShrinks(t *testing.T) {
	ctx := context.Background()
	mc := handCase()
	opt := Options{Tamper: tamperAlwaysFail, Readers: -1}
	out, err := CheckContext(ctx, mc, opt)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if out.OK() {
		t.Fatal("tampered rewriting not caught")
	}
	shrunk := ShrinkContext(ctx, mc, opt)
	if len(shrunk.Steps) != 1 || shrunk.Steps[0].Kind != StepQuery {
		t.Errorf("shrunk to steps %v, want the one query step", shrunk.Steps)
	}
	if len(shrunk.Views) != 1 {
		t.Errorf("shrunk to %d views, want 1", len(shrunk.Views))
	}
	replayed, err := Replay(shrunk.Script())
	if err != nil {
		t.Fatalf("shrunk script does not replay: %v\n%s", err, shrunk.Script())
	}
	if replayed.Script() != shrunk.Script() {
		t.Fatalf("shrunk script does not replay as itself:\n%s", shrunk.Script())
	}
	if sOut, err := CheckContext(ctx, replayed, opt); err != nil || sOut.OK() {
		t.Fatalf("replayed shrunk scenario no longer fails: %v\n%s", err, shrunk.Script())
	}
}

// A maintained view that drifts from its definition is caught: Totals'
// materialization is corrupted behind the maintainer's back.
func TestCheckViewsCatchesDivergence(t *testing.T) {
	ctx := context.Background()
	c := handCase()
	sys, err := c.CompileContext(ctx, aggview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := &Outcome{}
	if err := checkViews(ctx, sys, c.Views, "track", out); err != nil || !out.OK() {
		t.Fatalf("fresh views diverge: %v %v", err, out.Violations)
	}
	rel, _ := sys.DB.Get("Totals")
	bad := &engine.Relation{Attrs: rel.Attrs}
	for _, row := range rel.Tuples {
		r := append([]value.Value{}, row...)
		r[1] = value.Int(r[1].AsInt() + 1)
		bad.Tuples = append(bad.Tuples, r)
	}
	sys.DB.Apply([]engine.Commit{{Name: "Totals", Table: engine.BuildColTable(bad), Silent: true}})
	if err := checkViews(ctx, sys, c.Views, "tamper", out); err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 1 || out.Violations[0].Fault != "tamper:view=Totals" || out.Violations[0].Got == nil {
		t.Fatalf("corrupted view not caught once: %v", out.Violations)
	}
}

// A passing scenario must come back from the shrinker untouched.
func TestShrinkMutationKeepsPassingCase(t *testing.T) {
	mc := handCase()
	if got := ShrinkContext(context.Background(), mc, Options{Readers: -1}); got != mc {
		t.Fatal("ShrinkContext shrank a passing scenario")
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
		opt := Options{Faults: []faultinject.Spec{{Site: faultinject.SiteMaintain, K: 1 + rng.Int63n(4)}}}
		out, err := CheckContext(context.Background(), mc, opt)
		if err != nil {
			t.Fatalf("trial %d: Check: %v", trial, err)
		}
		if !out.OK() {
			shrunk := ShrinkContext(t.Context(), mc, opt)
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
		for _, tb := range mc.Tables {
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
