package server_test

import (
	"context"
	"math/rand"
	"testing"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/oracle"
	"aggview/internal/server"
	"aggview/internal/value"
)

// TestOracleWirePass runs the differential oracle with the serving
// stack attached: every generated case is additionally answered through
// the in-process HTTP path (admission, plan cache cold and warm, JSON
// codec) and must stay bag-equal to direct evaluation.
func TestOracleWirePass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	if testing.Short() {
		n = 10
	}
	for trial := 0; trial < n; trial++ {
		c := oracle.Generate(rng, oracle.GenOptions{})
		out, err := oracle.CheckContext(context.Background(), c, oracle.Options{Serve: server.OracleExec})
		if err != nil {
			t.Fatalf("trial %d: case rejected: %v\nscript:\n%s", trial, err, c.Script())
		}
		if !out.OK() {
			t.Fatalf("trial %d: %s\nscript:\n%s", trial, out.Violations[0].String(), c.Script())
		}
	}
}

// TestOracleWirePassCatchesCorruption proves the wire pass has teeth: a
// serving stack that corrupts answers must surface as a violation with
// the wire fault tag.
func TestOracleWirePassCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := oracle.Generate(rng, oracle.GenOptions{})
	corrupting := func(sys *aggview.System) (func(ctx context.Context, sql string) (*engine.Relation, error), func(), error) {
		exec, shutdown, err := server.OracleExec(sys)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context, sql string) (*engine.Relation, error) {
			rel, err := exec(ctx, sql)
			if err != nil {
				return nil, err
			}
			bad := engine.NewRelation(rel.Attrs...)
			for _, tup := range rel.Tuples {
				bad.Add(tup...)
			}
			row := make([]value.Value, len(rel.Attrs))
			for i := range row {
				row[i] = value.Int(987654321)
			}
			bad.Add(row...)
			return bad, nil
		}, shutdown, nil
	}
	out, err := oracle.CheckContext(context.Background(), c, oracle.Options{Serve: corrupting})
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("corrupted wire answers went unnoticed")
	}
	v := out.Violations[0]
	if v.Fault != "wire" && v.Fault != "wire-cached" {
		t.Fatalf("violation fault=%q, want wire/wire-cached", v.Fault)
	}
}
