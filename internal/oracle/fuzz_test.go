package oracle

import (
	"context"
	"math/rand"
	"testing"
)

// FuzzOracleRoundTrip drives the whole oracle from a single fuzzed
// seed: generate a case with each generator, check it, and require the
// Script/Replay round trip to be lossless. Run with
//
//	go test -fuzz FuzzOracleRoundTrip ./internal/oracle
//
// for open-ended exploration; under plain `go test` the seed corpus
// alone runs.
func FuzzOracleRoundTrip(f *testing.F) {
	ctx := context.Background()
	for _, seed := range []int64{0, 1, 2, 3, 42, 1996, 20260806} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, g := range generators {
			c := g.gen(rand.New(rand.NewSource(seed)), GenOptions{})
			out, err := CheckContext(ctx, c, Options{})
			if err != nil {
				t.Fatalf("%s seed %d: generated case rejected:\n%s\nerror: %v", g.name, seed, c.Script(), err)
			}
			if !out.OK() {
				min := ShrinkContext(ctx, c, Options{})
				t.Fatalf("%s seed %d: violation\n%s\nminimal repro script:\n%s",
					g.name, seed, out.Violations[0].String(), min.Script())
			}
			script := c.Script()
			back, err := Replay(script)
			if err != nil {
				t.Fatalf("%s seed %d: script does not replay:\n%s\nerror: %v", g.name, seed, script, err)
			}
			if got := back.Script(); got != script {
				t.Fatalf("%s seed %d: round trip not stable:\n--- first\n%s\n--- second\n%s", g.name, seed, script, got)
			}
		}
	})
}
