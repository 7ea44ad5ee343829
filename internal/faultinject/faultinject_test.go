package faultinject

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestFaultInjectFiresAtKthObservation(t *testing.T) {
	in := New(SiteRow, 3)
	ctx, cancel := in.Arm(context.Background())
	defer cancel()

	in.Observe(SiteRow, 1)
	in.Observe(SiteRow, 1)
	if ctx.Err() != nil || in.Fired() {
		t.Fatal("fired before the k-th observation")
	}
	in.Observe(SiteRow, 1)
	if ctx.Err() == nil || !in.Fired() {
		t.Fatal("did not fire at the k-th observation")
	}
}

func TestFaultInjectWeightedObservation(t *testing.T) {
	in := New(SiteRow, 100)
	ctx, cancel := in.Arm(context.Background())
	defer cancel()

	in.Observe(SiteRow, 64)
	if ctx.Err() != nil {
		t.Fatal("fired below k")
	}
	// A batch crossing the threshold fires even mid-batch.
	in.Observe(SiteRow, 64)
	if ctx.Err() == nil {
		t.Fatal("crossing batch did not fire")
	}
}

func TestFaultInjectSiteFiltered(t *testing.T) {
	in := New(SiteCandidate, 1)
	ctx, cancel := in.Arm(context.Background())
	defer cancel()

	in.Observe(SiteRow, 1000)
	in.Observe(SiteCache, 1000)
	if ctx.Err() != nil {
		t.Fatal("fired on a different site")
	}
	in.Observe(SiteCandidate, 1)
	if ctx.Err() == nil {
		t.Fatal("did not fire on its own site")
	}
}

func TestFaultInjectNilSafe(t *testing.T) {
	var in *Injector
	in.Observe(SiteRow, 1) // must not panic
	if in.Fired() {
		t.Fatal("nil injector fired")
	}
	if From(context.Background()) != nil {
		t.Fatal("background context carries an injector")
	}
}

func TestFaultInjectFromContext(t *testing.T) {
	in := New(SiteCache, 2)
	ctx, cancel := in.Arm(context.Background())
	defer cancel()
	if got := From(ctx); got != in {
		t.Fatalf("From = %v, want %v", got, in)
	}
}

// TestFaultInjectConcurrentObserveFiresOnce pins that a pool of
// observers cancels exactly once and that every observer returns (no
// deadlock or double-cancel panic under -race).
func TestFaultInjectConcurrentObserveFiresOnce(t *testing.T) {
	in := New(SiteRow, 500)
	ctx, cancel := in.Arm(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.Observe(SiteRow, 1)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() == nil || !in.Fired() {
		t.Fatal("1600 observations past k=500 did not fire")
	}
}

// TestFaultInjectFailingMode pins the failing mode: scans before the
// k-th pass, the k-th and every later one return a typed *Injected, the
// context is never canceled, and one injector riding two contexts counts
// their scans down once, together.
func TestFaultInjectFailingMode(t *testing.T) {
	in := Failing(3)
	ctx, cancel := in.Arm(context.Background())
	defer cancel()
	other := With(context.Background(), in)
	for i, c := range []context.Context{ctx, other} {
		if err := From(c).ObserveScan("T"); err != nil || in.Fired() {
			t.Fatalf("scan %d of k=3 failed early: %v", i+1, err)
		}
	}
	for i := 0; i < 4; i++ {
		c := []context.Context{ctx, other}[i%2]
		err := From(c).ObserveScan("T")
		var inj *Injected
		if !errors.As(err, &inj) || inj.Site != SiteStorage || inj.Op != "scan T" {
			t.Fatalf("scan %d past k: got %v, want an injected storage fault", i+3, err)
		}
	}
	if !in.Fired() || ctx.Err() != nil || other.Err() != nil {
		t.Fatalf("fired %v, ctx errs %v / %v: a failing injector fails scans and cancels nothing", in.Fired(), ctx.Err(), other.Err())
	}
	// Only scans count: other sites' observations leave it alone.
	quiet := Failing(1)
	quiet.Observe(SiteStorage, 5)
	quiet.Observe(SiteRow, 5)
	if quiet.Fired() {
		t.Fatal("Observe counted toward a failing injector")
	}
}
