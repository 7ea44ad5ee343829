package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aggview/internal/budget"
	"aggview/internal/obs"
)

// TestAdmissionSaturationSheds pins the core no-hang contract: with the
// global gate saturated, new requests receive typed shed errors within
// a bounded wait — never a hang — and the admitted request is never
// dropped.
func TestAdmissionSaturationSheds(t *testing.T) {
	const maxWait = 50 * time.Millisecond
	a := NewAdmission(TenantConfig{}, nil, 1, 1, maxWait, obs.NewMetrics())
	ctx := context.Background()

	_, release, err := a.Acquire(ctx, "t0")
	if err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 1 {
		t.Fatalf("InFlight=%d, want 1", a.InFlight())
	}

	// Second request: queues (depth 1), then sheds after maxWait.
	start := time.Now()
	waiterErr := make(chan error, 1)
	go func() {
		_, r2, err := a.Acquire(ctx, "t1")
		if r2 != nil {
			r2()
		}
		waiterErr <- err
	}()

	// Third request while the second occupies the queue: immediate
	// queue_full shed. Wait for the second to actually be parked first.
	deadlineFull := time.Now().Add(2 * time.Second)
	for a.Queued() < 1 {
		if time.Now().After(deadlineFull) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, r3, err := a.Acquire(ctx, "t2")
	if r3 != nil {
		r3()
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("queue overflow returned %T %v, want *ShedError", err, err)
	}
	if shed.Reason != ShedQueueFull {
		t.Fatalf("reason=%q, want %q", shed.Reason, ShedQueueFull)
	}

	select {
	case err := <-waiterErr:
		elapsed := time.Since(start)
		var shed *ShedError
		if !errors.As(err, &shed) || shed.Reason != ShedConcurrency {
			t.Fatalf("queued request got %v, want concurrency shed", err)
		}
		if shed.RetryAfter <= 0 {
			t.Fatal("shed without a retry hint")
		}
		if elapsed > 10*maxWait {
			t.Fatalf("shed took %v, bound is %v", elapsed, maxWait)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued request hung past its wait bound")
	}

	// The admitted request was untouched by the saturation; releasing
	// frees the slot for new work.
	release()
	_, r4, err := a.Acquire(ctx, "t0")
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	r4()
	if a.InFlight() != 0 {
		t.Fatalf("InFlight=%d after releases, want 0", a.InFlight())
	}
}

// TestAdmissionRateBucket pins the per-tenant token bucket: burst
// admits immediately, the next request's computed wait exceeds MaxWait
// and sheds with reason "rate", and tenants do not share buckets.
func TestAdmissionRateBucket(t *testing.T) {
	cfg := TenantConfig{Rate: 1, Burst: 1, MaxWait: 10 * time.Millisecond}
	a := NewAdmission(cfg, nil, 0, 0, 0, obs.NewMetrics())
	ctx := context.Background()

	_, r1, err := a.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	r1()
	_, r2, err := a.Acquire(ctx, "a")
	if r2 != nil {
		r2()
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedRate {
		t.Fatalf("second request in the same second got %v, want rate shed", err)
	}
	if shed.Tenant != "a" {
		t.Fatalf("shed names tenant %q, want a", shed.Tenant)
	}
	// Tenant b has its own bucket.
	if _, r3, err := a.Acquire(ctx, "b"); err != nil {
		t.Fatalf("other tenant was starved: %v", err)
	} else {
		r3()
	}
}

// TestAdmissionRateQueueing pins the bounded-wait path: with queueing
// allowed and the wait within MaxWait, the request parks and is then
// admitted (no shed), and a canceled waiter returns a typed Canceled
// with its reservation refunded.
func TestAdmissionRateQueueing(t *testing.T) {
	cfg := TenantConfig{Rate: 50, Burst: 1, MaxQueue: 4, MaxWait: time.Second}
	m := obs.NewMetrics()
	a := NewAdmission(cfg, nil, 0, 0, 0, m)
	ctx := context.Background()

	if _, r, err := a.Acquire(ctx, "t"); err != nil {
		t.Fatal(err)
	} else {
		r()
	}
	start := time.Now()
	_, r, err := a.Acquire(ctx, "t") // ~20ms wait at 50 rps
	if err != nil {
		t.Fatalf("queueable request was refused: %v", err)
	}
	r()
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("waited %v for a ~20ms token", elapsed)
	}
	// The queue wait is a wall-clock duration: it lands in the latency
	// histogram, one observation of at most one token's period (20ms).
	if ls := m.Snapshot().Latencies["server.admission.wait"]; ls.Count != 1 || ls.SumNs <= 0 || ls.SumNs > int64(20*time.Millisecond) {
		t.Fatalf("server.admission.wait = %+v, want one observation in (0, 20ms]", ls)
	}

	// A canceled waiter must unblock promptly with a typed error.
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, r, err := a.Acquire(cctx, "t")
		if r != nil {
			r()
		}
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != nil && !budget.IsCanceled(err) {
			t.Fatalf("canceled waiter got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter hung")
	}
}

// TestAdmissionNoDropUnderStorm hammers a tiny gate from many
// goroutines: every request either executes or sheds typed; admitted
// work always completes and the gate's occupancy returns to zero.
func TestAdmissionNoDropUnderStorm(t *testing.T) {
	a := NewAdmission(TenantConfig{}, nil, 2, 2, 20*time.Millisecond, obs.NewMetrics())
	var wg sync.WaitGroup
	var mu sync.Mutex
	executed, shed := 0, 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, release, err := a.Acquire(context.Background(), "t")
			if err != nil {
				var s *ShedError
				if !errors.As(err, &s) {
					t.Errorf("non-shed failure: %v", err)
					return
				}
				mu.Lock()
				shed++
				mu.Unlock()
				return
			}
			time.Sleep(time.Millisecond)
			release()
			mu.Lock()
			executed++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if executed == 0 {
		t.Fatal("nothing executed")
	}
	if executed+shed != 64 {
		t.Fatalf("executed=%d shed=%d, %d requests unaccounted for", executed, shed, 64-executed-shed)
	}
	if a.InFlight() != 0 || a.Queued() != 0 {
		t.Fatalf("gate not drained: inflight=%d queued=%d", a.InFlight(), a.Queued())
	}
}
