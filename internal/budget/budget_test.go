package budget

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestNilMeterIsUnlimited(t *testing.T) {
	var m *Meter
	if err := m.AddRows("scan", 1<<40); err != nil {
		t.Fatalf("nil meter charged: %v", err)
	}
	if err := m.AddCandidates("search", 1<<40); err != nil {
		t.Fatalf("nil meter charged: %v", err)
	}
	if m.Rows() != 0 || m.Candidates() != 0 {
		t.Fatal("nil meter reported consumption")
	}
}

func TestZeroLimitsAreUnlimited(t *testing.T) {
	m := NewMeter(Limits{})
	if err := m.AddRows("scan", 1<<40); err != nil {
		t.Fatalf("unlimited meter errored: %v", err)
	}
}

func TestRowBudgetExceeded(t *testing.T) {
	m := NewMeter(Limits{MaxRows: 10})
	if err := m.AddRows("scan", 10); err != nil {
		t.Fatalf("exact limit must not trip: %v", err)
	}
	err := m.AddRows("join", 1)
	if err == nil {
		t.Fatal("expected Exceeded")
	}
	var e *Exceeded
	if !errors.As(err, &e) || e.Resource != "rows" || e.Limit != 10 || e.Site != "join" {
		t.Fatalf("wrong error: %#v", err)
	}
	if !IsExceeded(err) || IsCanceled(err) || !IsTransient(err) {
		t.Fatalf("classification wrong for %v", err)
	}
}

func TestCandidateBudgetExceeded(t *testing.T) {
	m := NewMeter(Limits{MaxCandidates: 3})
	for i := 0; i < 3; i++ {
		if err := m.AddCandidates("search", 1); err != nil {
			t.Fatalf("candidate %d tripped early: %v", i, err)
		}
	}
	if err := m.AddCandidates("search", 1); !IsExceeded(err) {
		t.Fatalf("expected Exceeded, got %v", err)
	}
}

// TestMeterConcurrentCharges pins that the total is exact under
// concurrent charging: the error fires iff the sum crosses the limit,
// regardless of interleaving.
func TestMeterConcurrentCharges(t *testing.T) {
	m := NewMeter(Limits{MaxRows: 1000})
	var wg sync.WaitGroup
	errs := make([]error, 10)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := m.AddRows("scan", 1); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d tripped at exactly the limit: %v", g, err)
		}
	}
	if m.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000", m.Rows())
	}
	if err := m.AddRows("scan", 1); !IsExceeded(err) {
		t.Fatalf("expected Exceeded past the limit, got %v", err)
	}
}

func TestCheckConvertsContextErrors(t *testing.T) {
	if err := Check(context.Background(), "scan"); err != nil {
		t.Fatalf("live context errored: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Check(ctx, "scan")
	if !IsCanceled(err) {
		t.Fatalf("expected Canceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Canceled must unwrap to context.Canceled: %v", err)
	}
	if IsExceeded(err) {
		t.Fatal("Canceled misclassified as Exceeded")
	}
}

func TestWithMeterRoundTrip(t *testing.T) {
	if MeterFrom(context.Background()) != nil {
		t.Fatal("background context has a meter")
	}
	m := NewMeter(Limits{MaxRows: 5})
	ctx := WithMeter(context.Background(), m)
	if got := MeterFrom(ctx); got != m {
		t.Fatalf("MeterFrom = %v, want %v", got, m)
	}
}
