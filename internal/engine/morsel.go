package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"aggview/internal/budget"
)

// morselRows is the fixed row-range morsel size: workers claim morsels
// of this many rows off a shared counter. It doubles as the granularity
// at which kernels charge the row budget and observe cancellation.
// Morsel boundaries depend only on the input size — never on the worker
// count — which is what makes per-morsel results safe to commit in
// morsel order for byte-identical output at every Workers setting.
const morselRows = 1024

// minParallelRows is the input size below which the kernels stay
// serial: fanning goroutines out over a handful of morsels costs more
// than it saves.
const minParallelRows = 2048

// maxWorkers bounds the pool size regardless of the Workers knob.
const maxWorkers = 256

// workersFor resolves the Workers knob for an input of n rows: 0 means
// GOMAXPROCS, 1 means serial, and the result is capped so each worker
// has at least minParallelRows of input to claim.
func (ev *Evaluator) workersFor(n int) int {
	w := ev.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > maxWorkers {
		w = maxWorkers
	}
	if most := n / minParallelRows; w > most {
		w = most
	}
	if w < 1 {
		w = 1
	}
	return w
}

// morselCount returns the number of fixed-size morsels covering n rows.
func morselCount(n int) int {
	return (n + morselRows - 1) / morselRows
}

// morselRun executes fn over every morsel of [0, n): workers claim
// morsel indices off a shared atomic counter and call fn(m, lo, hi) for
// the claimed range. fn must commit its output into state owned by
// morsel slot m; callers concatenate the slots in morsel index order,
// so the result is byte-identical to the serial loop at every worker
// count. Each morsel charges the task's row budget and polls
// cancellation under the kernel's site name; the total charged is n
// regardless of the worker count.
//
// The pool always drains before morselRun returns. The surviving error
// is deterministic: the smallest-indexed non-transient error wins (the
// one the serial loop would have hit first — the counter hands out
// morsels in increasing order, so the smallest failing morsel is always
// claimed and executed before any later one), falling back to a
// transient (budget/cancel) abort whose value is schedule-independent.
// Pool activity is recorded under volatile metric names (launch and
// claim counts depend on the worker knob).
//
// Every worker (the caller, on the serial path) borrows one scratch for
// the run and hands it to each morsel it claims: per-morsel working
// memory is reused, and only what a morsel commits to its slot is
// allocated.
func (ev *Evaluator) morselRun(t *task, site string, workers, n int, fn func(w *scratch, m, lo, hi int) error) error {
	nm := morselCount(n)
	if workers > nm {
		workers = nm
	}
	mt := ev.metrics()
	if workers <= 1 {
		mt.poolSerial.Inc()
		w := getScratch()
		defer putScratch(w)
		for m := 0; m < nm; m++ {
			lo, hi := morselBounds(m, n)
			if err := fn(w, m, lo, hi); err != nil {
				return err
			}
			if err := t.charge(ev, site, int64(hi-lo)); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, nm)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := getScratch()
			defer putScratch(w)
			for {
				m := int(next.Add(1)) - 1
				if m >= nm {
					return
				}
				lo, hi := morselBounds(m, n)
				if err := fn(w, m, lo, hi); err != nil {
					errs[m] = err
					return
				}
				if err := t.charge(ev, site, int64(hi-lo)); err != nil {
					errs[m] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	mt.poolLaunches.Inc()
	mt.poolWidth.Max(int64(workers))
	mt.poolMorsels.Add(int64(nm))
	return pickErr(errs)
}

// morselBounds returns morsel m's row range within [0, n).
func morselBounds(m, n int) (lo, hi int) {
	lo = m * morselRows
	hi = lo + morselRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// pickErr selects the surviving error of a drained pool: the first
// non-transient error in morsel order (the one the serial loop would
// have surfaced), falling back to the first transient abort. Transient
// errors land in scheduling-dependent slots but carry
// schedule-independent values, so the result is deterministic.
func pickErr(errs []error) error {
	var transient error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !budget.IsTransient(err) {
			return err
		}
		if transient == nil {
			transient = err
		}
	}
	return transient
}
