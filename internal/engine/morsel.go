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

// morsels is the set of morsels of an n-row input one pass runs: every
// one, or — when the chunks behind the others were skipped — those live
// lists, ascending. Slots, buffers, the worker pool and the row charge of
// the pass are sized by the set, not by n.
type morsels struct {
	n    int
	live []int32 // nil: every morsel of [0, n)
}

func allMorsels(n int) morsels { return morsels{n: n} }

// count returns the number of morsels in the set.
func (ms morsels) count() int {
	if ms.live != nil {
		return len(ms.live)
	}
	return morselCount(ms.n)
}

// bounds returns the row range of the set's k-th morsel.
func (ms morsels) bounds(k int) (lo, hi int) {
	if ms.live != nil {
		k = int(ms.live[k])
	}
	return morselBounds(k, ms.n)
}

// rows returns the number of rows the set covers.
func (ms morsels) rows() int {
	if ms.live == nil {
		return ms.n
	}
	rows := 0
	for k := range ms.live {
		lo, hi := ms.bounds(k)
		rows += hi - lo
	}
	return rows
}

// morselRun executes fn over every morsel of the set: workers claim
// slots off a shared atomic counter and call fn(w, k, lo, hi) for the
// k-th morsel's row range. fn must commit its output into state owned
// by slot k; callers concatenate the slots in order, which is morsel
// order, so the result is byte-identical to the serial loop at every
// worker count. Each morsel charges the task's row budget and polls
// cancellation under the kernel's site name; the total charged is the
// rows the set covers regardless of the worker count.
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
// allocated. A kernel whose input is one morsel does not come here: it
// runs its morsel body inline (see inline), without the closure and the
// slots a run needs.
func (ev *Evaluator) morselRun(t *task, site string, workers int, ms morsels, fn func(w *scratch, k, lo, hi int) error) error {
	nm := ms.count()
	if workers > nm {
		workers = nm
	}
	mt := ev.metrics()
	if workers <= 1 {
		mt.poolSerial.Inc()
		w := getScratch()
		defer putScratch(w)
		for k := 0; k < nm; k++ {
			lo, hi := ms.bounds(k)
			if err := fn(w, k, lo, hi); err != nil {
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
				k := int(next.Add(1)) - 1
				if k >= nm {
					return
				}
				lo, hi := ms.bounds(k)
				if err := fn(w, k, lo, hi); err != nil {
					errs[k] = err
					return
				}
				if err := t.charge(ev, site, int64(hi-lo)); err != nil {
					errs[k] = err
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

// inline borrows the scratch of a one-morsel set that a kernel runs on
// the calling goroutine, counted as morselRun's serial path: the kernel
// calls its morsel body directly — no closure, no per-morsel slots — and
// charges the morsel's rows after it (task.charge), as morselRun would.
// The caller returns the scratch (putScratch).
func (ev *Evaluator) inline() *scratch {
	ev.metrics().poolSerial.Inc()
	return getScratch()
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
