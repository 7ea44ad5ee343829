package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"aggview/internal/engine"
	"aggview/internal/server"
)

const (
	// passes is how many fresh-system passes a run's timed seconds are
	// split into. Each pass builds its own node, so a run sets up five
	// times and setup_s is the median of the five builds.
	passes = 5
	// windowLen is the least length of a window: a stretch of whole op
	// cycles bracketed by two canary timings, over which one throughput
	// and one median latency per op kind are taken. It is long enough
	// to hold dozens of the fast ops, short enough that a run has
	// hundreds of windows and that the host's speed rarely changes
	// inside one.
	windowLen = 50 * time.Millisecond
	// canaryEvery bounds how long the timed loop runs without timing
	// the canary: long ops (a 45 ms scan, a 120 ms delete) get a timing
	// right after them, so a window of slow ops is not judged by the
	// host's speed at its two ends alone.
	canaryEvery = 25 * time.Millisecond
)

// Runner holds what every pass of a run shares.
type Runner struct {
	Script string
	// HeapBaseMB is the live heap before any node exists (the script
	// text, the canary's 16 MB); reports subtract it so the heap figure
	// is what a built system adds.
	HeapBaseMB float64
	// Tamper, when set, corrupts each decoded answer before the gate
	// compares it; the package test uses it to prove the gate trips.
	Tamper func(*engine.Relation)
}

// Pass is what one pass measured.
type Pass struct {
	Setup      Setup
	HeapMB     float64 // live heap the built node added
	Ops        int     // timed ops that succeeded
	Elapsed    time.Duration
	AllocBytes uint64 // heap bytes allocated during the timed loop
	Windows    []Window
	Attempted  int // every request and gate comparison
	Failed     int
	Failures   []string // first few, for the report
	CalibMs    float64  // median canary of the pass
}

// Window is a stretch of whole op cycles at least windowLen long.
type Window struct {
	Ops     int
	Elapsed time.Duration
	Lat     map[string][]float64 // op kind -> latencies, ms
	Hot     []float64            // latencies of the Hot reads, ms
	Canary  float64              // mean canary time from window start to end, ms
}

func (p *Pass) fail(format string, args ...any) {
	p.Failed++
	if len(p.Failures) < 5 {
		p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
	}
}

// The canary's working sets: 64 KB to sort (inside L2) and a 16 MB
// random cycle to chase (outside any cache this VM keeps to itself).
var (
	canaryWords = make([]uint64, 8<<10)
	canaryCycle = randomCycle(4 << 20)
	canaryPos   uint32
	// canarySink keeps results live so the compiler cannot drop the loops.
	canarySink uint64
)

// randomCycle returns a permutation of 0..n-1 that is one single cycle
// (Sattolo's shuffle from a fixed LCG), so chasing it never repeats
// early and every hop is a dependent load.
func randomCycle(n int) []uint32 {
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
	}
	seed := uint64(99)
	for i := n - 1; i > 0; i-- {
		seed = seed*6364136223846793005 + 1442695040888963407
		j := int((seed >> 33) % uint64(i))
		a[i], a[j] = a[j], a[i]
	}
	return a
}

// canary times a fixed pure-Go kernel that allocates nothing and takes
// about a millisecond on a quiet core: fill 8k words from an LCG, sort
// them and FNV-hash a quarter (arithmetic and branches), then chase
// 2048 dependent pointers through 16 MB (cache misses) — a little of
// each thing the program's own time goes on. Every window of the timed
// loop is bracketed by two of them, and the gated time metrics are the
// window's figures as multiples of that time: the VM this runs on
// slows down by a fifth to a half for seconds to minutes at a time
// (README, "Noise"), which moves a millisecond figure and the canary
// alike and leaves most of their ratio.
func canary() float64 {
	start := time.Now()
	seed := uint64(12345)
	for i := range canaryWords {
		seed = seed*6364136223846793005 + 1442695040888963407
		canaryWords[i] = seed
	}
	slices.Sort(canaryWords)
	h := uint64(14695981039346656037)
	for _, v := range canaryWords[:len(canaryWords)/4] {
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (v >> shift & 0xff)) * 1099511628211
		}
	}
	p := canaryPos
	for i := 0; i < 2048; i++ {
		p = canaryCycle[p]
	}
	canaryPos = p
	canarySink = h + uint64(p)
	return ms(time.Since(start))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// do issues one op through the wire client and checks the reply against
// the op's expectations; warm says whether the cache verdict is due yet.
func do(ctx context.Context, c *server.Client, op Op, warm bool) error {
	switch op.Kind {
	case OpQuery:
		resp, err := c.Query(ctx, op.SQL)
		if err != nil {
			return err
		}
		if warm && op.WantCache != "" && resp.Cache != op.WantCache {
			return fmt.Errorf("cache verdict %q, want %q", resp.Cache, op.WantCache)
		}
		if (len(resp.Used) > 0) != op.WantView {
			return fmt.Errorf("used views %v, want view-backed=%v", resp.Used, op.WantView)
		}
	case OpInsert:
		resp, err := c.Insert(ctx, op.Table, op.Rows)
		if err != nil {
			return err
		}
		if resp.Inserted != op.WantRows {
			return fmt.Errorf("inserted %d rows, want %d", resp.Inserted, op.WantRows)
		}
	case OpDelete:
		resp, err := c.Delete(ctx, op.Table, op.Where)
		if err != nil {
			return err
		}
		if resp.Deleted != op.WantRows {
			return fmt.Errorf("deleted %d rows, want %d", resp.Deleted, op.WantRows)
		}
	case OpUpdate:
		resp, err := c.Update(ctx, op.Table, op.Set, op.Where)
		if err != nil {
			return err
		}
		if resp.Updated != op.WantRows {
			return fmt.Errorf("updated %d rows, want %d", resp.Updated, op.WantRows)
		}
	}
	return nil
}

// RunPass builds a fresh node, warms it, times whole op cycles for at
// least dur as a closed loop of one client, then runs the correctness
// gate on the state the pass left behind.
func (r *Runner) RunPass(ctx context.Context, w *Workload, dur time.Duration) (*Pass, error) {
	p := &Pass{}
	node, err := NewNode(ctx, r.Script, false)
	if err != nil {
		return nil, err
	}
	defer node.Close()
	p.Setup, p.HeapMB = node.Setup, node.HeapMB-r.HeapBaseMB

	i := 0
	for ; i < w.Warm; i++ {
		p.Attempted++
		if err := do(ctx, node.Client, w.Op(i), false); err != nil {
			p.fail("warm-up op %d: %v", i, err)
		}
	}
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// The canary is timed before the first window, after every window
	// and, inside a window, after any op that ends canaryEvery or more
	// after the last timing; a window's canary is the mean of the
	// timings from its start to its end, and its elapsed time leaves
	// the canary's own time out.
	var canaries []float64
	last, lastAt := canary(), time.Now()
	start := time.Now()
	for time.Since(start) < dur {
		win := Window{Lat: map[string][]float64{}}
		samples := []float64{last}
		sample := func() time.Duration {
			c0 := time.Now()
			last = canary()
			lastAt = time.Now()
			samples = append(samples, last)
			return lastAt.Sub(c0)
		}
		var inCanary time.Duration
		w0 := time.Now()
		for time.Since(w0)-inCanary < windowLen {
			for k := 0; k < w.Cycle; k, i = k+1, i+1 {
				op := w.Op(i)
				t0 := time.Now()
				err := do(ctx, node.Client, op, true)
				lat := ms(time.Since(t0))
				p.Attempted++
				if err != nil {
					// A failed request is counted, never timed as fast.
					p.fail("op %d (%s): %v", i, op.Name, err)
					continue
				}
				win.Ops++
				win.Lat[op.Name] = append(win.Lat[op.Name], lat)
				if op.Hot {
					win.Hot = append(win.Hot, lat)
				}
				if time.Since(lastAt) >= canaryEvery {
					inCanary += sample()
				}
			}
		}
		win.Elapsed = time.Since(w0) - inCanary
		sample()
		win.Canary = mean(samples)
		canaries = append(canaries, samples[:len(samples)-1]...)
		p.Windows = append(p.Windows, win)
		p.Ops += win.Ops
	}
	p.Elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	p.AllocBytes = after.TotalAlloc - before.TotalAlloc
	p.CalibMs = median(append(canaries, last))

	r.gate(ctx, node, w, p)
	return p, nil
}

// Result is one workload's run: its passes and the figures over them.
type Result struct {
	Workload *Workload
	Passes   []*Pass
}

// metric is one named number with its unit and what is behind it.
type metric struct {
	Name, Unit string
	Value      float64
	Samples    int       // ops, latency samples or builds behind the value
	PerPass    []float64 // the same figure inside each pass
}

// overWindows evaluates f on every window of the run and returns the
// median over all of them, with the median inside each pass.
func (res *Result) overWindows(f func(*Window) float64) (float64, []float64) {
	var all []float64
	perPass := make([]float64, len(res.Passes))
	for i, p := range res.Passes {
		vals := make([]float64, len(p.Windows))
		for j := range p.Windows {
			vals[j] = f(&p.Windows[j])
		}
		perPass[i] = median(vals)
		all = append(all, vals...)
	}
	return median(all), perPass
}

// count sums f over every window of the run: the samples behind a
// figure.
func (res *Result) count(f func(*Window) int) int {
	n := 0
	for _, p := range res.Passes {
		for i := range p.Windows {
			n += f(&p.Windows[i])
		}
	}
	return n
}

func (res *Result) kindGeomean(w *Window) float64 {
	meds := make([]float64, 0, len(res.Workload.Kinds))
	for _, k := range res.Workload.Kinds {
		meds = append(meds, median(w.Lat[k]))
	}
	return geomean(meds)
}

// EndToEnd computes the gated metrics, in BENCHMARK.json order. The
// three time metrics are a window's figure over the window's canary
// time, median over windows.
func (res *Result) EndToEnd() []metric {
	n := len(res.Passes)
	setup, alloc := make([]float64, n), make([]float64, n)
	for i, p := range res.Passes {
		setup[i] = p.Setup.Total.Seconds()
		alloc[i] = float64(p.AllocBytes) / 1024 / float64(max(p.Ops, 1))
	}
	ops := res.count(func(w *Window) int { return w.Ops })
	hot := res.count(func(w *Window) int { return len(w.Hot) })
	out := []metric{{"setup_s", "s", median(setup), n, setup}}

	v, pp := res.overWindows(func(w *Window) float64 { return float64(w.Ops) / ms(w.Elapsed) * w.Canary })
	out = append(out, metric{"throughput_rel", "1/canary", v, ops, pp})

	v, pp = res.overWindows(func(w *Window) float64 { return median(w.Hot) / w.Canary })
	out = append(out, metric{"read_p50_rel", "canary", v, hot, pp})

	v, pp = res.overWindows(func(w *Window) float64 { return res.kindGeomean(w) / w.Canary })
	out = append(out, metric{"kind_geomean_rel", "canary", v, ops, pp})

	return append(out, metric{"alloc_kb_per_op", "KB", median(alloc), ops, alloc})
}

// Raw reports the same figures as wall-clock time, unscaled, and each
// op kind's median latency: what a user of this host saw during the
// run. They move with the host's speed, so they are printed for the
// reader and not gated.
func (res *Result) Raw() []metric {
	ops := res.count(func(w *Window) int { return w.Ops })
	hot := res.count(func(w *Window) int { return len(w.Hot) })
	v, pp := res.overWindows(func(w *Window) float64 { return float64(w.Ops) / w.Elapsed.Seconds() })
	out := []metric{{"ops_per_s", "1/s", v, ops, pp}}
	v, pp = res.overWindows(func(w *Window) float64 { return median(w.Hot) })
	out = append(out, metric{"read_p50_ms", "ms", v, hot, pp})
	v, pp = res.overWindows(res.kindGeomean)
	out = append(out, metric{"kind_geomean_ms", "ms", v, ops, pp})
	for _, k := range res.Workload.Kinds {
		n := res.count(func(w *Window) int { return len(w.Lat[k]) })
		v, pp := res.overWindows(func(w *Window) float64 { return median(w.Lat[k]) })
		out = append(out, metric{"kind." + k + "_p50_ms", "ms", v, n, pp})
	}
	v, pp = res.overWindows(func(w *Window) float64 { return w.Canary })
	return append(out, metric{"bench.calib_ms", "ms", v, len(pp), pp})
}

// Totals sums attempts and failures over the passes.
func (res *Result) Totals() (attempted, failed int, failures []string) {
	for _, p := range res.Passes {
		attempted += p.Attempted
		failed += p.Failed
		failures = append(failures, p.Failures...)
	}
	return attempted, failed, failures
}

// RunAll runs the given workloads for `seconds` of timed work each,
// split into passes that are interleaved round-robin across workloads
// so a slow minute on the host hits all of them alike.
func (r *Runner) RunAll(ctx context.Context, ws []*Workload, seconds float64) ([]*Result, error) {
	results := make([]*Result, len(ws))
	for i, w := range ws {
		results[i] = &Result{Workload: w}
	}
	dur := time.Duration(seconds / passes * float64(time.Second))
	for pass := 0; pass < passes; pass++ {
		for i, w := range ws {
			p, err := r.RunPass(ctx, w, dur)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", w.Name, pass+1, err)
			}
			results[i].Passes = append(results[i].Passes, p)
		}
	}
	return results, nil
}
