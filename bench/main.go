// Command bench is the repository's benchmark: four serving workloads
// over a seeded Example 1.1 warehouse, each driven as a closed loop of
// one client through the in-process wire path (server.Client over
// server.InProcessExec), measured over five fresh-system passes, with
// a correctness gate after every pass and a separate traced run that
// attributes time to layers. See README.md and ../BENCHMARK.json.
//
//	go run . -workload view_hit -seed 1 -seconds 18 -trace 0
//	go run . -trace 1            # per-layer metrics, spans to out/
//	go run . -aa 5               # noise self-test
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "view_hit, plan_cold, base_scan, write_mix, or all (passes interleaved)")
	seed := flag.Int64("seed", 1, "seed of the warehouse and of every op sequence")
	seconds := flag.Float64("seconds", 18, "timed seconds per workload, split into 5 passes")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run in place of the gated one")
	aa := flag.Int("aa", 0, "noise self-test: run the suite N times as set A and N times as set B, alternating")
	out := flag.String("out", "out", "directory the traced run writes its spans to")
	aggserve := flag.String("aggserve", "", "aggserve binary for the traced run's TCP comparison (run.sh builds one; skipped when empty)")
	flag.Parse()

	ok, err := run(context.Background(), os.Stdout, options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		AA: *aa, Out: *out, Aggserve: *aggserve, Scale: FullScale,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	AA       int
	Out      string
	Aggserve string
	Scale    Scale
}

// report is the driver's result line: one JSON object, last on stdout.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation and reports whether every answer was
// correct. With one workload selected the last line written is the
// driver's JSON object; with all of them there is one such line per
// workload, each after that workload's named metrics.
func run(ctx context.Context, w io.Writer, o options) (bool, error) {
	ws := Workloads(o.Seed, o.Scale)
	writeMix := ws[len(ws)-1]
	if o.Workload != "all" {
		var sel []*Workload
		for _, wl := range ws {
			if wl.Name == o.Workload {
				sel = append(sel, wl)
			}
		}
		if len(sel) == 0 {
			return false, fmt.Errorf("unknown workload %q", o.Workload)
		}
		ws = sel
	}
	fmt.Fprintf(w, "# aggview bench: seed=%d scale=%d/%d/%d numcpu=%d gomaxprocs=%d go=%s date=%s clients=1 closed-loop passes=%d seconds=%g\n",
		o.Seed, o.Scale.Calls, o.Scale.Customers, o.Scale.Plans, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), time.Now().UTC().Format("2006-01-02"), passes, o.Seconds)
	r := &Runner{Script: Script(o.Seed, o.Scale)}
	r.HeapBaseMB = heapMB()

	if o.AA > 0 {
		return runAA(ctx, w, r, ws, o)
	}
	if o.Trace {
		ok := true
		for _, wl := range ws {
			tr, err := r.Trace(ctx, wl, writeMix, o)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.Name, err)
			}
			ok = printReport(w, wl.Name, tr.Metrics, nil, tr.Attempted, tr.Failed, tr.Failures) && ok
		}
		return ok, nil
	}
	results, err := r.RunAll(ctx, ws, o.Seconds)
	if err != nil {
		return false, err
	}
	ok := true
	for _, res := range results {
		printPasses(w, res)
		attempted, failed, failures := res.Totals()
		ok = printReport(w, res.Workload.Name, res.EndToEnd(), res.Raw(), attempted, failed, failures) && ok
	}
	return ok, nil
}

// printReport prints every metric by name with its unit, sample count
// and per-pass values, then the driver's JSON line built from the
// gated (or, traced, per-layer) metrics alone.
func printReport(w io.Writer, workload string, metrics, extra []metric, attempted, failed int, failures []string) bool {
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]reportValue{}}
	for _, m := range metrics {
		printMetric(w, workload, m)
		rep.Metrics[m.Name] = reportValue{m.Value, m.Unit}
	}
	for _, m := range extra {
		printMetric(w, workload, m)
	}
	fmt.Fprintf(w, "%s ops_attempted %d count\n%s ops_failed %d count\n", workload, attempted, workload, failed)
	for _, f := range failures[:min(len(failures), 10)] {
		fmt.Fprintf(w, "%s FAILED %s\n", workload, f)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
	return rep.Correct
}

func printMetric(w io.Writer, workload string, m metric) {
	fmt.Fprintf(w, "%s %s %.6g %s", workload, m.Name, m.Value, m.Unit)
	if m.Samples > 0 {
		fmt.Fprintf(w, " n=%d", m.Samples)
	}
	if len(m.PerPass) > 0 {
		parts := make([]string, len(m.PerPass))
		for i, v := range m.PerPass {
			parts[i] = fmt.Sprintf("%.5g", v)
		}
		fmt.Fprintf(w, " passes=[%s]", strings.Join(parts, " "))
	}
	fmt.Fprintln(w)
}

// printPasses prints the canary beside the passes it brackets.
func printPasses(w io.Writer, res *Result) {
	for i, p := range res.Passes {
		fmt.Fprintf(w, "%s pass %d: ops=%d elapsed=%.3fs setup=%.3fs (parse %.3f load %.3f track %.3f) heap=%.1fMB bench.calib_ms=%.2f\n",
			res.Workload.Name, i+1, p.Ops, p.Elapsed.Seconds(), p.Setup.Total.Seconds(),
			p.Setup.Parse.Seconds(), p.Setup.Load.Seconds(), p.Setup.Track.Seconds(), p.HeapMB, p.CalibMs)
	}
}
