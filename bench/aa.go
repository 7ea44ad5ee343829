package main

import (
	"context"
	"fmt"
	"io"
	"math"
)

// bounds are the regression bounds of BENCHMARK.json's end-to-end
// metrics (the package test holds the two in step): the share of the
// parent's median a metric may worsen by before a change is rejected.
var bounds = []struct {
	Name  string
	Bound float64
}{
	{"setup_s", 0.25}, {"throughput_rel", 0.25}, {"read_p50_rel", 0.25}, {"kind_geomean_rel", 0.25}, {"alloc_kb_per_op", 0.10},
}

// runAA runs the suite n times as set A and n times as set B,
// alternating, on the same code and seed, and prints for every
// workload x end-to-end metric the two medians, their relative
// difference, each set's quartile spread and PASS/FAIL: a metric passes
// when the medians differ by no more than its bound and both spreads
// stay within it. Two sets of the same code that fail mean the
// estimator is too noisy to gate with, whatever the code does.
func runAA(ctx context.Context, w io.Writer, r *Runner, ws []*Workload, o options) (bool, error) {
	// vals[set][workload][metric] -> one value per suite run
	var vals [2]map[string]map[string][]float64
	for s := range vals {
		vals[s] = map[string]map[string][]float64{}
	}
	for i := 0; i < 2*o.AA; i++ {
		results, err := r.RunAll(ctx, ws, o.Seconds)
		if err != nil {
			return false, err
		}
		set := vals[i%2]
		for _, res := range results {
			if _, failed, failures := res.Totals(); failed > 0 {
				return false, fmt.Errorf("%s: %d failed operations: %v", res.Workload.Name, failed, failures)
			}
			if set[res.Workload.Name] == nil {
				set[res.Workload.Name] = map[string][]float64{}
			}
			for _, m := range res.EndToEnd() {
				set[res.Workload.Name][m.Name] = append(set[res.Workload.Name][m.Name], m.Value)
			}
		}
		fmt.Fprintf(w, "# aa: suite run %d/%d done (set %c)\n", i+1, 2*o.AA, 'A'+rune(i%2))
	}
	ok := true
	fmt.Fprintf(w, "%-10s %-16s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median_A", "median_B", "diff", "iqr_A", "iqr_B", "bound", "verdict")
	for _, wl := range ws {
		for _, g := range bounds {
			a, b := vals[0][wl.Name][g.Name], vals[1][wl.Name][g.Name]
			ma, mb := median(a), median(b)
			diff := math.Abs(ma-mb) / math.Min(ma, mb)
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "PASS"
			if diff > g.Bound || sa > g.Bound || sb > g.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-10s %-16s %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%% %6.2f  %s\n",
				wl.Name, g.Name, ma, mb, 100*diff, 100*sa, 100*sb, g.Bound, verdict)
		}
	}
	return ok, nil
}
