// Oraclerunner soaks the differential-testing oracle: for each seed it
// generates random cases — tables with contents, tracked views, and
// steps — and checks each with oracle.CheckContext. Every query step is
// executed directly and through every rewriting the rewriter emits, at
// worker counts 1 and GOMAXPROCS, and every mutation step is followed
// by re-deriving each maintained view from its definition. Any multiset
// inequality is reported as a shrunk, replayable SQL script.
//
// By default each case is one query step (oracle.Generate). With
// -mutate the cases are scenarios of 8–20 inserts, deletes, updates and
// queries (oracle.GenerateMutation), whose mutation steps are also
// replayed under concurrent snapshot readers (no torn batch may be
// observed). The generator, and which fault countdowns a trial draws,
// is all -mutate picks. With faults on (the default; -faults=false
// disables) a query-step trial arms one seeded cancellation per
// injection site, and a scenario two at the maintenance site; every
// query execution is re-run under each armed fault a read can observe
// (any but the maintenance site) and under failing storage scans, and
// every mutation under each armed fault, holding each run to the
// harness contract: the exact correct bag or a clean typed error,
// never a partial result or a torn batch. fault_runs counts these runs.
//
//	go run ./cmd/oraclerunner                          # default seeds, 200 instances each
//	go run ./cmd/oraclerunner -seeds 1,2,3 -n 1000     # fixed budget per seed
//	go run ./cmd/oraclerunner -mutate -seeds 21,22 -n 160
//	go run ./cmd/oraclerunner -duration 5m             # soak: cycle seeds until the clock runs out
//	go run ./cmd/oraclerunner -timeout 10m             # hard deadline (also stops on SIGINT/SIGTERM)
//	go run ./cmd/oraclerunner -faults=false            # skip the fault-injection passes
//	go run ./cmd/oraclerunner -multichunk 4            # every fourth instance spans three storage chunks (default: every 16th)
//	go run ./cmd/oraclerunner -wire                    # also check answers through the serving stack
//	go run ./cmd/oraclerunner -paper                   # paper-faithful rewriter configuration
//	go run ./cmd/oraclerunner -json ORACLE.json        # machine-readable report (DESIGN.md section 7)
//	go run ./cmd/oraclerunner -replay repro.sql        # re-check one failure script
//
// A repro script of either generator replays with -replay (or loads
// into `aggserve -script`). Either mode's -json report is a
// report.Report of failureRow: the soak's tallies as counts, one row
// per violation. Its verdict fails, and the exit status is nonzero,
// when any violation was found.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aggview/internal/analysis/irlint"
	"aggview/internal/budget"
	"aggview/internal/constraints"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
	"aggview/internal/oracle"
	"aggview/internal/report"
	"aggview/internal/server"
)

// Report tools of the two generators; both write failureRow rows.
const (
	oracleTool = "oraclerunner"
	mutateTool = "oraclerunner -mutate"
)

// failureRow is one violation found by the soak: the shrunk, replayable
// script plus where it was found.
type failureRow struct {
	// Seed is the generator seed the violation came from.
	Seed int64 `json:"seed"`
	// Trial is the case index within the seed's stream.
	Trial int `json:"trial"`
	// Workers is the engine worker count a query-step violation
	// appeared at.
	Workers int `json:"workers,omitempty"`
	// Used names the views of the offending rewriting.
	Used []string `json:"used,omitempty"`
	// Fault tags where the violation surfaced (oracle.Violation.Fault:
	// e.g. "row@7", "wire", "mutate:step=3:view=V0",
	// "maintain@2:step=1:aborted:view=V0").
	Fault string `json:"fault,omitempty"`
	// Detail is the human-readable violation description.
	Detail string `json:"detail"`
	// Script is the shrunk SQL repro, replayable with `oraclerunner
	// -replay` (or fed to `aggserve -script`).
	Script string `json:"script"`
	// Lint carries the IR soundness linter's findings on the shrunk
	// script (the same checks as `aggview lint`): catalog hazards and
	// per-view usability records that speed up triage of the repro.
	Lint []irlint.Diagnostic `json:"lint,omitempty"`
	// Metrics and Closure are the engine metrics and the closure cache
	// at failure time — before shrinking — so a repro carries the cache
	// and worker state the violation was observed under.
	Metrics *obs.Snapshot           `json:"metrics,omitempty"`
	Closure *constraints.CacheStats `json:"closure_cache,omitempty"`
}

// soak is one run's configuration.
type soak struct {
	seeds    []int64
	n        int
	gen      oracle.GenOptions
	duration time.Duration
	mutate   bool
	faults   bool
	opt      oracle.Options
	jsonOut  string
	verbose  bool
}

func main() {
	seedsFlag := flag.String("seeds", "1,2,3,4", "comma-separated generator seeds")
	n := flag.Int("n", 200, "instances per seed (ignored under -duration)")
	rows := flag.Int("rows", 0, "max rows per generated table (0: generator default)")
	multichunk := flag.Int("multichunk", 16, "grow the anchor table of one instance in this many until it spans three storage chunks (0: never)")
	duration := flag.Duration("duration", 0, "soak length; cycles seeds until elapsed (0: -n instances per seed)")
	timeout := flag.Duration("timeout", 0, "hard deadline for the whole soak (0: none)")
	paper := flag.Bool("paper", false, "check the paper-faithful rewriter configuration")
	faults := flag.Bool("faults", true, "inject seeded faults into every trial's executions and mutations")
	wire := flag.Bool("wire", false, "also answer each query step through the in-process HTTP serving stack (plan cache on) and check bag equality")
	jsonOut := flag.String("json", "", "write a failure report to this file")
	replay := flag.String("replay", "", "re-check a single repro script instead of soaking")
	mutate := flag.Bool("mutate", false, "generate scenarios of insert/delete/update/query steps over tracked views instead of one-query instances")
	verbose := flag.Bool("v", false, "log per-seed progress")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := oracle.Options{PaperFaithful: *paper}
	if *wire {
		// Wire pass: every query step is also answered through the
		// in-process serving stack — admission, plan cache (cold and
		// warm), JSON codec — and must stay bag-equal to direct
		// evaluation.
		opt.Serve = server.OracleExec
	}
	var err error
	if *replay != "" {
		err = runReplay(ctx, *replay, opt, *faults)
	} else {
		var seeds []int64
		if seeds, err = parseSeeds(*seedsFlag); err == nil {
			err = run(ctx, soak{
				seeds: seeds, n: *n, gen: oracle.GenOptions{MaxRows: *rows, MultiChunkEvery: *multichunk},
				duration: *duration, mutate: *mutate, faults: *faults, opt: opt, jsonOut: *jsonOut, verbose: *verbose,
			})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oraclerunner:", err)
		os.Exit(1)
	}
}

// faultSpecs draws a trial's seeded fault countdowns. A query-step
// instance arms one cancellation per injection site, the trigger count
// in [1, 64] — early enough to hit the first batch, late enough to reach
// deep kernels on small generated instances. A scenario arms two at the
// maintenance site: an early one hitting the first delta evaluations of
// a batch and a later one reaching recomputes and deep batches.
func faultSpecs(rng *rand.Rand, mutate bool) []faultinject.Spec {
	if mutate {
		return []faultinject.Spec{
			{Site: faultinject.SiteMaintain, K: 1 + rng.Int63n(6)},
			{Site: faultinject.SiteMaintain, K: 1 + rng.Int63n(24)},
		}
	}
	specs := make([]faultinject.Spec, 0, len(faultinject.Sites))
	for _, site := range faultinject.Sites {
		specs = append(specs, faultinject.Spec{Site: site, K: 1 + rng.Int63n(64)})
	}
	return specs
}

// run soaks the oracle: one generated case per trial, checked, and
// shrunk to a repro row when it fails.
func run(ctx context.Context, cfg soak) error {
	tool, unit, generate := oracleTool, "instances", oracle.Generate
	if cfg.mutate {
		tool, unit, generate = mutateTool, "trials", oracle.GenerateMutation
	}
	rep := report.New[failureRow](tool)
	rep.Seeds = cfg.seeds
	if cfg.opt.PaperFaithful {
		rep.Notes = append(rep.Notes, "paper-faithful rewriter configuration")
	}

	deadline := time.Time{}
	if cfg.duration > 0 {
		deadline = time.Now().Add(cfg.duration)
	}
	for round := 0; ; round++ {
		for _, seed := range cfg.seeds {
			rng := rand.New(rand.NewSource(seed + int64(round)*1_000_003))
			for trial := 0; trial < cfg.n; trial++ {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return finish(rep, unit, cfg.jsonOut)
				}
				c := generate(rng, cfg.gen)
				opt := cfg.opt
				opt.Metrics = obs.NewMetrics()
				if cfg.faults {
					opt.Faults = faultSpecs(rng, cfg.mutate)
				}
				out, err := oracle.CheckContext(ctx, c, opt)
				if err != nil {
					if budget.IsCanceled(err) {
						// SIGINT/SIGTERM or -timeout: stop soaking, report
						// what was covered so far.
						fmt.Fprintln(os.Stderr, "oraclerunner: soak interrupted:", err)
						return finish(rep, unit, cfg.jsonOut)
					}
					return fmt.Errorf("seed %d trial %d: case rejected: %w\nscript:\n%s", seed, trial, err, c.Script())
				}
				rep.Counts[unit]++
				if c.MultiChunk() {
					rep.Counts["multi_chunk"]++
				}
				rep.Counts["steps"] += int64(len(c.Steps))
				rep.Counts["rewritings"] += int64(out.Rewritings)
				rep.Counts["rewritings.group_preserving"] += int64(out.GroupPreserving)
				rep.Counts["fault_runs"] += int64(out.FaultRuns)
				rep.Counts["incremental"] += int64(out.Incremental)
				for _, mode := range out.Modes {
					rep.Counts["mode."+mode]++
				}
				if out.OK() {
					continue
				}
				// Snapshot the engine metrics and closure-cache state at
				// failure time — before shrinking re-runs the checker and
				// perturbs both — so the repro carries the cache/worker
				// state the violation was observed under.
				atFailure := opt.Metrics.Snapshot()
				closure := constraints.CloseCacheSnapshot()
				// Shrink under the trial's faults (metrics detached) so an
				// injection-contract violation stays reproducible while
				// the case shrinks.
				opt.Metrics = nil
				min := oracle.ShrinkContext(ctx, c, opt)
				v := out.Violations[0]
				f := failure(ctx, seed, trial, &v, min)
				f.Metrics = &atFailure
				f.Closure = &closure
				rep.Rows = append(rep.Rows, f)
				fmt.Fprintf(os.Stderr, "VIOLATION seed=%d trial=%d\n%s\nminimal repro script:\n%s\n",
					seed, trial, v.String(), f.Script)
			}
			if cfg.verbose {
				fmt.Fprintf(os.Stderr, "seed %d round %d: %d %s, %d steps, %d rewritings, %d failures so far\n",
					seed, round, rep.Counts[unit], unit, rep.Counts["steps"], rep.Counts["rewritings"], len(rep.Rows))
			}
		}
		if deadline.IsZero() {
			return finish(rep, unit, cfg.jsonOut)
		}
	}
}

// failure packages one violation as a report row, running the IR
// soundness linter over the shrunken script so catalog hazards ride
// along with the repro.
func failure(ctx context.Context, seed int64, trial int, v *oracle.Violation, min *oracle.Case) failureRow {
	script := min.Script()
	return failureRow{
		Seed:    seed,
		Trial:   trial,
		Workers: v.Workers,
		Used:    v.Used,
		Fault:   v.Fault,
		Detail:  v.String(),
		Script:  script,
		Lint:    irlint.LintScript(ctx, "shrunk.sql", script).Diags,
	}
}

// finish settles the verdict — failed on any violation row — writes the
// report when jsonOut is set, prints the summary line, and converts
// failures into a nonzero exit. unit names the trial count.
func finish(rep *report.Report[failureRow], unit, jsonOut string) error {
	cs := constraints.CloseCacheSnapshot()
	rep.Counts["closure_cache.hits"] = cs.Hits
	rep.Counts["closure_cache.misses"] = cs.Misses
	rep.Counts["closure_cache.evictions"] = cs.Evictions
	rep.Counts["closure_cache.size"] = int64(cs.Size)
	if len(rep.Rows) > 0 {
		rep.Verdict = "fail"
	}
	if jsonOut != "" {
		if err := rep.WriteFile(jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s report to %s\n", rep.Tool, jsonOut)
	}
	var modes []string
	for name, trials := range rep.Counts {
		if mode, ok := strings.CutPrefix(name, "mode."); ok {
			modes = append(modes, fmt.Sprintf("%s=%d", mode, trials))
		}
	}
	sort.Strings(modes)
	fmt.Printf("%s: %d %s (%d multi-chunk), %d steps, %d rewritings (%d group-preserving), %d fault-injected runs, %d incremental views, %s per mode: %s, %d violations\n",
		rep.Tool, rep.Counts[unit], unit, rep.Counts["multi_chunk"], rep.Counts["steps"], rep.Counts["rewritings"], rep.Counts["rewritings.group_preserving"],
		rep.Counts["fault_runs"], rep.Counts["incremental"], unit, strings.Join(modes, " "), len(rep.Rows))
	if rep.Verdict == "fail" {
		return fmt.Errorf("%d violations", len(rep.Rows))
	}
	return nil
}

// runReplay re-checks one repro script, with the maintenance site armed
// at two fixed countdowns (and failing storage scans) when faults is
// set.
func runReplay(ctx context.Context, path string, opt oracle.Options, faults bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	c, err := oracle.Replay(string(data))
	if err != nil {
		return err
	}
	for _, d := range irlint.LintScript(ctx, path, string(data)).Diags {
		if d.Severity != irlint.Info {
			fmt.Fprintf(os.Stderr, "lint: [%s] %s: %s\n", d.Severity, d.Check, d.Message)
		}
	}
	if faults {
		opt.Faults = []faultinject.Spec{{Site: faultinject.SiteMaintain, K: 1}, {Site: faultinject.SiteMaintain, K: 3}}
	}
	out, err := oracle.CheckContext(ctx, c, opt)
	if err != nil {
		return err
	}
	if !out.OK() {
		for _, v := range out.Violations {
			fmt.Fprintln(os.Stderr, v.String())
		}
		return fmt.Errorf("%d violations reproduced", len(out.Violations))
	}
	fmt.Printf("script passed: %d steps, %d rewritings, %d fault-injected runs, %d incremental views\n",
		len(c.Steps), out.Rewritings, out.FaultRuns, out.Incremental)
	return nil
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return out, nil
}
