// Oraclerunner soaks the differential-testing oracle: for each seed it
// generates random (schema, contents, views, query) instances, executes
// the query directly and through every rewriting the rewriter emits —
// at worker counts 1 and GOMAXPROCS — and reports any multiset
// inequality as a shrunk, replayable SQL script. By default every trial
// is additionally re-run with seeded cancellations injected at the
// engine's row, rewrite-candidate and view-cache sites (-faults=false
// disables), holding each run to the harness contract: the exact
// correct bag or a clean typed Canceled error, never a partial result.
//
//	go run ./cmd/oraclerunner                          # default seeds, 200 instances each
//	go run ./cmd/oraclerunner -seeds 1,2,3 -n 1000     # fixed budget per seed
//	go run ./cmd/oraclerunner -duration 5m             # soak: cycle seeds until the clock runs out
//	go run ./cmd/oraclerunner -timeout 10m             # hard deadline (also stops on SIGINT/SIGTERM)
//	go run ./cmd/oraclerunner -faults=false            # skip the cancellation-injection pass
//	go run ./cmd/oraclerunner -multichunk 4            # every fourth instance spans three storage chunks (default: every 16th)
//	go run ./cmd/oraclerunner -wire                    # also check answers through the serving stack
//	go run ./cmd/oraclerunner -paper                   # paper-faithful rewriter configuration
//	go run ./cmd/oraclerunner -json ORACLE.json        # machine-readable report (DESIGN.md section 7)
//	go run ./cmd/oraclerunner -replay repro.sql        # re-check one failure script
//
// With -mutate the runner soaks the mutation oracle instead: seeded
// scenarios of inserts, deletes, updates and queries over tracked
// views, checked serially (views re-derived after every mutation),
// concurrently (snapshot readers must never observe a torn batch) and
// under injected cancellations at the maintenance site (exact bag or
// clean typed error, pre-state intact, clean retry succeeds).
// Violations shrink to minimal mutation scripts replayable with
// `-mutate -replay repro.sql` or `aggserve -script repro.sql`.
//
//	go run ./cmd/oraclerunner -mutate -seeds 21,22 -n 160
//	go run ./cmd/oraclerunner -mutate -replay repro.sql
//
// Either mode's -json report is a report.Report of failureRow: the
// soak's tallies as counts, one row per violation. Its verdict fails,
// and the exit status is nonzero, when any violation was found.
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

// Report tools of the two soaks; both write failureRow rows.
const (
	oracleTool = "oraclerunner"
	mutateTool = "oraclerunner -mutate"
)

// failureRow is one violation found by either soak: the shrunk,
// replayable script plus where it was found.
type failureRow struct {
	// Seed is the generator seed the violation came from.
	Seed int64 `json:"seed"`
	// Trial is the instance (or scenario) index within the seed's stream.
	Trial int `json:"trial"`
	// Workers is the engine worker count a query-oracle violation
	// appeared at.
	Workers int `json:"workers,omitempty"`
	// Used names the views of the offending rewriting.
	Used []string `json:"used,omitempty"`
	// Fault tags where in the mutation checker the violation surfaced
	// (e.g. "mutate:step=3:view=V0", "maintain@2:step=1:aborted:view=V0",
	// "mutate:concurrent:reader=1:torn-view").
	Fault string `json:"fault,omitempty"`
	// Detail is the human-readable violation description.
	Detail string `json:"detail"`
	// Script is the shrunk SQL repro, replayable with `oraclerunner
	// -replay` (or `-mutate -replay`, or fed to `aggserve -script`).
	Script string `json:"script"`
	// Lint carries the IR soundness linter's findings on the shrunk
	// script (the same checks as `aggview lint`): catalog hazards and
	// per-view usability records that speed up triage of the repro.
	Lint []irlint.Diagnostic `json:"lint,omitempty"`
	// Metrics and Closure are the engine metrics and the closure cache
	// at failure time — before shrinking — so a query-oracle repro
	// carries the cache and worker state the violation was observed
	// under.
	Metrics *obs.Snapshot           `json:"metrics,omitempty"`
	Closure *constraints.CacheStats `json:"closure_cache,omitempty"`
}

func main() {
	seedsFlag := flag.String("seeds", "1,2,3,4", "comma-separated generator seeds")
	n := flag.Int("n", 200, "instances per seed (ignored under -duration)")
	rows := flag.Int("rows", 0, "max rows per generated table (0: generator default)")
	multichunk := flag.Int("multichunk", 16, "grow the anchor table of one instance in this many until it spans three storage chunks (0: never)")
	duration := flag.Duration("duration", 0, "soak length; cycles seeds until elapsed (0: -n instances per seed)")
	timeout := flag.Duration("timeout", 0, "hard deadline for the whole soak (0: none)")
	paper := flag.Bool("paper", false, "check the paper-faithful rewriter configuration")
	faults := flag.Bool("faults", true, "inject seeded cancellations (row/candidate/cache sites) into every trial")
	wire := flag.Bool("wire", false, "also answer each case through the in-process HTTP serving stack (plan cache on) and check bag equality")
	jsonOut := flag.String("json", "", "write a failure report to this file")
	replay := flag.String("replay", "", "re-check a single repro script instead of soaking")
	mutate := flag.Bool("mutate", false, "soak the mutation oracle (insert/delete/update scenarios over tracked views) instead of the query oracle")
	verbose := flag.Bool("v", false, "log per-seed progress")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	gen := oracle.GenOptions{MaxRows: *rows, MultiChunkEvery: *multichunk}
	var err error
	if *mutate {
		err = runMutate(ctx, *seedsFlag, *n, gen, *duration, *faults, *jsonOut, *replay, *verbose)
	} else {
		err = run(ctx, *seedsFlag, *n, gen, *duration, *paper, *faults, *wire, *jsonOut, *replay, *verbose)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oraclerunner:", err)
		os.Exit(1)
	}
}

// faultSpecs draws one seeded cancellation spec per injection site, with
// the trigger count in [1, 64] — early enough to hit the first batch,
// late enough to reach deep kernels on small generated instances.
func faultSpecs(rng *rand.Rand) []faultinject.Spec {
	specs := make([]faultinject.Spec, 0, len(faultinject.Sites))
	for _, site := range faultinject.Sites {
		specs = append(specs, faultinject.Spec{Site: site, K: 1 + rng.Int63n(64)})
	}
	return specs
}

func run(ctx context.Context, seedsFlag string, n int, gen oracle.GenOptions, duration time.Duration, paper, faults, wire bool, jsonOut, replay string, verbose bool) error {
	opt := oracle.Options{PaperFaithful: paper}
	if wire {
		// Wire pass: every case is also answered through the in-process
		// serving stack — admission, plan cache (cold and warm), JSON
		// codec — and must stay bag-equal to direct evaluation.
		opt.Serve = server.OracleExec
	}
	if replay != "" {
		return runReplay(ctx, replay, opt)
	}
	seeds, err := parseSeeds(seedsFlag)
	if err != nil {
		return err
	}

	rep := report.New[failureRow](oracleTool)
	rep.Seeds = seeds
	if paper {
		rep.Notes = append(rep.Notes, "paper-faithful rewriter configuration")
	}

	deadline := time.Time{}
	if duration > 0 {
		deadline = time.Now().Add(duration)
	}
	for round := 0; ; round++ {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed + int64(round)*1_000_003))
			for trial := 0; trial < n; trial++ {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return finish(rep, jsonOut)
				}
				c := oracle.Generate(rng, gen)
				trialOpt := opt
				trialOpt.Metrics = obs.NewMetrics()
				if faults {
					trialOpt.Faults = faultSpecs(rng)
				}
				out, err := oracle.CheckContext(ctx, c, trialOpt)
				if err != nil {
					if budget.IsCanceled(err) {
						// SIGINT/SIGTERM or -timeout: stop soaking, report
						// what was covered so far.
						fmt.Fprintln(os.Stderr, "oraclerunner: soak interrupted:", err)
						return finish(rep, jsonOut)
					}
					return fmt.Errorf("seed %d trial %d: case rejected: %w\nscript:\n%s", seed, trial, err, c.Script())
				}
				rep.Counts["instances"]++
				if c.MultiChunk() {
					rep.Counts["multi_chunk"]++
				}
				rep.Counts["rewritings"] += int64(out.Rewritings)
				rep.Counts["rewritings.group_preserving"] += int64(out.GroupPreserving)
				rep.Counts["fault_runs"] += int64(out.FaultRuns)
				if out.OK() {
					continue
				}
				// Snapshot the engine metrics and closure-cache state at
				// failure time — before shrinking re-runs the checker and
				// perturbs both — so the repro carries the cache/worker
				// state the violation was observed under.
				atFailure := trialOpt.Metrics.Snapshot()
				closure := constraints.CloseCacheSnapshot()
				// Shrink under the trial's fault specs (metrics detached) so
				// an injection-contract violation stays reproducible while
				// the case shrinks.
				shrinkOpt := trialOpt
				shrinkOpt.Metrics = nil
				min := oracle.ShrinkContext(ctx, c, shrinkOpt)
				v := out.Violations[0]
				f := failure(ctx, seed, trial, &v, min)
				f.Metrics = &atFailure
				f.Closure = &closure
				rep.Rows = append(rep.Rows, f)
				fmt.Fprintf(os.Stderr, "VIOLATION seed=%d trial=%d\n%s\nminimal repro script:\n%s\n",
					seed, trial, v.String(), min.Script())
			}
			if verbose {
				fmt.Fprintf(os.Stderr, "seed %d round %d: %d instances, %d rewritings, %d failures so far\n",
					seed, round, rep.Counts["instances"], rep.Counts["rewritings"], len(rep.Rows))
			}
		}
		if deadline.IsZero() {
			return finish(rep, jsonOut)
		}
	}
}

// failure packages one query-oracle violation as a report row.
func failure(ctx context.Context, seed int64, trial int, v *oracle.Violation, min *oracle.Case) failureRow {
	f := lintedFailure(ctx, seed, trial, v.String(), min.Script())
	f.Workers = v.Workers
	f.Used = v.Used
	return f
}

// lintedFailure builds a violation's row, running the IR soundness
// linter over the shrunken script so catalog hazards ride along with
// the repro.
func lintedFailure(ctx context.Context, seed int64, trial int, detail, script string) failureRow {
	return failureRow{
		Seed:   seed,
		Trial:  trial,
		Detail: detail,
		Script: script,
		Lint:   irlint.LintScript(ctx, "shrunk.sql", script).Diags,
	}
}

// finish settles the verdict, writes the report and converts failures
// into a nonzero exit.
func finish(rep *report.Report[failureRow], jsonOut string) error {
	cs := constraints.CloseCacheSnapshot()
	rep.Counts["closure_cache.hits"] = cs.Hits
	rep.Counts["closure_cache.misses"] = cs.Misses
	rep.Counts["closure_cache.evictions"] = cs.Evictions
	rep.Counts["closure_cache.size"] = int64(cs.Size)
	if err := settle(rep, jsonOut); err != nil {
		return err
	}
	fmt.Printf("oracle: %d instances (%d multi-chunk), %d rewritings (%d group-preserving), %d fault-injected runs, %d violations\n",
		rep.Counts["instances"], rep.Counts["multi_chunk"], rep.Counts["rewritings"], rep.Counts["rewritings.group_preserving"], rep.Counts["fault_runs"], len(rep.Rows))
	if rep.Verdict == "fail" {
		return fmt.Errorf("%d equivalence violations", len(rep.Rows))
	}
	return nil
}

// settle fails the verdict on any violation row and writes the report
// when jsonOut is set.
func settle(rep *report.Report[failureRow], jsonOut string) error {
	if len(rep.Rows) > 0 {
		rep.Verdict = "fail"
	}
	if jsonOut == "" {
		return nil
	}
	if err := rep.WriteFile(jsonOut); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s report to %s\n", rep.Tool, jsonOut)
	return nil
}

// runMutate soaks the mutation oracle: one scenario per trial, checked
// serially, concurrently and under maintenance-site cancellations.
func runMutate(ctx context.Context, seedsFlag string, n int, gen oracle.GenOptions, duration time.Duration, faults bool, jsonOut, replay string, verbose bool) error {
	if replay != "" {
		return runMutateReplay(ctx, replay, faults)
	}
	seeds, err := parseSeeds(seedsFlag)
	if err != nil {
		return err
	}
	rep := report.New[failureRow](mutateTool)
	rep.Seeds = seeds
	deadline := time.Time{}
	if duration > 0 {
		deadline = time.Now().Add(duration)
	}
	for round := 0; ; round++ {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed + int64(round)*1_000_003))
			for trial := 0; trial < n; trial++ {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return finishMutate(rep, jsonOut)
				}
				mc := oracle.GenerateMutation(rng, gen)
				opt := oracle.MutOptions{}
				if faults {
					// Two countdowns per trial: an early one hitting the first
					// delta evaluations of a batch and a later one reaching
					// recomputes and deep batches.
					opt.Faults = []int64{1 + rng.Int63n(6), 1 + rng.Int63n(24)}
				}
				out, err := oracle.CheckMutationContext(ctx, mc, opt)
				if err != nil {
					if budget.IsCanceled(err) {
						fmt.Fprintln(os.Stderr, "oraclerunner: mutation soak interrupted:", err)
						return finishMutate(rep, jsonOut)
					}
					return fmt.Errorf("seed %d trial %d: scenario rejected: %w\nscript:\n%s", seed, trial, err, mc.Script())
				}
				rep.Counts["trials"]++
				if mc.Base.MultiChunk() {
					rep.Counts["multi_chunk"]++
				}
				rep.Counts["steps"] += int64(out.Steps)
				rep.Counts["fault_runs"] += int64(out.FaultRuns)
				rep.Counts["incremental"] += int64(out.Incremental)
				for _, mode := range out.Modes {
					rep.Counts["mode."+mode]++
				}
				if out.OK() {
					continue
				}
				min := oracle.ShrinkMutationContext(ctx, mc, opt)
				v := out.Violations[0]
				script := min.Script()
				f := lintedFailure(ctx, seed, trial, v.String(), script)
				f.Fault = v.Fault
				rep.Rows = append(rep.Rows, f)
				fmt.Fprintf(os.Stderr, "MUTATION VIOLATION seed=%d trial=%d\n%s\nminimal repro script:\n%s\n",
					seed, trial, v.String(), script)
			}
			if verbose {
				fmt.Fprintf(os.Stderr, "seed %d round %d: %d trials, %d steps, %d incremental, %d failures so far\n",
					seed, round, rep.Counts["trials"], rep.Counts["steps"], rep.Counts["incremental"], len(rep.Rows))
			}
		}
		if deadline.IsZero() {
			return finishMutate(rep, jsonOut)
		}
	}
}

// finishMutate settles the verdict, writes the mutation report and
// converts failures into a nonzero exit.
func finishMutate(rep *report.Report[failureRow], jsonOut string) error {
	if err := settle(rep, jsonOut); err != nil {
		return err
	}
	var modes []string
	for name, trials := range rep.Counts {
		if mode, ok := strings.CutPrefix(name, "mode."); ok {
			modes = append(modes, fmt.Sprintf("%s=%d", mode, trials))
		}
	}
	sort.Strings(modes)
	fmt.Printf("mutate: %d trials (%d multi-chunk), %d steps, %d fault-injected runs, %d incremental views, trials per mode: %s, %d violations\n",
		rep.Counts["trials"], rep.Counts["multi_chunk"], rep.Counts["steps"], rep.Counts["fault_runs"], rep.Counts["incremental"], strings.Join(modes, " "), len(rep.Rows))
	if rep.Verdict == "fail" {
		return fmt.Errorf("%d mutation violations", len(rep.Rows))
	}
	return nil
}

// runMutateReplay re-checks one mutation repro script.
func runMutateReplay(ctx context.Context, path string, faults bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mc, err := oracle.ReplayMutation(string(data))
	if err != nil {
		return err
	}
	opt := oracle.MutOptions{}
	if faults {
		opt.Faults = []int64{1, 3}
	}
	out, err := oracle.CheckMutationContext(ctx, mc, opt)
	if err != nil {
		return err
	}
	if !out.OK() {
		for _, v := range out.Violations {
			fmt.Fprintln(os.Stderr, v.String())
		}
		return fmt.Errorf("%d violations reproduced", len(out.Violations))
	}
	fmt.Printf("mutation script passed: %d steps, %d fault-injected runs, %d incremental views\n",
		out.Steps, out.FaultRuns, out.Incremental)
	return nil
}

// runReplay re-checks one failure script.
func runReplay(ctx context.Context, path string, opt oracle.Options) error {
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
	fmt.Printf("script passed: %d rewritings, all equivalent\n", out.Rewritings)
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
