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
//	go run ./cmd/oraclerunner -json ORACLE.json        # machine-readable failure report
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
// Exit status is nonzero when any violation was found.
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
	"aggview/internal/benchjson"
	"aggview/internal/budget"
	"aggview/internal/constraints"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
	"aggview/internal/oracle"
	"aggview/internal/server"
)

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

	rep := benchjson.NewOracle()
	rep.Seeds = seeds
	rep.PaperFaithful = paper

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
				rep.Instances++
				if c.MultiChunk() {
					rep.MultiChunk++
				}
				rep.Rewritings += out.Rewritings
				rep.FaultRuns += out.FaultRuns
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
				f.Closure = &benchjson.CacheCounters{
					Hits: closure.Hits, Misses: closure.Misses,
					Evictions: closure.Evictions, Size: closure.Size,
				}
				rep.Failures = append(rep.Failures, f)
				fmt.Fprintf(os.Stderr, "VIOLATION seed=%d trial=%d\n%s\nminimal repro script:\n%s\n",
					seed, trial, v.String(), min.Script())
			}
			if verbose {
				fmt.Fprintf(os.Stderr, "seed %d round %d: %d instances, %d rewritings, %d failures so far\n",
					seed, round, rep.Instances, rep.Rewritings, len(rep.Failures))
			}
		}
		if deadline.IsZero() {
			return finish(rep, jsonOut)
		}
	}
}

// failure packages one violation as a report record, running the IR
// soundness linter over the shrunken script so catalog hazards ride
// along with the repro.
func failure(ctx context.Context, seed int64, trial int, v *oracle.Violation, min *oracle.Case) benchjson.OracleFailure {
	script := min.Script()
	return benchjson.OracleFailure{
		Seed:    seed,
		Trial:   trial,
		Workers: v.Workers,
		Used:    v.Used,
		Detail:  v.String(),
		Script:  script,
		Lint:    irlint.LintScript(ctx, "shrunk.sql", script).Diags,
	}
}

// finish writes the report and converts failures into a nonzero exit.
func finish(rep *benchjson.OracleReport, jsonOut string) error {
	cs := constraints.CloseCacheSnapshot()
	rep.Closure = &benchjson.CacheCounters{
		Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions, Size: cs.Size,
	}
	if jsonOut != "" {
		if err := rep.WriteFile(jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote oracle report to %s\n", jsonOut)
	}
	fmt.Printf("oracle: %d instances (%d multi-chunk), %d rewritings, %d fault-injected runs, %d violations\n",
		rep.Instances, rep.MultiChunk, rep.Rewritings, rep.FaultRuns, len(rep.Failures))
	if len(rep.Failures) > 0 {
		return fmt.Errorf("%d equivalence violations", len(rep.Failures))
	}
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
	rep := benchjson.NewMutate()
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
				rep.Trials++
				if mc.Base.MultiChunk() {
					rep.MultiChunk++
				}
				rep.Steps += out.Steps
				rep.FaultRuns += out.FaultRuns
				rep.Incremental += out.Incremental
				for _, mode := range out.Modes {
					rep.Modes[mode]++
				}
				if out.OK() {
					continue
				}
				min := oracle.ShrinkMutationContext(ctx, mc, opt)
				v := out.Violations[0]
				script := min.Script()
				rep.Failures = append(rep.Failures, benchjson.MutateFailure{
					Seed:   seed,
					Trial:  trial,
					Fault:  v.Fault,
					Detail: v.String(),
					Script: script,
					Lint:   irlint.LintScript(ctx, "shrunk.sql", script).Diags,
				})
				fmt.Fprintf(os.Stderr, "MUTATION VIOLATION seed=%d trial=%d\n%s\nminimal repro script:\n%s\n",
					seed, trial, v.String(), script)
			}
			if verbose {
				fmt.Fprintf(os.Stderr, "seed %d round %d: %d trials, %d steps, %d incremental, %d failures so far\n",
					seed, round, rep.Trials, rep.Steps, rep.Incremental, len(rep.Failures))
			}
		}
		if deadline.IsZero() {
			return finishMutate(rep, jsonOut)
		}
	}
}

// finishMutate writes the mutation report and converts failures into a
// nonzero exit.
func finishMutate(rep *benchjson.MutateReport, jsonOut string) error {
	if jsonOut != "" {
		if err := rep.WriteFile(jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote mutation report to %s\n", jsonOut)
	}
	modes := make([]string, 0, len(rep.Modes))
	for mode, trials := range rep.Modes {
		modes = append(modes, fmt.Sprintf("%s=%d", mode, trials))
	}
	sort.Strings(modes)
	fmt.Printf("mutate: %d trials (%d multi-chunk), %d steps, %d fault-injected runs, %d incremental views, trials per mode: %s, %d violations\n",
		rep.Trials, rep.MultiChunk, rep.Steps, rep.FaultRuns, rep.Incremental, strings.Join(modes, " "), len(rep.Failures))
	if len(rep.Failures) > 0 {
		return fmt.Errorf("%d mutation violations", len(rep.Failures))
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
		if d.Severity != benchjson.LintInfo {
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
