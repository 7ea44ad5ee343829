package oracle

import (
	"context"
	"fmt"
	"strings"

	"aggview"
	"aggview/internal/core"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
)

// Options configures a differential check.
type Options struct {
	// Workers lists the engine worker counts each execution runs at;
	// default {1, 0} (serial and GOMAXPROCS), so a nondeterministic
	// parallel kernel is caught as a violation too.
	Workers []int
	// MaxRewritings caps the enumeration per query (default 16 — deep
	// BFS tails repeat the same view shapes and add little evidence).
	MaxRewritings int
	// PaperFaithful checks the paper-faithful rewriter configuration.
	PaperFaithful bool
	// Tamper, when set, mutates each rewriting before execution. It
	// exists for fault injection: tests break an S1–S4 step on purpose
	// and assert the checker notices.
	Tamper func(*core.Rewriting)
	// Faults, when non-empty, adds a cancellation-injection pass to each
	// check: every execution is repeated with a deterministic injector
	// armed per spec, and any run that yields a partial result, an
	// untyped error or a panic — instead of the exact correct bag or a
	// clean typed Canceled — is a violation.
	Faults []faultinject.Spec
	// StorageFaults lists scan countdowns for the storage-fault pass:
	// for each k, every execution is repeated against a FaultStorage
	// backend whose k-th table scan (and every later one) fails with a
	// typed I/O-style error, and the run must end in either the exact
	// correct bag or that clean typed error — never a partial result.
	// Empty with Faults set defaults to {1, 2, 4}; empty with Faults
	// empty disables the pass.
	StorageFaults []int64
	// ShrinkBudget bounds the number of CheckContext calls one
	// ShrinkContext may spend; 0 means the default (400).
	ShrinkBudget int
	// Metrics, when non-nil, is attached to the compiled system so the
	// check's engine executions report kernel counters into it; a
	// snapshot taken when a violation surfaces then rides along with
	// the shrunk repro (cmd/oraclerunner).
	Metrics *obs.Metrics
	// Serve, when set, adds a wire-level pass: the hook wraps the
	// compiled system in a serving stack (the oracle stays
	// transport-agnostic — internal/server supplies OracleExec) and
	// returns an exec function answering SQL through the full wire
	// path. The served answer must be bag-equal to the direct
	// reference at every worker count, on both the cold and the warm
	// (plan-cache hit) path; mismatches surface as violations with
	// Fault "wire" / "wire-cached".
	Serve func(sys *aggview.System) (exec func(ctx context.Context, sql string) (*engine.Relation, error), shutdown func(), err error)
}

func (o Options) withDefaults() Options {
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 0}
	}
	if o.MaxRewritings == 0 {
		o.MaxRewritings = 16
	}
	if len(o.StorageFaults) == 0 && len(o.Faults) > 0 {
		o.StorageFaults = []int64{1, 2, 4}
	}
	return o
}

// Violation is one observed inequivalence (or execution failure).
type Violation struct {
	// Workers is the engine worker count the violation appeared at.
	Workers int
	// Used names the views of the offending rewriting; empty when the
	// direct execution itself misbehaved across worker counts.
	Used []string
	// RewritingSQL is the rewritten query (with auxiliary views), or
	// the original query for direct-execution violations.
	RewritingSQL string
	// Fault identifies the injected fault ("site@k") for violations
	// surfaced by the cancellation-injection pass; empty otherwise.
	Fault string
	// Err is set when execution failed outright.
	Err error
	// Want and Got are the direct and the rewritten results; nil when
	// Err is set.
	Want, Got *engine.Relation
}

func (v *Violation) String() string {
	tag := ""
	if v.Fault != "" {
		tag = " fault=" + v.Fault
	}
	if v.Err != nil {
		return fmt.Sprintf("workers=%d using=%v%s: execution failed: %v", v.Workers, v.Used, tag, v.Err)
	}
	return fmt.Sprintf("workers=%d using=%v%s: results differ\n  rewriting: %s\n  want:\n%s\n  got:\n%s",
		v.Workers, v.Used, tag, v.RewritingSQL, indent(v.Want.Sorted().String()), indent(v.Got.Sorted().String()))
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

// Outcome reports what one CheckContext observed.
type Outcome struct {
	// Rewritings is the number of rewritings the rewriter emitted.
	Rewritings int
	// GroupPreserving counts the rewritings whose select-project form
	// (Rewriting.DropFold) was checked as well.
	GroupPreserving int
	// FaultRuns counts executions performed under an armed injector
	// during the cancellation-injection pass (0 when Options.Faults is
	// empty).
	FaultRuns int
	// Violations lists every inequivalence found (empty: case passed).
	Violations []Violation
}

// OK reports whether the case held.
func (o *Outcome) OK() bool { return len(o.Violations) == 0 }

// CheckContext executes the case's query directly and via every
// rewriting the rewriter emits, at every configured worker count, and
// records each multiset inequality as a violation. The returned error
// reports a case that could not be set up at all (schema or view
// rejected) — a generator defect, not an equivalence violation.
// Cancellation and deadline expiry abort the check between executions
// with a typed error (no partial outcome is returned), and when
// Options.Faults is set the injection pass derives each per-run armed
// context from ctx.
func CheckContext(ctx context.Context, c *Case, opt Options) (*Outcome, error) {
	opt = opt.withDefaults()
	sys, err := c.CompileContext(ctx, aggview.Options{
		PaperFaithful: opt.PaperFaithful,
		MaxRewritings: opt.MaxRewritings,
	})
	if err != nil {
		return nil, err
	}
	sys.Metrics = opt.Metrics
	sql := c.Query.SQL()

	// Reference: direct execution, serial.
	sys.Opts.Workers = 1
	ref, err := sys.QueryContext(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("oracle: direct execution: %w", err)
	}
	out := &Outcome{}

	// The direct plan must agree with itself at every worker count
	// (PR 1's determinism contract).
	for _, w := range opt.Workers {
		if w == 1 {
			continue
		}
		sys.Opts.Workers = w
		got, err := sys.QueryContext(ctx, sql)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			out.Violations = append(out.Violations, Violation{Workers: w, RewritingSQL: sql, Err: err})
			continue
		}
		if !engine.ResultsEqualBag(ref, got) {
			out.Violations = append(out.Violations, Violation{
				Workers: w, RewritingSQL: sql, Want: ref, Got: got,
			})
		}
	}

	rws, err := sys.RewritingsContext(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("oracle: enumerating rewritings: %w", err)
	}
	out.Rewritings = len(rws)
	// check executes r at every worker count against the direct answer.
	check := func(r *core.Rewriting) error {
		for _, w := range opt.Workers {
			sys.Opts.Workers = w
			got, err := sys.ExecRewritingContext(ctx, r)
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				out.Violations = append(out.Violations, Violation{
					Workers: w, Used: r.Used, RewritingSQL: r.SQL(), Err: err,
				})
				continue
			}
			want := ref
			if r.SetOnly {
				// Section 5 rewritings promise equivalence of the result
				// sets; compare after deduplication so a key-derived
				// set-result proof is not held to a stronger contract
				// than the paper states.
				want, got = dedup(want), dedup(got)
			}
			if !engine.ResultsEqualBag(want, got) {
				out.Violations = append(out.Violations, Violation{
					Workers: w, Used: r.Used, RewritingSQL: r.SQL(), Want: want, Got: got,
				})
			}
		}
		return nil
	}
	for _, r := range rws {
		if opt.Tamper != nil {
			opt.Tamper(r)
		}
		if err := check(r); err != nil {
			return nil, err
		}
		// The select-project a plan over a group-preserving rewriting
		// executes instead (Rewriting.DropFold), on a copy: the passes
		// below keep the aggregating form.
		sp := *r
		sp.Query = r.Query.Clone()
		if sp.DropFold() {
			out.GroupPreserving++
			if err := check(&sp); err != nil {
				return nil, err
			}
		}
	}
	if len(opt.Faults) > 0 {
		if err := faultPass(ctx, sys, sql, ref, rws, opt, out); err != nil {
			return nil, err
		}
	}
	if len(opt.StorageFaults) > 0 {
		if err := storagePass(ctx, sys, sql, ref, rws, opt, out); err != nil {
			return nil, err
		}
	}
	if opt.Serve != nil {
		if err := wirePass(ctx, sys, sql, ref, opt, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// wirePass answers the case's query through the serving stack built by
// opt.Serve and requires bag equality with the direct reference. Each
// worker count issues two requests, so both the cold (singleflight
// populate) and the warm (cache hit) plan-cache paths are differential-
// checked against direct evaluation.
func wirePass(ctx context.Context, sys *aggview.System, sql string, ref *engine.Relation, opt Options, out *Outcome) error {
	exec, shutdown, err := opt.Serve(sys)
	if err != nil {
		return fmt.Errorf("oracle: serve hook: %w", err)
	}
	defer shutdown()
	for _, w := range opt.Workers {
		sys.Opts.Workers = w
		for _, label := range []string{"wire", "wire-cached"} {
			got, err := exec(ctx, sql)
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				out.Violations = append(out.Violations, Violation{Workers: w, RewritingSQL: sql, Fault: label, Err: err})
				continue
			}
			if !engine.ResultsEqualBag(ref, got) {
				out.Violations = append(out.Violations, Violation{
					Workers: w, RewritingSQL: sql, Fault: label, Want: ref, Got: got,
				})
			}
		}
	}
	return nil
}

// dedup drops duplicate tuples (set projection of a relation).
func dedup(r *engine.Relation) *engine.Relation {
	out := engine.NewRelation(r.Attrs...)
	seen := map[string]bool{}
	for _, t := range r.Tuples {
		var b strings.Builder
		for _, v := range t {
			b.WriteString(v.Key())
			b.WriteByte(0)
		}
		k := b.String()
		if !seen[k] {
			seen[k] = true
			out.Add(t...)
		}
	}
	return out
}
