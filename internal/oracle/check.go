package oracle

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/core"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
)

// Options configures a check.
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
	// Faults, when non-empty, adds the cancellation-injection passes:
	// every execution of a query step is repeated with a deterministic
	// injector armed per spec, and any run that yields a partial result,
	// an untyped error or a panic — instead of the exact correct bag or a
	// clean typed Canceled — is a violation; and the mutation steps are
	// re-run on a fresh system once per spec, each mutation under a
	// freshly armed injector, holding it to the atomic-batch contract
	// (the exact post-state, or a clean typed Canceled with the pre-state
	// intact and a clean retry that succeeds). The soaks arm the
	// maintenance site for the latter.
	Faults []faultinject.Spec
	// StorageFaults lists scan countdowns for the storage-fault pass:
	// for each k, every execution is repeated against a FaultStorage
	// backend whose k-th table scan (and every later one) fails with a
	// typed I/O-style error, and the run must end in either the exact
	// correct bag or that clean typed error — never a partial result.
	// Empty with Faults set defaults to {1, 2, 4}; empty with Faults
	// empty disables the pass.
	StorageFaults []int64
	// Readers is the number of snapshot readers in the concurrent pass
	// over a case's mutation steps; 0 means the default (2), negative
	// disables the pass.
	Readers int
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
	// Fault "wire" / "wire-cached". One serving stack answers every query
	// step of a case, its plan cache invalidated by the mutations between
	// them.
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
	if o.Readers == 0 {
		o.Readers = 2
	}
	return o
}

// system is the facade configuration every compiled system of a check
// runs under.
func (o Options) system() aggview.Options {
	return aggview.Options{PaperFaithful: o.PaperFaithful, MaxRewritings: o.MaxRewritings}
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
	// Fault tags where the violation surfaced: the injected fault
	// ("site@k", "storage@k") or the wire pass ("wire", "wire-cached")
	// of a query step, or the mutation checks ("mutate:step=3:view=V0",
	// "maintain@2:step=1:aborted:view=V0",
	// "mutate:concurrent:reader=1:torn-view"), or a query step whose
	// direct execution failed after a mutation ("direct:step=4");
	// empty for a query step's plain differential.
	Fault string
	// Err is set when execution failed outright.
	Err error
	// Want and Got are the direct and the rewritten results; nil when
	// Err is set.
	Want, Got *engine.Relation
}

// directTag prefixes the Fault of a query step whose direct execution
// failed after a mutation step.
const directTag = "direct"

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
	// Rewritings is the number of rewritings the rewriter emitted over
	// the query steps.
	Rewritings int
	// GroupPreserving counts the rewritings whose select-project form
	// (Rewriting.DropFold) was checked as well.
	GroupPreserving int
	// Incremental counts the tracked views maintained by counting
	// deltas (the rest recompute on every mutation).
	Incremental int
	// Modes lists the distinct ways the case's views are maintained
	// (aggview.ViewMode): "incremental", or "recompute:" and the
	// maintain.Fallback behind it.
	Modes []string
	// FaultRuns counts executions and mutations performed under an
	// armed fault (0 when Options.Faults and StorageFaults are empty).
	FaultRuns int
	// Violations lists every inequivalence found (empty: case passed).
	Violations []Violation
}

// OK reports whether the case held.
func (o *Outcome) OK() bool { return len(o.Violations) == 0 }

// CheckContext compiles the case, tracking every view, and walks its
// steps. Before the first step and after every mutation, each view's
// maintained materialization must be bag-equal to a fresh evaluation
// of its definition; each query step gets the full differential of
// checkQuery. When the case mutates, its mutation steps then run
// through the concurrent pass and, with Options.Faults set, the
// maintenance-fault pass. The returned error reports a case that could
// not be set up, or whose query the system rejects outright before any
// mutation — a generator defect, not an equivalence violation.
// Cancellation and deadline expiry abort the check with a typed error
// (no partial outcome is returned), and the injection passes derive
// each per-run armed context from ctx.
func CheckContext(ctx context.Context, c *Case, opt Options) (*Outcome, error) {
	opt = opt.withDefaults()
	out := &Outcome{}
	if err := serialPass(ctx, c, opt, out); err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(c.Steps, func(st Step) bool { return st.Kind != StepQuery }) {
		return out, nil
	}
	if opt.Readers > 0 {
		if err := concurrentPass(ctx, c, opt, out); err != nil {
			return nil, err
		}
	}
	if err := maintainFaultPass(ctx, c, opt, out); err != nil {
		return nil, err
	}
	return out, nil
}

// serialPass applies the steps one at a time on one compiled system.
func serialPass(ctx context.Context, c *Case, opt Options, out *Outcome) error {
	sys, err := c.CompileContext(ctx, opt.system())
	if err != nil {
		return err
	}
	sys.Metrics = opt.Metrics
	for _, vm := range sys.ViewModes() {
		if vm.Mode == "incremental" {
			out.Incremental++
		}
		mode := vm.Mode
		if vm.Reason != "" {
			mode += ":" + vm.Reason
		}
		if !slices.Contains(out.Modes, mode) {
			out.Modes = append(out.Modes, mode)
		}
	}
	var serve func(ctx context.Context, sql string) (*engine.Relation, error)
	if opt.Serve != nil {
		exec, shutdown, err := opt.Serve(sys)
		if err != nil {
			return fmt.Errorf("oracle: serve hook: %w", err)
		}
		defer shutdown()
		serve = exec
	}
	if err := checkViews(ctx, sys, c.Views, "mutate:track", out); err != nil {
		return err
	}
	mutated := false
	for i := range c.Steps {
		if err := budget.Check(ctx, "oracle.check"); err != nil {
			return err
		}
		st := &c.Steps[i]
		if st.Kind == StepQuery {
			// Reference: direct execution, serial.
			sql := st.Query.SQL()
			sys.Opts.Workers = 1
			ref, err := sys.QueryContext(ctx, sql)
			switch {
			case err == nil:
				err = checkQuery(ctx, sys, sql, ref, serve, opt, out)
			case mutated && ctx.Err() == nil:
				// After a mutation, a query the system does not answer
				// is an engine failure, not a generator defect.
				out.Violations = append(out.Violations, Violation{RewritingSQL: sql, Fault: fmt.Sprintf("%s:step=%d", directTag, i), Err: err})
				continue
			default:
				err = fmt.Errorf("oracle: direct execution: %w", err)
			}
			if err != nil {
				return err
			}
			continue
		}
		mutated = true
		tag := fmt.Sprintf("mutate:step=%d", i)
		if err := applyStep(ctx, sys, st); err != nil {
			if ctx.Err() != nil {
				return err
			}
			out.Violations = append(out.Violations, Violation{RewritingSQL: st.SQL(), Fault: tag, Err: err})
			continue
		}
		if err := checkViews(ctx, sys, c.Views, tag, out); err != nil {
			return err
		}
	}
	return nil
}

// checkViews compares each view's maintained materialization against a
// fresh evaluation of its definition on the live database, recording a
// violation tagged with tag and the view's name for each that differs.
// Only the caller's ctx ending is returned, as a typed error.
func checkViews(ctx context.Context, sys *aggview.System, views []*ViewSpec, tag string, out *Outcome) error {
	for _, v := range views {
		want, qerr := sys.QueryContext(ctx, v.Def.SQL())
		if err := budget.Check(ctx, "oracle.views"); err != nil {
			return err
		}
		viol := Violation{RewritingSQL: v.SQL(), Fault: tag + ":view=" + v.Name}
		got, ok := sys.DB.Get(v.Name)
		switch {
		case qerr != nil:
			viol.Err = fmt.Errorf("recomputing %s: %w", v.Name, qerr)
		case !ok:
			viol.Err = fmt.Errorf("materialization of %s vanished", v.Name)
		case !engine.ResultsEqualBag(want, got):
			viol.Want, viol.Got = want, got
		default:
			continue
		}
		out.Violations = append(out.Violations, viol)
	}
	return nil
}

// checkQuery executes one query step directly and via every rewriting
// the rewriter emits, at every configured worker count, against ref,
// its serial direct answer, and records each multiset inequality as a
// violation; then, as configured, the injection, storage and wire
// passes run over the same executions.
func checkQuery(ctx context.Context, sys *aggview.System, sql string, ref *engine.Relation, serve func(context.Context, string) (*engine.Relation, error), opt Options, out *Outcome) error {
	// The direct plan must agree with itself at every worker count
	// (the engine's determinism contract).
	for _, w := range opt.Workers {
		if w == 1 {
			continue
		}
		sys.Opts.Workers = w
		got, err := sys.QueryContext(ctx, sql)
		if err != nil {
			if ctx.Err() != nil {
				return err
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
		return fmt.Errorf("oracle: enumerating rewritings: %w", err)
	}
	out.Rewritings += len(rws)
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
			return err
		}
		// The select-project a plan over a group-preserving rewriting
		// executes instead (Rewriting.DropFold), on a copy: the passes
		// below keep the aggregating form.
		sp := *r
		sp.Query = r.Query.Clone()
		if sp.DropFold() {
			out.GroupPreserving++
			if err := check(&sp); err != nil {
				return err
			}
		}
	}
	if err := faultPass(ctx, sys, sql, ref, rws, opt, out); err != nil {
		return err
	}
	if serve != nil {
		return wirePass(ctx, sys, sql, ref, serve, opt, out)
	}
	return nil
}

// wirePass answers a query step through the serving stack built by
// opt.Serve and requires bag equality with the direct reference. Each
// worker count issues two requests, so both the cold (singleflight
// populate) and the warm (cache hit) plan-cache paths are differential-
// checked against direct evaluation.
func wirePass(ctx context.Context, sys *aggview.System, sql string, ref *engine.Relation, exec func(context.Context, string) (*engine.Relation, error), opt Options, out *Outcome) error {
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
