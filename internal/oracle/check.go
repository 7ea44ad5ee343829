package oracle

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/core"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
	"aggview/internal/sqlparser"
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
	// path. The served answer must be bag-equal to the reference at
	// every worker count, on both the cold and the warm
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
	// "maintain@2:step=1:aborted:table=T0",
	// "mutate:concurrent:reader=1:torn-view"), or a query step whose
	// direct execution failed after a mutation ("direct:step=4"), or a
	// query step, mutation or view the reference failed on where the
	// system did not ("ref:step=4", "ref:mutate:step=3",
	// "ref:mutate:track:view=V0"), or a query step re-spelled in random
	// letter case that is not the same statement ("spelling");
	// empty for a query step's plain differential.
	Fault string
	// Err is set when execution failed outright.
	Err error
	// Want and Got are the reference's and the system's results (a
	// table's: the model's rows and the stored ones); nil when Err is
	// set.
	Want, Got *engine.Relation
}

// directTag prefixes the Fault of a query step whose direct execution
// failed after a mutation step, and refTag that of a step, view or
// query the reference failed on where the system did not.
const (
	directTag = "direct"
	refTag    = "ref"
)

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
	// RefChecked counts the reference's evaluations — a query step's or
	// a view definition's — that answers were held to.
	RefChecked int
	// RefSkipped counts those skipped for their FROM row product: the
	// query step is then held to its first direct run, and the view is
	// not checked.
	RefSkipped int
	// Violations lists every inequivalence found (empty: case passed).
	Violations []Violation
}

// OK reports whether the case held.
func (o *Outcome) OK() bool { return len(o.Violations) == 0 }

// CheckContext compiles the case, tracking every view, and walks its
// steps, holding every answer to the reference (reference.go), which
// evaluates over the oracle's own model of the tables. Before the first
// step and after every mutation, each view's maintained materialization
// must be bag-equal to the reference's evaluation of its definition and
// each base table to the model; each query step gets the full
// differential of checkQuery. When the case mutates, its mutation steps
// then run through the concurrent pass and, with Options.Faults set, the
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

// serialPass applies the steps one at a time on one compiled system and,
// each mutation the system applies, on the model.
func serialPass(ctx context.Context, c *Case, opt Options, out *Outcome) error {
	sys, err := c.compile(ctx, opt.system(), opt.Metrics)
	if err != nil {
		return err
	}
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
	m := newModel(c)
	if err := checkState(ctx, sys, m, "mutate:track", out); err != nil {
		return err
	}
	mutated := false
	for i := range c.Steps {
		if err := budget.Check(ctx, "oracle.check"); err != nil {
			return err
		}
		st := &c.Steps[i]
		if st.Kind == StepQuery {
			if err := checkQuery(ctx, sys, m, st.Query.SQL(), i, mutated, serve, opt, out); err != nil {
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
		if err := applyModel(ctx, sys, m, st, tag, out); err != nil {
			return err
		}
	}
	return nil
}

// applyModel applies a mutation step the system applied to the model —
// the reference failing where the system did not is a violation tagged
// "ref:" and tag — and holds the system's state to it.
func applyModel(ctx context.Context, sys *aggview.System, m *model, st *Step, tag string, out *Outcome) error {
	if err := m.apply(st); err != nil {
		out.Violations = append(out.Violations, Violation{RewritingSQL: st.SQL(), Fault: refTag + ":" + tag, Err: err})
		return nil
	}
	return checkState(ctx, sys, m, tag, out)
}

// checkState holds the system's state to the model: each view's
// maintained materialization bag-equal to the reference's evaluation of
// its definition, and each base table to the model's rows. It records a
// violation tagged with tag and the view's or table's name for each that
// differs. Only the caller's ctx ending is returned, as a typed error.
func checkState(ctx context.Context, sys *aggview.System, m *model, tag string, out *Outcome) error {
	for _, v := range m.views {
		if err := budget.Check(ctx, "oracle.views"); err != nil {
			return err
		}
		viol := Violation{RewritingSQL: v.SQL(), Fault: tag + ":view=" + v.Name}
		want, err := m.view(v)
		if errors.Is(err, errRefSkipped) {
			out.RefSkipped++
			continue
		}
		if err == nil {
			out.RefChecked++
		}
		got, ok := sys.DB.Get(v.Name)
		switch {
		case err != nil:
			viol.Fault, viol.Err = refTag+":"+viol.Fault, err
		case !ok:
			viol.Err = fmt.Errorf("materialization of %s vanished", v.Name)
		case !engine.ResultsEqualBag(want, got):
			viol.Want, viol.Got = want, got
		default:
			continue
		}
		out.Violations = append(out.Violations, viol)
	}
	for _, t := range m.tables {
		viol := Violation{RewritingSQL: t.SQL(), Fault: tag + ":table=" + t.Name}
		want := &engine.Relation{Attrs: t.Cols, Tuples: t.Rows}
		switch got, ok := sys.DB.Get(t.Name); {
		case !ok:
			viol.Err = fmt.Errorf("table %s vanished", t.Name)
		case !engine.ResultsEqualBag(want, got):
			viol.Want, viol.Got = want, got
		default:
			continue
		}
		out.Violations = append(out.Violations, viol)
	}
	return nil
}

// checkQuery executes query step i directly, re-spelled in random letter
// case (which must keep its plan key), and via every rewriting the
// rewriter emits, at every configured worker count, against the
// reference's answer, and records each multiset inequality as a
// violation; then, as configured, the injection, storage and wire passes
// run over the same executions. Where the reference is skipped (its row
// bound) or fails, the first direct run stands in for it; a reference
// failure where the system answers is a violation itself. A direct run
// that fails is a generator defect before any mutation (the returned
// error) and a violation after one.
func checkQuery(ctx context.Context, sys *aggview.System, m *model, sql string, i int, mutated bool, serve func(context.Context, string) (*engine.Relation, error), opt Options, out *Outcome) error {
	ref, rerr := m.query(sql)
	switch {
	case rerr == nil:
		out.RefChecked++
	case errors.Is(rerr, errRefSkipped):
		out.RefSkipped++
	}
	// The query as a user may spell it (respell) is the same statement,
	// and its direct plan must give the reference's answer at every
	// worker count.
	spelled, err := respell(sql)
	if err != nil {
		return fmt.Errorf("oracle: re-spelling: %w", err)
	}
	for k, w := range opt.Workers {
		sys.Opts.Workers = w
		got, err := sys.QueryContext(ctx, spelled)
		switch {
		case err != nil && ctx.Err() != nil:
			return err
		case err != nil && k == 0 && !mutated:
			return fmt.Errorf("oracle: direct execution: %w", err)
		case err != nil && k == 0:
			// After a mutation, a query the system does not answer is
			// an engine failure, not a generator defect.
			out.Violations = append(out.Violations, Violation{Workers: w, RewritingSQL: spelled, Fault: fmt.Sprintf("%s:step=%d", directTag, i), Err: err})
			return nil
		case err != nil:
			out.Violations = append(out.Violations, Violation{Workers: w, RewritingSQL: spelled, Err: err})
		case ref == nil:
			ref = got
		case !engine.ResultsEqualBag(ref, got):
			out.Violations = append(out.Violations, Violation{Workers: w, RewritingSQL: spelled, Want: ref, Got: got})
		}
	}
	if rerr != nil && !errors.Is(rerr, errRefSkipped) {
		out.Violations = append(out.Violations, Violation{RewritingSQL: sql, Fault: fmt.Sprintf("%s:step=%d", refTag, i), Err: rerr})
	}
	key, err := sys.PlanKey(sql)
	if err != nil {
		return fmt.Errorf("oracle: keying: %w", err)
	}
	if k, _ := sys.PlanKey(spelled); k != key {
		out.Violations = append(out.Violations, Violation{RewritingSQL: spelled, Fault: "spelling",
			Err: fmt.Errorf("plan key %q, the original spelling's is %q", k, key)})
	}

	rws, err := sys.RewritingsContext(ctx, sql)
	if err != nil {
		return fmt.Errorf("oracle: enumerating rewritings: %w", err)
	}
	out.Rewritings += len(rws)
	// check executes r at every worker count against the reference.
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
		return wirePass(ctx, sys, sql, spelled, ref, serve, opt, out)
	}
	return nil
}

// respell re-spells the table, range-variable and column names of a
// SELECT, each letter in a random case, and renders it back. Its random
// source is its own, seeded by the text, so the generators' streams are
// untouched and a case re-spells the same way on every run.
func respell(sql string) (string, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write([]byte(sql))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	name := func(s *string) {
		b := []byte(*s)
		for i, c := range b {
			if 'a' <= c|0x20 && c|0x20 <= 'z' && rng.Intn(2) == 0 {
				b[i] ^= 0x20 // the other case of an ASCII letter
			}
		}
		*s = string(b)
	}
	var walk func(n any)
	walk = func(n any) {
		switch x := n.(type) {
		case *sqlparser.Select:
			for _, it := range x.Items {
				walk(it.Expr)
			}
			for i := range x.From {
				name(&x.From[i].Table)
				name(&x.From[i].Alias)
				if x.From[i].Subquery != nil {
					walk(x.From[i].Subquery)
				}
			}
			for _, g := range x.GroupBy {
				walk(g)
			}
			walk(x.Where)
			walk(x.Having)
		case *sqlparser.ColumnRef:
			name(&x.Qualifier)
			name(&x.Name)
		case *sqlparser.AggExpr:
			walk(x.Arg)
		case *sqlparser.BinExpr:
			walk(x.L)
			walk(x.R)
		}
	}
	walk(sel)
	return sel.SQL(), nil
}

// wirePass answers a query step through the serving stack built by
// opt.Serve and requires bag equality with ref, the reference's answer.
// Each worker count issues two requests, so both the cold (singleflight
// populate) and the warm (cache hit) plan-cache paths are checked; the
// warm request sends spelled, the query re-spelled, which reaches the
// cached plan through its key.
func wirePass(ctx context.Context, sys *aggview.System, sql, spelled string, ref *engine.Relation, exec func(context.Context, string) (*engine.Relation, error), opt Options, out *Outcome) error {
	for _, w := range opt.Workers {
		sys.Opts.Workers = w
		for _, req := range []struct{ label, sql string }{{"wire", sql}, {"wire-cached", spelled}} {
			got, err := exec(ctx, req.sql)
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				out.Violations = append(out.Violations, Violation{Workers: w, RewritingSQL: req.sql, Fault: req.label, Err: err})
				continue
			}
			if !engine.ResultsEqualBag(ref, got) {
				out.Violations = append(out.Violations, Violation{
					Workers: w, RewritingSQL: req.sql, Fault: req.label, Want: ref, Got: got,
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
	var k []byte
	for _, t := range r.Tuples {
		k = k[:0]
		for _, v := range t {
			k = v.AppendKey(k)
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			out.Add(t...)
		}
	}
	return out
}
