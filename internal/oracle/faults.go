package oracle

// The fault passes: re-run every execution of a query step with a fault
// armed — a deterministic injector canceling the context at the k-th row
// / candidate / cache / scan observation, or a storage backend failing
// the k-th table scan — and hold the engine to the harness contract: the
// run ends in either the exact correct bag (the fault arrived after the
// work) or a clean typed abort. A partial result, any other error, or a
// panic is a violation, the same currency as a multiset inequality. The
// maintenance-fault pass holds each mutation step to the same contract
// for writes: the batch applies whole, or aborts cleanly with the
// pre-state intact.

import (
	"context"
	"fmt"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/core"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
)

// armedFault is one fault of the execution pass: how a run is armed
// (returning the context to run under and the disarm), and which error
// counts as a clean abort.
type armedFault struct {
	tag   string
	arm   func() (context.Context, context.CancelFunc)
	clean func(error) bool
}

// faultPass runs the direct query and every rewriting once per (armed
// fault, worker count): first under each cancellation spec of
// opt.Faults, armed with a fresh injector, a typed Canceled the clean
// abort (maintenance-site specs are skipped: only a write observes
// that site, so a read under one could not see its fault); then under each countdown k of opt.StorageFaults, armed with a
// fresh engine.FaultStorage backend whose k-th table scan (and every
// later one) fails with a typed I/O-style error, that error the clean
// abort too. A cancellation of the caller's ctx itself aborts the pass
// with that error. Each run restores the system's storage on disarm.
func faultPass(ctx context.Context, sys *aggview.System, sql string, ref *engine.Relation, rws []*core.Rewriting, opt Options, out *Outcome) error {
	var faults []armedFault
	for _, spec := range opt.Faults {
		if spec.Site == faultinject.SiteMaintain {
			continue
		}
		faults = append(faults, armedFault{
			tag:   fmt.Sprintf("%s@%d", spec.Site, spec.K),
			arm:   func() (context.Context, context.CancelFunc) { return faultinject.NewSpec(spec).Arm(ctx) },
			clean: budget.IsCanceled,
		})
	}
	for _, k := range opt.StorageFaults {
		faults = append(faults, armedFault{
			tag: fmt.Sprintf("storage@%d", k),
			arm: func() (context.Context, context.CancelFunc) {
				sys.Store = engine.NewFaultStorage(sys.DB, k)
				return ctx, func() { sys.Store = nil }
			},
			clean: func(err error) bool { return faultinject.IsInjected(err) || budget.IsCanceled(err) },
		})
	}
	for _, f := range faults {
		for _, w := range opt.Workers {
			if err := budget.Check(ctx, "oracle.faults"); err != nil {
				return err
			}
			sys.Opts.Workers = w
			run := func(used []string, shownSQL string, setOnly bool, exec func(context.Context) (*engine.Relation, error)) {
				out.FaultRuns++
				fctx, disarm := f.arm()
				got, err := execRecover(fctx, exec)
				disarm()
				if err != nil {
					if f.clean(err) && got == nil {
						return // clean typed abort: contract held
					}
					out.Violations = append(out.Violations, Violation{
						Workers: w, Used: used, RewritingSQL: shownSQL, Fault: f.tag,
						Err: fmt.Errorf("under injection: %w", err),
					})
					return
				}
				want := ref
				if setOnly {
					want, got = dedup(want), dedup(got)
				}
				if !engine.ResultsEqualBag(want, got) {
					out.Violations = append(out.Violations, Violation{
						Workers: w, Used: used, RewritingSQL: shownSQL, Fault: f.tag,
						Want: want, Got: got,
					})
				}
			}

			run(nil, sql, false, func(fctx context.Context) (*engine.Relation, error) {
				return sys.QueryContext(fctx, sql)
			})
			for _, r := range rws {
				run(r.Used, r.SQL(), r.SetOnly, func(fctx context.Context) (*engine.Relation, error) {
					return sys.ExecRewritingContext(fctx, r)
				})
			}
		}
	}
	return nil
}

// execRecover converts a panic under injection into an error, so the
// harness reports it as a violation instead of tearing the soak down.
func execRecover(ctx context.Context, exec func(context.Context) (*engine.Relation, error)) (res *engine.Relation, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return exec(ctx)
}

// maintainFaultPass re-runs the mutation steps on a fresh system once
// per spec of opt.Faults, each mutation under a freshly armed injector,
// and on a fresh model. A firing injector must surface as a clean typed
// Canceled error with every table and view still as the model holds them
// before the step (the batch aborted whole), and a clean retry of the
// same mutation must then succeed and leave them as the model holds them
// after it — the oracle's exact-state-or-typed-error contract for
// maintenance.
func maintainFaultPass(ctx context.Context, c *Case, opt Options, out *Outcome) error {
	for _, spec := range opt.Faults {
		sys, err := c.CompileContext(ctx, opt.system())
		if err != nil {
			return err
		}
		m := newModel(c)
		for i := range c.Steps {
			if err := budget.Check(ctx, "oracle.faults"); err != nil {
				return err
			}
			st := &c.Steps[i]
			if st.Kind == StepQuery {
				continue
			}
			tag := fmt.Sprintf("%s@%d:step=%d", spec.Site, spec.K, i)
			fctx, cancel := faultinject.NewSpec(spec).Arm(ctx)
			out.FaultRuns++
			err := applyStep(fctx, sys, st)
			cancel()
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				if !budget.IsCanceled(err) {
					out.Violations = append(out.Violations, Violation{
						RewritingSQL: st.SQL(), Fault: tag,
						Err: fmt.Errorf("under injection: %w", err),
					})
					continue
				}
				// Clean typed abort: the batch must not have applied at
				// all.
				if err := checkState(ctx, sys, m, tag+":aborted", out); err != nil {
					return err
				}
				// A clean retry must succeed and leave the state exact.
				if err := applyStep(ctx, sys, st); err != nil {
					if ctx.Err() != nil {
						return err
					}
					out.Violations = append(out.Violations, Violation{
						RewritingSQL: st.SQL(), Fault: tag,
						Err: fmt.Errorf("retry after clean abort: %w", err),
					})
					continue
				}
			}
			if err := applyModel(ctx, sys, m, st, tag, out); err != nil {
				return err
			}
		}
	}
	return nil
}
