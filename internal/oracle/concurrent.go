package oracle

import (
	"context"
	"fmt"
	"sync"

	"aggview"
	"aggview/internal/engine"
)

// concurrentPass replays the mutation steps while reader goroutines
// pin database snapshots and require each to be internally consistent:
// every view bag-equal to its definition evaluated on the same
// snapshot, and every prepared plan bag-equal to direct evaluation on
// the same snapshot. Readers observing mid-batch state — mutations
// half-applied across relations — fail these checks; all goroutines
// are joined before the pass returns. A query the snapshot's data makes
// fail directly (a division by zero) fails however it is planned, which
// is no evidence of a torn read: the pass skips it on that snapshot and
// leaves direct failures to the serial pass.
func concurrentPass(ctx context.Context, c *Case, opt Options, out *Outcome) error {
	sys, err := c.CompileContext(ctx, opt.system())
	if err != nil {
		return err
	}
	// Plans are prepared once, before the mutator starts, and run on
	// every snapshot the readers pin: a prepared plan stays
	// answer-correct across writes, which is what the pass checks.
	type prep struct {
		sql     string
		p       *aggview.Prepared
		setOnly bool
	}
	var preps []prep
	for i := range c.Steps {
		if c.Steps[i].Kind != StepQuery {
			continue
		}
		sql := c.Steps[i].Query.SQL()
		p, err := sys.PrepareContext(ctx, sql)
		if err != nil {
			continue // the serial pass already reported query defects
		}
		setOnly := p.Rewritten() && p.Rewriting().SetOnly
		preps = append(preps, prep{sql: sql, p: p, setOnly: setOnly})
	}

	var mu sync.Mutex
	record := func(v Violation) {
		mu.Lock()
		out.Violations = append(out.Violations, v)
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < opt.Readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for turn := 0; ; turn++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := sys.DB.Snapshot()
				tag := fmt.Sprintf("mutate:concurrent:reader=%d", id)
				for _, v := range c.Views {
					pinned, ok := snap.Relation(v.Name)
					if !ok {
						record(Violation{RewritingSQL: v.SQL(), Fault: tag, Err: fmt.Errorf("snapshot lost view %s", v.Name)})
						return
					}
					want, err := sys.QueryOnContext(ctx, snap, v.Def.SQL())
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						record(Violation{RewritingSQL: v.SQL(), Fault: tag, Err: err})
						return
					}
					if !engine.ResultsEqualBag(want, pinned) {
						record(Violation{RewritingSQL: v.SQL(), Fault: tag + ":torn-view", Want: want, Got: pinned})
						return
					}
				}
				if len(preps) > 0 {
					pr := preps[turn%len(preps)]
					want, err := sys.QueryOnContext(ctx, snap, pr.sql)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						continue
					}
					got, err := sys.ExecPreparedOnContext(ctx, pr.p, snap)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						record(Violation{Used: pr.p.Used, RewritingSQL: pr.sql, Fault: tag, Err: err})
						return
					}
					if pr.setOnly {
						want, got = dedup(want), dedup(got)
					}
					if !engine.ResultsEqualBag(want, got) {
						record(Violation{Used: pr.p.Used, RewritingSQL: pr.sql, Fault: tag + ":torn-plan", Want: want, Got: got})
						return
					}
				}
			}
		}(r)
	}
	var mutErr error
	for i := range c.Steps {
		if c.Steps[i].Kind == StepQuery {
			continue
		}
		if err := applyStep(ctx, sys, &c.Steps[i]); err != nil {
			mutErr = err
			break
		}
	}
	close(stop)
	wg.Wait()
	if mutErr != nil && ctx.Err() != nil {
		return mutErr
	}
	if mutErr != nil {
		out.Violations = append(out.Violations, Violation{Fault: "mutate:concurrent", Err: mutErr})
	}
	return nil
}
