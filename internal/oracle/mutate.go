package oracle

// The mutation oracle: seeded scenarios of inserts, deletes, updates
// and queries over a schema with tracked (incrementally maintained)
// views, checked three ways. A serial differential pass asserts after
// every mutation that each maintained materialization is bag-equal to
// a fresh evaluation of its definition, and that every query answered
// through the rewriter agrees with direct evaluation. A concurrent
// pass runs the mutation sequence against readers that pin MVCC
// snapshots and require each snapshot to be internally consistent — a
// reader observing a half-applied batch (view diverging from its
// definition within one snapshot) is a violation. A fault pass re-runs
// the sequence with deterministic cancellations injected at the
// maintenance site and holds every mutation to the atomic-batch
// contract: the exact post-state or a clean typed error with the
// pre-state intact, never a partial application.
//
// Scenarios render as replayable SQL scripts (CREATE TABLE / INSERT /
// CREATE VIEW setup, then INSERT / DELETE / UPDATE / SELECT steps) and
// a shrinker reduces violations to minimal scripts that ReplayMutation
// parses back verbatim.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/sqlparser"
	"aggview/internal/value"
)

// Step kinds of a mutation scenario.
const (
	StepInsert = "insert"
	StepDelete = "delete"
	StepUpdate = "update"
	StepQuery  = "query"
)

// MutStep is one step of a mutation scenario: a mutation against a
// base table, or a query checked at that point of the history.
type MutStep struct {
	Kind  string
	Table string          // mutation target (insert/delete/update)
	Rows  [][]value.Value // insert rows
	Where string          // delete/update condition; "" = unconditional
	Set   string          // update SET clause body, e.g. "B = B + 1"
	Query *QuerySpec      // query steps only
}

// SQL renders the step as a script statement.
func (s *MutStep) SQL() string {
	switch s.Kind {
	case StepInsert:
		ins := "INSERT INTO " + s.Table + " VALUES "
		for i, row := range s.Rows {
			if i > 0 {
				ins += ", "
			}
			ins += "(" + renderRow(row) + ")"
		}
		return ins
	case StepDelete:
		out := "DELETE FROM " + s.Table
		if s.Where != "" {
			out += " WHERE " + s.Where
		}
		return out
	case StepUpdate:
		out := "UPDATE " + s.Table + " SET " + s.Set
		if s.Where != "" {
			out += " WHERE " + s.Where
		}
		return out
	case StepQuery:
		return s.Query.SQL()
	}
	return "-- unknown step " + s.Kind
}

// clone deep-copies the step.
func (s *MutStep) clone() MutStep {
	out := *s
	out.Rows = nil
	for _, row := range s.Rows {
		out.Rows = append(out.Rows, append([]value.Value{}, row...))
	}
	if s.Query != nil {
		q := s.Query.clone()
		out.Query = &q
	}
	return out
}

// MutationCase is one mutation-oracle scenario: a base instance whose
// tables hold the initial contents and whose views are all tracked,
// plus an ordered step sequence. Base.Query is unused — the queries
// under test travel as steps.
type MutationCase struct {
	Base  *Case
	Steps []MutStep
}

// Script renders the scenario as a replayable SQL script: the setup
// (tables with initial contents, then every view), then the steps in
// order. The last CREATE VIEW statement marks the end of the setup, so
// ReplayMutation can split the script without further markers.
func (mc *MutationCase) Script() string {
	var b strings.Builder
	for _, t := range mc.Base.Tables {
		b.WriteString(t.SQL() + ";\n")
		if len(t.Rows) > 0 {
			ins := "INSERT INTO " + t.Name + " VALUES "
			for i, row := range t.Rows {
				if i > 0 {
					ins += ", "
				}
				ins += "(" + renderRow(row) + ")"
			}
			b.WriteString(ins + ";\n")
		}
	}
	for _, v := range mc.Base.Views {
		b.WriteString(v.SQL() + ";\n")
	}
	for _, st := range mc.Steps {
		b.WriteString(st.SQL() + ";\n")
	}
	return b.String()
}

// Clone deep-copies the scenario for the shrinker.
func (mc *MutationCase) Clone() *MutationCase {
	out := &MutationCase{Base: mc.Base.Clone()}
	for i := range mc.Steps {
		out.Steps = append(out.Steps, mc.Steps[i].clone())
	}
	return out
}

// GenerateMutation produces one random scenario over a generated
// instance: 8–20 steps mixing inserts (respecting declared keys),
// predicate deletes, non-key updates and anchored queries.
func GenerateMutation(rng *rand.Rand, opt GenOptions) *MutationCase {
	opt = opt.withDefaults()
	c, tables := generate(rng, opt)
	w := &Workload{Case: c, tables: tables, domain: opt.Domain, nextKey: map[string]int64{}}
	for _, t := range tables {
		w.nextKey[t.spec.Name] = int64(len(t.spec.Rows))
	}
	mc := &MutationCase{Base: c}
	n := 8 + rng.Intn(13)
	for len(mc.Steps) < n {
		t := tables[rng.Intn(len(tables))]
		switch r := rng.Intn(10); {
		case r < 4:
			mc.Steps = append(mc.Steps, MutStep{
				Kind: StepInsert, Table: t.spec.Name,
				Rows: w.Rows(rng, t.spec.Name, 1+rng.Intn(4)),
			})
		case r < 6:
			mc.Steps = append(mc.Steps, MutStep{
				Kind: StepDelete, Table: t.spec.Name,
				Where: strings.Join(genConds(rng, t, 2, opt.Domain), " AND "),
			})
		case r < 8:
			if step, ok := genUpdate(rng, t, opt); ok {
				mc.Steps = append(mc.Steps, step)
			}
		default:
			anchored := rng.Intn(7) != 0
			q := genQuery(rng, tables, &c.Views[0].Def, anchored, opt)
			mc.Steps = append(mc.Steps, MutStep{Kind: StepQuery, Query: &q})
		}
	}
	return mc
}

// genUpdate draws an UPDATE over the table's non-key columns:
// additive rewrites for numeric columns (exercising delta arithmetic)
// and constant rewrites otherwise. Key columns are never assigned, so
// a declared key stays honest across the scenario.
func genUpdate(rng *rand.Rand, t *genTable, opt GenOptions) (MutStep, bool) {
	keyed := map[string]bool{}
	for _, k := range t.spec.Key {
		keyed[k] = true
	}
	var pool []genCol
	for _, c := range t.cols {
		if !keyed[c.name] {
			pool = append(pool, c)
		}
	}
	if len(pool) == 0 {
		return MutStep{}, false
	}
	var sets []string
	for _, c := range pickCols(rng, pool, 1+rng.Intn(2)) {
		switch {
		case c.kind == kindInt && rng.Intn(2) == 0:
			sets = append(sets, fmt.Sprintf("%s = %s + %d", c.name, c.name, 1+rng.Intn(3)))
		case c.kind == kindFloat && rng.Intn(2) == 0:
			sets = append(sets, fmt.Sprintf("%s = %s + %s", c.name, c.name, renderConst(rng, kindFloat, opt.Domain)))
		default:
			sets = append(sets, c.name+" = "+renderConst(rng, c.kind, opt.Domain))
		}
	}
	return MutStep{
		Kind: StepUpdate, Table: t.spec.Name,
		Set:   strings.Join(sets, ", "),
		Where: strings.Join(genConds(rng, t, 2, opt.Domain), " AND "),
	}, true
}

// MutOptions configures a mutation check.
type MutOptions struct {
	// Readers is the number of concurrent snapshot readers in the
	// concurrency pass; 0 means the default (2), negative disables the
	// pass.
	Readers int
	// Faults lists maintenance-site cancellation countdowns: for each
	// k, the whole step sequence is re-run with an injector canceling at
	// the k-th maintenance observation of every mutation, asserting the
	// atomic-batch contract and that a clean retry succeeds. Empty
	// disables the pass.
	Faults []int64
	// ShrinkBudget bounds the number of CheckMutationContext calls one
	// ShrinkMutationContext may spend; 0 means the default (120).
	ShrinkBudget int
	// Tamper, when set, corrupts the compiled system before the serial
	// pass checks it. It exists to prove the checker catches divergence
	// and to exercise the shrinker; production soaks leave it nil.
	Tamper func(*aggview.System)
}

func (o MutOptions) withDefaults() MutOptions {
	if o.Readers == 0 {
		o.Readers = 2
	}
	return o
}

// MutOutcome reports what one CheckMutationContext observed.
type MutOutcome struct {
	// Steps is the number of scenario steps executed in the serial pass.
	Steps int
	// Incremental counts the tracked views maintained by counting
	// deltas (the rest recompute on every mutation).
	Incremental int
	// Modes lists the distinct ways the scenario's views are maintained
	// (aggview.ViewMode): "incremental", or "recompute:" and the
	// maintain.Fallback behind it.
	Modes []string
	// FaultRuns counts mutation attempts performed under an armed
	// injector.
	FaultRuns int
	// Violations lists every divergence found (empty: scenario passed).
	Violations []Violation
}

// OK reports whether the scenario held.
func (o *MutOutcome) OK() bool { return len(o.Violations) == 0 }

// compile loads the scenario's base instance into a fresh system with
// every view tracked, returning how many track incrementally.
func (mc *MutationCase) compile(ctx context.Context, opts aggview.Options) (*aggview.System, int, error) {
	sys := aggview.New()
	sys.Opts = opts
	for _, t := range mc.Base.Tables {
		if err := sys.Load(t.SQL()); err != nil {
			return nil, 0, fmt.Errorf("oracle: table %s: %w", t.Name, err)
		}
	}
	for _, v := range mc.Base.Views {
		if err := sys.Load(v.SQL()); err != nil {
			return nil, 0, fmt.Errorf("oracle: view %s: %w", v.Name, err)
		}
	}
	for _, t := range mc.Base.Tables {
		if err := sys.SetRelation(t.Name, t.Relation()); err != nil {
			return nil, 0, fmt.Errorf("oracle: rows of %s: %w", t.Name, err)
		}
	}
	inc := 0
	for _, v := range mc.Base.Views {
		i, err := sys.TrackViewContext(ctx, v.Name)
		if err != nil {
			return nil, 0, fmt.Errorf("oracle: track %s: %w", v.Name, err)
		}
		if i {
			inc++
		}
	}
	return sys, inc, nil
}

// applyStep routes one mutation step through the production facade.
func applyStep(ctx context.Context, sys *aggview.System, st *MutStep) error {
	switch st.Kind {
	case StepInsert:
		return sys.InsertContext(ctx, st.Table, st.Rows...)
	case StepDelete:
		_, err := sys.DeleteContext(ctx, st.Table, st.Where)
		return err
	case StepUpdate:
		_, err := sys.UpdateContext(ctx, st.Table, st.Set, st.Where)
		return err
	}
	return fmt.Errorf("oracle: unknown mutation step kind %q", st.Kind)
}

// applyStepRecover converts a panic during maintenance into an error,
// the same currency as the fault passes of check.go.
func applyStepRecover(ctx context.Context, sys *aggview.System, st *MutStep) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return applyStep(ctx, sys, st)
}

// viewDivergence compares a view's maintained materialization against
// a fresh evaluation of its definition on the live database, returning
// a violation tagged with tag, or nil when they agree.
func viewDivergence(ctx context.Context, sys *aggview.System, v *ViewSpec, tag string) *Violation {
	got, ok := sys.DB.Get(v.Name)
	if !ok {
		return &Violation{RewritingSQL: v.SQL(), Fault: tag, Err: fmt.Errorf("materialization of %s vanished", v.Name)}
	}
	want, err := sys.QueryContext(ctx, v.Def.SQL())
	if err != nil {
		return &Violation{RewritingSQL: v.SQL(), Fault: tag, Err: fmt.Errorf("recomputing %s: %w", v.Name, err)}
	}
	if !engine.ResultsEqualBag(want, got) {
		return &Violation{RewritingSQL: v.SQL(), Fault: tag, Want: want, Got: got}
	}
	return nil
}

// CheckMutationContext runs the scenario through the serial, concurrent
// and fault passes. The returned error reports a scenario that could not
// be set up at all (schema or view rejected, caller's ctx done) — a
// generator defect, not a maintenance violation.
func CheckMutationContext(ctx context.Context, mc *MutationCase, opt MutOptions) (*MutOutcome, error) {
	opt = opt.withDefaults()
	out := &MutOutcome{}
	if err := serialPass(ctx, mc, opt, out); err != nil {
		return nil, err
	}
	if opt.Readers > 0 {
		if err := concurrentPass(ctx, mc, opt, out); err != nil {
			return nil, err
		}
	}
	if len(opt.Faults) > 0 {
		if err := mutationFaultPass(ctx, mc, opt, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serialPass applies the steps one at a time, re-deriving every view
// from its definition after each mutation and differential-checking
// every query step through the rewriter.
func serialPass(ctx context.Context, mc *MutationCase, opt MutOptions, out *MutOutcome) error {
	sys, inc, err := mc.compile(ctx, aggview.Options{})
	if err != nil {
		return err
	}
	out.Incremental = inc
	for _, vm := range sys.ViewModes() {
		mode := vm.Mode
		if vm.Reason != "" {
			mode += ":" + vm.Reason
		}
		if !slices.Contains(out.Modes, mode) {
			out.Modes = append(out.Modes, mode)
		}
	}
	if opt.Tamper != nil {
		opt.Tamper(sys)
	}
	for _, v := range mc.Base.Views {
		if v := viewDivergence(ctx, sys, v, "mutate:track"); v != nil {
			out.Violations = append(out.Violations, *v)
		}
	}
	for i := range mc.Steps {
		if err := budget.Check(ctx, "oracle.mutate"); err != nil {
			return err
		}
		st := &mc.Steps[i]
		out.Steps++
		tag := fmt.Sprintf("mutate:step=%d", i)
		if st.Kind == StepQuery {
			sql := st.Query.SQL()
			want, err := sys.QueryContext(ctx, sql)
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				out.Violations = append(out.Violations, Violation{RewritingSQL: sql, Fault: tag, Err: err})
				continue
			}
			got, rw, err := sys.QueryBestContext(ctx, sql)
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				out.Violations = append(out.Violations, Violation{RewritingSQL: sql, Fault: tag, Err: err})
				continue
			}
			var used []string
			if rw != nil {
				used = rw.Used
				if rw.SetOnly {
					want, got = dedup(want), dedup(got)
				}
			}
			if !engine.ResultsEqualBag(want, got) {
				out.Violations = append(out.Violations, Violation{
					Used: used, RewritingSQL: sql, Fault: tag, Want: want, Got: got,
				})
			}
			continue
		}
		if err := applyStep(ctx, sys, st); err != nil {
			if ctx.Err() != nil {
				return err
			}
			out.Violations = append(out.Violations, Violation{RewritingSQL: st.SQL(), Fault: tag, Err: err})
			continue
		}
		for _, v := range mc.Base.Views {
			if viol := viewDivergence(ctx, sys, v, tag+":view="+v.Name); viol != nil {
				out.Violations = append(out.Violations, *viol)
			}
		}
	}
	return nil
}

// concurrentPass replays the mutation steps while reader goroutines
// pin database snapshots and require each to be internally consistent:
// every view bag-equal to its definition evaluated on the same
// snapshot, and every prepared plan bag-equal to direct evaluation on
// the same snapshot. Readers observing mid-batch state — mutations
// half-applied across relations — fail these checks; all goroutines
// are joined before the pass returns.
func concurrentPass(ctx context.Context, mc *MutationCase, opt MutOptions, out *MutOutcome) error {
	sys, _, err := mc.compile(ctx, aggview.Options{})
	if err != nil {
		return err
	}
	// Plans are prepared before the mutator starts: preparation reads
	// the statistics the mutator updates, execution does not.
	type prep struct {
		sql     string
		p       *aggview.Prepared
		setOnly bool
	}
	var preps []prep
	for i := range mc.Steps {
		if mc.Steps[i].Kind != StepQuery {
			continue
		}
		sql := mc.Steps[i].Query.SQL()
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
				for _, v := range mc.Base.Views {
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
					got, err := sys.ExecPreparedOnContext(ctx, pr.p, snap)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						record(Violation{Used: pr.p.Used, RewritingSQL: pr.sql, Fault: tag, Err: err})
						return
					}
					want, err := sys.QueryOnContext(ctx, snap, pr.sql)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						record(Violation{RewritingSQL: pr.sql, Fault: tag, Err: err})
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
	for i := range mc.Steps {
		if mc.Steps[i].Kind == StepQuery {
			continue
		}
		if err := applyStep(ctx, sys, &mc.Steps[i]); err != nil {
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

// mutationFaultPass re-runs the mutation sequence once per configured
// countdown k with a deterministic injector armed at the maintenance
// site for every mutation. A firing injector must surface as a clean
// typed Canceled error with every materialization still consistent
// (the batch aborted whole), and a clean retry of the same mutation
// must then succeed — the oracle's exact-state-or-typed-error
// contract for maintenance.
func mutationFaultPass(ctx context.Context, mc *MutationCase, opt MutOptions, out *MutOutcome) error {
	for _, k := range opt.Faults {
		sys, _, err := mc.compile(ctx, aggview.Options{})
		if err != nil {
			return err
		}
		for i := range mc.Steps {
			if err := budget.Check(ctx, "oracle.mutate"); err != nil {
				return err
			}
			st := &mc.Steps[i]
			if st.Kind == StepQuery {
				continue
			}
			tag := fmt.Sprintf("maintain@%d:step=%d", k, i)
			in := faultinject.New(faultinject.SiteMaintain, k)
			fctx, cancel := in.Arm(ctx)
			out.FaultRuns++
			err := applyStepRecover(fctx, sys, st)
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
				// all — every view still matches its definition.
				for _, v := range mc.Base.Views {
					if viol := viewDivergence(ctx, sys, v, tag+":aborted:view="+v.Name); viol != nil {
						out.Violations = append(out.Violations, *viol)
					}
				}
				// A clean retry must succeed and leave the views exact.
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
			for _, v := range mc.Base.Views {
				if viol := viewDivergence(ctx, sys, v, tag+":view="+v.Name); viol != nil {
					out.Violations = append(out.Violations, *viol)
				}
			}
		}
	}
	return nil
}

// ShrinkMutationContext reduces a failing scenario to a smaller one that
// still fails under the same options: greedily dropping steps, views
// (keeping at least one — a scenario without a tracked view checks
// nothing), rows of insert steps and initial contents, then unused
// tables, to a fixpoint within the budget. Once ctx ends no further
// reductions are attempted and the smallest failing variant found so
// far is returned.
func ShrinkMutationContext(ctx context.Context, mc *MutationCase, opt MutOptions) *MutationCase {
	budget := opt.ShrinkBudget
	if budget <= 0 {
		budget = 120
	}
	fails := func(cand *MutationCase) bool {
		if budget <= 0 || ctx.Err() != nil {
			return false
		}
		budget--
		out, err := CheckMutationContext(ctx, cand, opt)
		return err == nil && !out.OK()
	}
	cur := mc.Clone()
	if !fails(cur) {
		return mc
	}
	for changed := true; changed && budget > 0; {
		changed = false
		if next, ok := shrinkSteps(cur, fails); ok {
			cur, changed = next, true
		}
		if next, ok := shrinkMutViews(cur, fails); ok {
			cur, changed = next, true
		}
		if next, ok := shrinkMutRows(cur, fails); ok {
			cur, changed = next, true
		}
		if next, ok := shrinkMutTables(cur, fails); ok {
			cur, changed = next, true
		}
	}
	return cur
}

// shrinkSteps tries dropping whole steps.
func shrinkSteps(mc *MutationCase, fails func(*MutationCase) bool) (*MutationCase, bool) {
	shrunk := false
	for i := 0; i < len(mc.Steps); {
		cand := mc.Clone()
		cand.Steps = append(cand.Steps[:i], cand.Steps[i+1:]...)
		if fails(cand) {
			mc, shrunk = cand, true
		} else {
			i++
		}
	}
	return mc, shrunk
}

// shrinkMutViews tries dropping views, keeping at least one.
func shrinkMutViews(mc *MutationCase, fails func(*MutationCase) bool) (*MutationCase, bool) {
	shrunk := false
	for i := 0; i < len(mc.Base.Views) && len(mc.Base.Views) > 1; {
		cand := mc.Clone()
		cand.Base.Views = append(cand.Base.Views[:i], cand.Base.Views[i+1:]...)
		if fails(cand) {
			mc, shrunk = cand, true
		} else {
			i++
		}
	}
	return mc, shrunk
}

// shrinkMutRows reduces initial table contents and insert-step rows.
func shrinkMutRows(mc *MutationCase, fails func(*MutationCase) bool) (*MutationCase, bool) {
	shrunk := false
	for ti := range mc.Base.Tables {
		for i := 0; i < len(mc.Base.Tables[ti].Rows); {
			cand := mc.Clone()
			t := cand.Base.Tables[ti]
			t.Rows = append(t.Rows[:i], t.Rows[i+1:]...)
			if fails(cand) {
				mc, shrunk = cand, true
			} else {
				i++
			}
		}
	}
	for si := range mc.Steps {
		if mc.Steps[si].Kind != StepInsert {
			continue
		}
		for i := 0; i < len(mc.Steps[si].Rows) && len(mc.Steps[si].Rows) > 1; {
			cand := mc.Clone()
			st := &cand.Steps[si]
			st.Rows = append(st.Rows[:i], st.Rows[i+1:]...)
			if fails(cand) {
				mc, shrunk = cand, true
			} else {
				i++
			}
		}
	}
	return mc, shrunk
}

// shrinkMutTables drops tables nothing references anymore.
func shrinkMutTables(mc *MutationCase, fails func(*MutationCase) bool) (*MutationCase, bool) {
	shrunk := false
	for i := 0; i < len(mc.Base.Tables); {
		name := mc.Base.Tables[i].Name
		if mentionsTable(mc.Base, name) || stepsMention(mc, name) {
			i++
			continue
		}
		cand := mc.Clone()
		cand.Base.Tables = append(cand.Base.Tables[:i], cand.Base.Tables[i+1:]...)
		if fails(cand) {
			mc, shrunk = cand, true
		} else {
			i++
		}
	}
	return mc, shrunk
}

func stepsMention(mc *MutationCase, name string) bool {
	for i := range mc.Steps {
		st := &mc.Steps[i]
		if st.Table == name {
			return true
		}
		if st.Kind == StepQuery {
			for _, f := range st.Query.From {
				if f == name || strings.HasPrefix(f, name+" ") {
					return true
				}
			}
		}
	}
	return false
}

// ReplayMutation parses a script in the format Script emits back into
// a MutationCase: everything up to the last CREATE VIEW is setup,
// every later statement is a step. Shrunk repros from the soak replay
// verbatim.
func ReplayMutation(script string) (*MutationCase, error) {
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return nil, fmt.Errorf("oracle: replay: %w", err)
	}
	lastView := -1
	for i, st := range stmts {
		if _, ok := st.(*sqlparser.CreateView); ok {
			lastView = i
		}
	}
	if lastView < 0 {
		return nil, fmt.Errorf("oracle: replay: mutation script declares no view")
	}
	mc := &MutationCase{Base: &Case{}}
	byName := map[string]*TableSpec{}
	for i, st := range stmts {
		setup := i <= lastView
		switch x := st.(type) {
		case *sqlparser.CreateTable:
			if !setup {
				return nil, fmt.Errorf("oracle: replay: CREATE TABLE %s after the views", x.Name)
			}
			t := &TableSpec{Name: x.Name, Cols: x.Columns}
			if len(x.Keys) > 0 {
				t.Key = x.Keys[0]
			}
			mc.Base.Tables = append(mc.Base.Tables, t)
			byName[x.Name] = t
		case *sqlparser.CreateView:
			spec, err := specFromSelect(x.Query)
			if err != nil {
				return nil, fmt.Errorf("oracle: replay: view %s: %w", x.Name, err)
			}
			mc.Base.Views = append(mc.Base.Views, &ViewSpec{Name: x.Name, Cols: x.Columns, Def: spec})
		case *sqlparser.Insert:
			t, ok := byName[x.Table]
			if !ok {
				return nil, fmt.Errorf("oracle: replay: INSERT into undeclared table %s", x.Table)
			}
			for _, row := range x.Rows {
				if len(row) != len(t.Cols) {
					return nil, fmt.Errorf("oracle: replay: %s expects %d values, got %d", t.Name, len(t.Cols), len(row))
				}
			}
			if setup {
				t.Rows = append(t.Rows, x.Rows...)
			} else {
				mc.Steps = append(mc.Steps, MutStep{Kind: StepInsert, Table: x.Table, Rows: x.Rows})
			}
		case *sqlparser.Delete:
			if setup {
				return nil, fmt.Errorf("oracle: replay: DELETE before the views")
			}
			where := ""
			if x.Where != nil {
				where = x.Where.SQL()
			}
			mc.Steps = append(mc.Steps, MutStep{Kind: StepDelete, Table: x.Table, Where: where})
		case *sqlparser.Update:
			if setup {
				return nil, fmt.Errorf("oracle: replay: UPDATE before the views")
			}
			var sets []string
			for _, a := range x.Set {
				sets = append(sets, a.Col+" = "+a.Expr.SQL())
			}
			where := ""
			if x.Where != nil {
				where = x.Where.SQL()
			}
			mc.Steps = append(mc.Steps, MutStep{Kind: StepUpdate, Table: x.Table, Set: strings.Join(sets, ", "), Where: where})
		case *sqlparser.QueryStatement:
			if setup {
				return nil, fmt.Errorf("oracle: replay: SELECT before the views")
			}
			spec, err := specFromSelect(x.Query)
			if err != nil {
				return nil, fmt.Errorf("oracle: replay: query: %w", err)
			}
			mc.Steps = append(mc.Steps, MutStep{Kind: StepQuery, Query: &spec})
		default:
			return nil, fmt.Errorf("oracle: replay: unsupported statement %T", st)
		}
	}
	return mc, nil
}
