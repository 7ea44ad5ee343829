// Package aggview answers SQL queries with grouping and aggregation
// using materialized views, implementing Dar, Jagadish, Levy and
// Srivastava's "Reasoning with Aggregation Constraints in Views" (1996).
//
// A System bundles a catalog, a set of view definitions, an in-memory
// multiset database and the rewriter:
//
//	s := aggview.New()
//	s.MustLoad(`CREATE TABLE Calls(Call_Id, Plan_Id, Year, Charge) KEY(Call_Id)`)
//	s.MustDefineView("V1", "SELECT Plan_Id, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year")
//	... insert data, s.TrackViewContext(ctx, "V1") ...
//	res, used, err := s.QueryBestContext(ctx, "SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id")
//
// QueryBestContext rewrites the query to range over materialized views
// whenever the paper's usability conditions hold and the cost model
// prefers it.
//
// Every row reaches storage one way. CREATE TABLE installs a table's
// empty relation; every write to it is one maintainer batch
// (maintain.ApplyContext), which checks the rows and installs them with
// every tracked view's share of the change; and a stored view is a
// tracked view (TrackViewContext), so its rows always equal its
// definition over the current tables.
//
// Every operation that may block takes a context.Context first and
// exists once: writes (InsertContext, DeleteContext, UpdateContext,
// ExecContext), view upkeep (TrackViewContext), reads (QueryContext,
// QueryBestContext, ExecRewritingContext), planning (RewritingsContext,
// PrepareContext, Explain, and AdviseContext) and prepared
// execution (ExecPreparedOnContext, ExecPreparedColumns, QueryOnContext).
// Load is the bulk-load path and runs unbounded.
package aggview

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"aggview/internal/advisor"
	"aggview/internal/budget"
	"aggview/internal/core"
	"aggview/internal/cost"
	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/keys"
	"aggview/internal/maintain"
	"aggview/internal/obs"
	"aggview/internal/schema"
	"aggview/internal/sqlparser"
	"aggview/internal/unnest"
	"aggview/internal/value"
)

// Re-exported leaf types, so example programs and downstream users need
// only this package.
type (
	// Value is a scalar database value.
	Value = value.Value
	// Result is a relation: attribute names plus a multiset of tuples.
	Result = engine.Relation
	// Rewriting is one view-based rewriting of a query.
	Rewriting = core.Rewriting
	// Options tunes the rewriter.
	Options = core.Options
)

// Int builds an integer value.
func Int(i int64) Value { return value.Int(i) }

// Float builds a floating-point value.
func Float(f float64) Value { return value.Float(f) }

// Str builds a string value.
func Str(s string) Value { return value.Str(s) }

// Bool builds a boolean value.
func Bool(b bool) Value { return value.Bool(b) }

// System is a self-contained database with materialized-view rewriting.
type System struct {
	Catalog *schema.Catalog
	Views   *ir.Registry
	DB      *engine.DB
	Opts    Options
	// Metrics, when non-nil, collects engine kernel counters, stage
	// timers and view-cache hit/miss counts from every evaluator the
	// system builds. It defaults to nil: the instrumentation is a no-op
	// until a caller opts in. The rewrite search reports to the request
	// span on each operation's context (obs.WithSpan).
	Metrics *obs.Metrics
	// Store, when non-nil, replaces DB as the storage backend behind
	// every evaluator's base-table scans. The fault harness installs
	// engine.NewFaultStorage here to exercise I/O-error paths; normal
	// operation leaves it nil.
	Store engine.Storage

	maint *maintain.Maintainer
}

// New returns an empty system.
func New() *System {
	s := &System{
		Catalog: schema.NewCatalog(),
		Views:   ir.NewRegistry(),
		DB:      engine.NewDB(),
	}
	s.maint = maintain.New(s.DB, s.Views)
	return s
}

// source resolves names against base tables first, then views.
func (s *System) source() ir.SchemaSource {
	return ir.MultiSource{s.Catalog, s.Views}
}

// evaluator builds an engine evaluator over the given registry whose
// base-table scans read store (nil: the live database), carrying the
// system's Workers knob (Opts.Workers: 0 = GOMAXPROCS, 1 = serial) and
// its metrics.
func (s *System) evaluator(reg *ir.Registry, store engine.Storage) *engine.Evaluator {
	ev := engine.NewEvaluator(s.DB, reg)
	ev.Store = store
	ev.Workers = s.Opts.Workers
	ev.Metrics = s.Metrics
	return ev
}

// opCtx prepares a per-operation context from the system's resource
// knobs: Opts.Deadline (when set) becomes a timeout, and
// Opts.MaxRows/MaxCandidates attach a fresh budget meter unless the
// caller already supplied one via budget.WithMeter (a caller-supplied
// meter wins, so one pool can span several operations). Every read, plan
// and advice routes through opCtx. Writes (InsertContext, DeleteContext,
// UpdateContext, ExecContext) and TrackViewContext do not: they are
// bounded by the caller's ctx alone.
// The returned cancel releases the deadline timer.
func (s *System) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if s.Opts.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.Opts.Deadline)
	}
	if budget.MeterFrom(ctx) == nil && (s.Opts.MaxRows > 0 || s.Opts.MaxCandidates > 0 || s.Opts.MaxMemBytes > 0) {
		ctx = budget.WithMeter(ctx, budget.NewMeter(budget.Limits{
			MaxRows:       s.Opts.MaxRows,
			MaxCandidates: s.Opts.MaxCandidates,
			MaxMemBytes:   s.Opts.MaxMemBytes,
		}))
	}
	return ctx, cancel
}

// noteFallback records a graceful degradation of operation op: the
// request span's facade.fallback event is its provenance, so a
// budget-shaped answer is never mistaken for the result of a completed
// rewrite search, and the metrics count it. Whether the budget cut the
// search is deterministic for a fixed call sequence, so the event is
// span-safe.
func (s *System) noteFallback(ctx context.Context, op string) {
	obs.SpanFrom(ctx).Event("facade.fallback", op)
	s.Metrics.Volatile("facade.fallback.budget").Inc()
}

// Rewriter returns the configured rewriter.
func (s *System) Rewriter() *core.Rewriter {
	return &core.Rewriter{
		Views: s.Views,
		Meta:  keys.CatalogMeta{Catalog: s.Catalog},
		Opts:  s.Opts,
		Kinds: s.DB,
	}
}

// Load parses a script and executes its statements in order
// (ExecContext): CREATE TABLE and CREATE VIEW declarations, and INSERT,
// DELETE and UPDATE against the tables declared so far. SELECT
// statements in the script are rejected — run them with QueryContext.
// Load runs unbounded.
func (s *System) Load(script string) error {
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		//aggvet:ctxflow Load is the bulk-load path; a script inherits no caller deadline by design.
		if _, err := s.ExecContext(context.Background(), st); err != nil {
			return err
		}
	}
	return nil
}

// MustLoad is Load, panicking on error (for examples and tests).
func (s *System) MustLoad(script string) {
	if err := s.Load(script); err != nil {
		panic(err)
	}
}

// DefineView registers a view definition. The view is not stored until
// TrackViewContext is called; until then queries over it evaluate its
// definition on the fly.
func (s *System) DefineView(name, sql string) error {
	return s.Load("CREATE VIEW " + name + " AS " + sql)
}

// MustDefineView is DefineView, panicking on error.
func (s *System) MustDefineView(name, sql string) {
	if err := s.DefineView(name, sql); err != nil {
		panic(err)
	}
}

// InsertContext appends tuples to a base table as one maintainer batch,
// which checks them (arity, then the kind rule). Cancellation and
// deadline expiry abort the maintenance evaluations it triggers with a
// typed error before any materialization or base table changes.
func (s *System) InsertContext(ctx context.Context, table string, rows ...[]Value) error {
	t, ok := s.Catalog.Table(table)
	if !ok {
		return fmt.Errorf("aggview: unknown table %q", table)
	}
	return s.maintainer().InsertContext(ctx, t.Name, rows...)
}

// maintainer returns the view maintainer — the one way a write reaches
// storage, whether or not a view is tracked — with its instrumentation
// knobs, and the database's store counters, in sync with the system's.
func (s *System) maintainer() *maintain.Maintainer {
	s.DB.SetMetrics(s.Metrics)
	s.maint.Metrics = s.Metrics
	s.maint.Workers = s.Opts.Workers
	return s.maint
}

// DeleteContext removes the rows of a base table matching an optional
// WHERE condition (given without the WHERE keyword; "" deletes every row)
// and reports how many rows were removed. Tracked views absorb the
// deletion incrementally via counting maintenance. Cancellation and
// deadline expiry abort the maintenance evaluations with a typed error
// before any materialization or base table changes.
func (s *System) DeleteContext(ctx context.Context, table, where string) (int, error) {
	return execChange[*sqlparser.Delete](ctx, s, "DELETE FROM "+table, where)
}

// UpdateContext rewrites the rows of a base table matching an optional
// WHERE condition. set is the SET clause body, e.g. "Charge = Charge + 1";
// expressions see the row's old values. It reports how many rows
// changed, and is bounded like DeleteContext.
func (s *System) UpdateContext(ctx context.Context, table, set, where string) (int, error) {
	return execChange[*sqlparser.Update](ctx, s, "UPDATE "+table+" SET "+set, where)
}

// execChange parses the one statement of kind S that head and an optional
// condition spell, and executes it.
func execChange[S sqlparser.Statement](ctx context.Context, s *System, head, where string) (int, error) {
	if where != "" {
		head += " WHERE " + where
	}
	stmts, err := sqlparser.ParseScript(head)
	if err != nil {
		return 0, err
	}
	if len(stmts) == 1 {
		if st, ok := stmts[0].(S); ok {
			return s.ExecContext(ctx, st)
		}
	}
	return 0, fmt.Errorf("aggview: malformed statement %q", head)
}

// ExecContext executes one parsed statement other than a SELECT: a CREATE
// TABLE declares a table and installs its empty relation, a CREATE VIEW
// declares, an INSERT, DELETE or UPDATE mutates, and the number of rows
// affected is reported (0 for a declaration). Script loaders (Load,
// cmd/aggserve, cmd/aggview) hand each statement of a parsed script
// here, so a replayed script takes exactly the production path and is
// parsed once.
func (s *System) ExecContext(ctx context.Context, st sqlparser.Statement) (int, error) {
	switch x := st.(type) {
	case *sqlparser.CreateTable:
		if err := s.claim(x.Name); err != nil {
			return 0, err
		}
		t := &schema.Table{Name: x.Name, Columns: x.Columns, Keys: x.Keys}
		for _, fd := range x.FDs {
			t.FDs = append(t.FDs, schema.FD{From: fd[0], To: fd[1]})
		}
		if err := s.Catalog.AddTable(t); err != nil {
			return 0, err
		}
		s.DB.Put(t.Name, engine.NewRelation(t.Columns...))
		positions := func(cols []string) []int {
			out := make([]int, len(cols))
			for i, c := range cols {
				out[i] = t.ColumnIndex(c) // AddTable checked that each exists
			}
			return out
		}
		for _, k := range t.Keys {
			if err := s.maint.DeclareKey(t.Name, positions(k), nil); err != nil {
				return 0, err
			}
		}
		for _, fd := range t.FDs {
			if err := s.maint.DeclareKey(t.Name, positions(fd.From), positions(fd.To)); err != nil {
				return 0, err
			}
		}
		return 0, nil
	case *sqlparser.CreateView:
		return 0, s.createView(x)
	case *sqlparser.Insert:
		if err := s.InsertContext(ctx, x.Table, x.Rows...); err != nil {
			return 0, err
		}
		return len(x.Rows), nil
	case *sqlparser.Delete:
		return s.applyChange(ctx, x.Table, x.Where, nil)
	case *sqlparser.Update:
		return s.applyChange(ctx, x.Table, x.Where, x.Set)
	default:
		return 0, fmt.Errorf("aggview: ExecContext supports CREATE TABLE, CREATE VIEW, INSERT, DELETE and UPDATE, not %T", st)
	}
}

// NameTakenError refuses a CREATE TABLE, a CREATE VIEW or an adopted
// view whose name a table or view holds in any letter case: one name
// means one relation.
type NameTakenError struct {
	Name  string // the name asked for
	Taken string // the table or view holding it, as declared
}

func (e *NameTakenError) Error() string {
	return fmt.Sprintf("aggview: cannot declare %s: the table or view %s holds the name", e.Name, e.Taken)
}

// claim returns a *NameTakenError when a table or view holds name.
func (s *System) claim(name string) error {
	if taken, _, ok := s.source().Resolve(name); ok {
		return &NameTakenError{Name: name, Taken: taken}
	}
	return nil
}

// addView registers a view definition whose name no table or view holds.
func (s *System) addView(v *ir.ViewDef) error {
	if err := s.claim(v.Name); err != nil {
		return err
	}
	if err := s.Views.Add(v); err != nil {
		return err
	}
	core.IndexView(v)
	return nil
}

// createView registers a view definition, under the statement's column
// list when it has one (which, like CREATE TABLE's, may not name a
// column twice in any letter case: ir.Registry.Add).
func (s *System) createView(x *sqlparser.CreateView) error {
	q, err := ir.Build(x.Query, s.source())
	if err != nil {
		return fmt.Errorf("view %s: %w", x.Name, err)
	}
	v, err := ir.NewViewDef(x.Name, q)
	if err != nil {
		return err
	}
	if len(x.Columns) > 0 {
		if len(x.Columns) != len(v.OutCols) {
			return fmt.Errorf("view %s: %d column names for %d outputs", x.Name, len(x.Columns), len(v.OutCols))
		}
		v.OutCols = append([]string{}, x.Columns...)
	}
	return s.addView(v)
}

// applyChange is the one pipeline of a DELETE (no assignments) or an
// UPDATE: match the rows and compute their replacements (changedRows),
// then hand the positional delta to the maintainer, which installs it
// with every tracked view's share of it — tracked views see an UPDATE as
// a paired delete+insert, which counting maintenance applies atomically.
// It reports how many rows changed.
func (s *System) applyChange(ctx context.Context, table string, where sqlparser.Expr, set []sqlparser.Assignment) (int, error) {
	t, ok := s.Catalog.Table(table)
	if !ok {
		return 0, fmt.Errorf("aggview: unknown table %q", table)
	}
	pos, olds, news, err := s.changedRows(ctx, t, where, set)
	if err != nil || len(pos) == 0 {
		return 0, err
	}
	if err := s.maintainer().ApplyContext(ctx, maintain.Mutation{Table: t.Name, Deletes: olds, Inserts: news, At: pos}); err != nil {
		return 0, err
	}
	return len(pos), nil
}

// changedRows finds the stored rows a DELETE or UPDATE changes: their
// positions (ascending), the rows, and for an UPDATE their replacements.
// The statement's expressions are lowered once against the table's
// columns (ir.BuildRowChange — a column the table lacks fails here,
// whatever the data) and evaluated by the engine over the stored vectors
// (Evaluator.ChangeContext, which documents which rows each conjunct
// sees: an expression that would fail only on rows an earlier conjunct
// rejected, a division by zero say, does not fail the statement).
func (s *System) changedRows(ctx context.Context, t *schema.Table, where sqlparser.Expr, set []sqlparser.Assignment) (pos []int32, olds, news [][]Value, err error) {
	rc, err := ir.BuildRowChange(t.Name, t.Columns, where, set)
	if err != nil {
		return nil, nil, nil, err
	}
	tab, ok, _ := s.DB.Scan(t.Name)
	if !ok || tab.NumRows() == 0 {
		return nil, nil, nil, nil
	}
	return s.evaluator(s.Views, s.Store).ChangeContext(ctx, tab, rc)
}

// TrackViewContext materializes a view and keeps it consistent under
// future writes: SUM/COUNT/MIN/MAX views merge per-group deltas, other
// shapes recompute. It reports whether maintenance is incremental.
// Cancellation and deadline expiry abort the initial materialization
// with a typed error.
func (s *System) TrackViewContext(ctx context.Context, name string) (incremental bool, err error) {
	return s.maintainer().TrackContext(ctx, name)
}

// ViewMode says how one tracked view is kept fresh: Mode is
// "incremental" or "recompute", and Reason names the maintain.Fallback
// behind a recompute.
type ViewMode struct{ Name, Mode, Reason string }

// ViewModes reports every tracked view's maintenance mode, in name
// order — the answer to "is this view incremental or recomputing, and
// why" that `maintain.fallback.full` alone does not give.
func (s *System) ViewModes() []ViewMode {
	var out []ViewMode
	for _, name := range s.maint.Tracked() {
		mode, reason := s.maint.Mode(name)
		out = append(out, ViewMode{Name: name, Mode: mode, Reason: reason})
	}
	return out
}

// Parse compiles a SELECT statement against the catalog and views.
// Derived tables (FROM subqueries) are supported: they are hoisted into
// anonymous view definitions handled transparently by QueryContext,
// PrepareContext and RewritingsContext.
func (s *System) Parse(sql string) (*ir.Query, error) {
	st, err := s.statement(sql, false)
	if err != nil {
		return nil, err
	}
	return st.parsed, nil
}

// layered returns the registry with extra views layered over it: the
// anonymous views a query's FROM subqueries were hoisted into, or the
// auxiliary views a rewriting still reads.
func (s *System) layered(extra []*ir.ViewDef) (*ir.Registry, error) {
	if len(extra) == 0 {
		return s.Views, nil
	}
	reg := ir.NewRegistry()
	for _, v := range append(s.Views.All(), extra...) {
		if err := reg.Add(v); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// QueryContext parses and executes a SELECT directly (no rewriting).
// Cancellation, deadline expiry and an exhausted row budget abort the
// evaluation at row-batch
// granularity with a typed *budget.Canceled or *budget.Exceeded and no
// partial result.
func (s *System) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return s.QueryOnContext(ctx, s.Store, sql)
}

// RewritingsContext parses the query and enumerates all rewritings that
// use registered views (Theorems 3.1, 3.2 and 4.1). References to
// unmaterialized logical views are first flattened into base tables
// (the multi-block transformation of the paper's conclusion), so a
// query over a logical view can be routed to a different materialized
// one. Cancellation, deadline expiry and an exhausted candidate budget
// abort the search with a typed error and no partial enumeration. There
// is no fallback here — enumerating rewritings is the operation itself;
// PrepareContext and QueryBestContext are the entry points that degrade
// gracefully.
func (s *System) RewritingsContext(ctx context.Context, sql string) ([]*Rewriting, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	st, err := s.statement(sql, true)
	if err != nil {
		return nil, err
	}
	return s.search(ctx, st)
}

// search runs the rewrite search over a statement and appends to each
// rewriting's auxiliary views the anonymous subquery definitions it
// still reads, so execution can resolve them.
func (s *System) search(ctx context.Context, st *Statement) ([]*Rewriting, error) {
	rws, err := s.Rewriter().SearchContext(ctx, st.flat, st.Key)
	if err != nil {
		return nil, err
	}
	for _, r := range rws {
		for _, v := range st.anon {
			for _, t := range r.Query.Tables {
				if t.Source == v.Name {
					r.Aux = append(r.Aux, v)
					break
				}
			}
		}
	}
	return rws, nil
}

// estimator builds the cost model over the store's row counts.
func (s *System) estimator() *cost.Estimator {
	return &cost.Estimator{Rows: s.DB.NumRows, Views: s.Views}
}

// planStatement runs the rewrite search over a parsed statement and
// picks the cheapest strategy: the original plan or a view-based
// rewriting. A nil rewriting means direct evaluation won — or the search
// exhausted its candidate budget and degraded gracefully instead of
// failing: the exhaustion is recorded as a fallback of Prepare in the
// request span and the metrics (provenance: the answer is direct
// evaluation because the search was cut, not because no rewriting
// exists). Cancellation and deadline expiry propagate as typed errors.
// A group-preserving pick comes back as the select-project
// it degenerates to (Rewriting.DropFold): only the one rewriting that
// will execute pays for the change, and the search, its keys and its
// closures see the aggregating forms alone.
func (s *System) planStatement(ctx context.Context, st *Statement) (*Rewriting, error) {
	est := s.estimator()
	bestCost := est.Estimate(st.flat)
	var best *Rewriting
	rws, err := s.search(ctx, st)
	if err != nil {
		if budget.IsExceeded(err) {
			s.noteFallback(ctx, "Prepare")
			return nil, nil
		}
		return nil, err
	}
	for _, r := range rws {
		if c := est.Estimate(r.Query); c < bestCost {
			bestCost, best = c, r
		}
	}
	if best != nil {
		best.DropFold()
	}
	return best, nil
}

// Prepared is an extracted, reusable execution plan: the outcome of one
// parse + flatten + rewrite search, detached from the SQL text that
// produced it. Queries whose canonical keys are equal are semantically
// interchangeable (modulo FROM order and WHERE spelling), so one
// Prepared answers them all — the serving layer's plan cache stores
// these so repeated query shapes skip the rewrite search entirely.
// Every facade read runs a Prepared (execPrepared): QueryContext a
// direct one, ExecRewritingContext one around the rewriting it is given.
type Prepared struct {
	// Key is the canonical plan key (core.CanonicalKey of the flattened
	// query). Collision-freedom is guarded by the core suite's
	// adversarial key tests.
	Key string
	// Used names the views the chosen plan ranges over, in application
	// order; empty when direct evaluation won.
	Used []string
	// Deps lists, sorted, the declared name of every stored relation that
	// executing the plan may read: base tables, materialized views, and
	// the transitive sources of every view definition the plan
	// references. A plan cache must evict a Prepared when any of these
	// is invalidated (engine.DB.SetOnInvalidate is the seam).
	Deps []string

	rw     *Rewriting
	direct *ir.Query    // the original parse; executed when rw == nil
	reg    *ir.Registry // registry snapshot resolving views and subqueries
	plan   *engine.Plan // the engine's plan of the query it runs, derived once
}

// prepared packages a plan that runs rw's query, or direct when rw is
// nil, and derives its engine plan.
func prepared(rw *Rewriting, direct *ir.Query, reg *ir.Registry) *Prepared {
	q := direct
	if rw != nil {
		q = rw.Query
	}
	return &Prepared{rw: rw, direct: direct, reg: reg, plan: engine.NewPlan(q)}
}

// Rewritten reports whether the plan ranges over materialized views.
func (p *Prepared) Rewritten() bool { return p.rw != nil }

// Rewriting returns the view-based rewriting the plan executes, or nil
// when direct evaluation won.
func (p *Prepared) Rewriting() *Rewriting { return p.rw }

// Statement is a SELECT compiled against the catalog once: its parse,
// the registry with the anonymous views its FROM subqueries were hoisted
// into layered over it, the flattened form the rewrite search reads, and
// its canonical plan key. A serving path that misses its plan cache keys
// the cache with Key and prepares the same Statement, so the text is
// parsed, flattened and keyed once.
type Statement struct {
	// Key is the canonical plan key (core.CanonicalKey of the flattened
	// query): what Prepared.Key of the statement's plan will be.
	Key string

	parsed *ir.Query     // the parse; executed when direct evaluation wins
	anon   []*ir.ViewDef // the anonymous views hoisted from FROM subqueries
	reg    *ir.Registry  // the registry with anon layered over it
	flat   *ir.Query     // parsed with logical views and subqueries merged in
}

// ParseStatement parses and flattens the query and derives its
// canonical plan key, timed as the facade.parse stage of ctx's request
// span. Parsing is not cancellable; ctx carries only the span.
func (s *System) ParseStatement(ctx context.Context, sql string) (*Statement, error) {
	stage := obs.SpanFrom(ctx).StartStage("facade.parse")
	defer stage.End(0)
	return s.statement(sql, true)
}

// statement is the one parse of a SELECT: it parses, layers the
// anonymous views over the registry and, when plan is set, flattens the
// query (unnest.Flatten: views that are not stored and subqueries are
// merged in where bag semantics allows) and keys it for the search. A
// direct execution needs neither.
func (s *System) statement(sql string, plan bool) (*Statement, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	q, anon, err := ir.BuildMulti(sel, s.source())
	if err != nil {
		return nil, err
	}
	st := &Statement{parsed: q, anon: anon.All()}
	if st.reg, err = s.layered(st.anon); err != nil || !plan {
		return st, err
	}
	stored := func(name string) bool {
		_, ok := s.DB.NumRows(name)
		return ok
	}
	st.flat, _ = unnest.Flatten(q, st.reg, stored)
	st.Key = core.CanonicalKey(st.flat)
	return st, nil
}

// PlanKey returns the query's canonical plan-cache key without running
// the rewrite search: ParseStatement's Key. A caller that goes on to
// prepare the query on a cache miss should hold the Statement instead
// and hand it to PrepareStatement, which then parses nothing again.
func (s *System) PlanKey(sql string) (string, error) {
	st, err := s.statement(sql, true)
	if err != nil {
		return "", err
	}
	return st.Key, nil
}

// PrepareContext extracts an executable plan for the query: it is
// ParseStatement followed by PrepareStatement.
func (s *System) PrepareContext(ctx context.Context, sql string) (*Prepared, error) {
	st, err := s.ParseStatement(ctx, sql)
	if err != nil {
		return nil, err
	}
	return s.PrepareStatement(ctx, st)
}

// PrepareStatement runs the rewrite search over a parsed statement once,
// timed as the facade.search stage of ctx's request span, picks the
// cheapest strategy, and packages the result with the statement's key
// and the transitive set of relations it reads. It degrades gracefully
// when the search exhausts its candidate budget (planStatement):
// the Prepared then executes directly, tagged as a fallback in the
// request span. st must come from this System's ParseStatement under
// the catalog it is prepared against.
func (s *System) PrepareStatement(ctx context.Context, st *Statement) (*Prepared, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	stage := obs.SpanFrom(ctx).StartStage("facade.search")
	rw, err := s.planStatement(ctx, st)
	stage.End(0)
	if err != nil {
		return nil, err
	}
	var p *Prepared
	if rw == nil {
		p = prepared(nil, st.parsed, st.reg)
	} else {
		reg, err := s.layered(rw.Aux)
		if err != nil {
			return nil, err
		}
		p = prepared(rw, nil, reg)
		p.Used = append([]string{}, rw.Used...)
	}
	p.Key, p.Deps = st.Key, s.planDeps(p)
	return p, nil
}

// planDeps walks the plan's FROM sources transitively through the view
// definitions its registry snapshot resolves, collecting every relation
// name execution may touch. The walk stops at a tracked view: its
// materialization absorbs base-table deltas inside the same atomic
// batch, so a plan that only scans it stays answer-correct across
// mutations of the view's sources and must not be evicted for them. It
// walks into a view that is declared but not stored, whose definition
// execution evaluates.
func (s *System) planDeps(p *Prepared) []string {
	seen := map[string]bool{}
	var out []string
	var visit func(q *ir.Query)
	visit = func(q *ir.Query) {
		for _, t := range q.Tables {
			if seen[t.Source] {
				continue
			}
			seen[t.Source] = true
			out = append(out, t.Source)
			if s.maint.Tracks(t.Source) {
				continue
			}
			if v, ok := p.reg.Get(t.Source); ok {
				visit(v.Def)
			}
		}
	}
	if p.rw != nil {
		visit(p.rw.Query)
		for _, v := range p.rw.Aux {
			visit(v.Def)
		}
	} else {
		visit(p.direct)
	}
	sort.Strings(out)
	return out
}

// ExecPreparedOnContext executes a prepared plan with base-table scans
// bound to an explicit storage backend — typically an engine.Snapshot —
// instead of the live database. A server can pin a snapshot under a
// brief lock and then run the plan lock-free: concurrent mutation
// batches install new relation versions without disturbing the pinned
// ones, so the plan reads one consistent materialization state
// end to end. Pass s.Store to read whatever storage currently holds.
//
// The plan's registry snapshot resolves view definitions, so a Prepared
// stays answer-correct across writes as long as the materialized views
// it ranges over are kept consistent (TrackViewContext) — the invariant a
// plan cache preserves by evicting on invalidation.
func (s *System) ExecPreparedOnContext(ctx context.Context, p *Prepared, store engine.Storage) (*Result, error) {
	ct, ev, err := s.execPrepared(ctx, p, store)
	if err != nil {
		return nil, err
	}
	return ev.Box(ct), nil
}

// ExecPreparedColumns is ExecPreparedOnContext without its last step: the
// result comes back as the typed columns the engine produced, no row of
// it boxed. It is the entry point of a caller that encodes or scans the
// result once — the /query handler.
func (s *System) ExecPreparedColumns(ctx context.Context, p *Prepared, store engine.Storage) (*engine.ColTable, error) {
	ct, _, err := s.execPrepared(ctx, p, store)
	return ct, err
}

// execPrepared is the one way a facade read reaches the engine: it runs
// a prepared plan through the evaluator under the usual context/budget
// regime, as the request span's facade.execute stage, which records the
// rows of the result. It returns the evaluator too, which boxes the
// result for a caller that reads rows.
func (s *System) execPrepared(ctx context.Context, p *Prepared, store engine.Storage) (*engine.ColTable, *engine.Evaluator, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	stage := obs.SpanFrom(ctx).StartStage("facade.execute")
	ev := s.evaluator(p.reg, store)
	ct, err := ev.ExecColumns(ctx, p.plan)
	if err != nil {
		stage.End(0)
		return nil, nil, err
	}
	stage.End(int64(ct.NumRows()))
	return ct, ev, nil
}

// QueryOnContext parses and executes a SELECT directly (no rewriting)
// with base-table scans bound to an explicit storage backend, pairing
// with ExecPreparedOnContext so a checker can run the rewritten and the
// direct form of one query against the same pinned snapshot.
func (s *System) QueryOnContext(ctx context.Context, store engine.Storage, sql string) (*Result, error) {
	st, err := s.statement(sql, false)
	if err != nil {
		return nil, err
	}
	return s.ExecPreparedOnContext(ctx, prepared(nil, st.parsed, st.reg), store)
}

// QueryBestContext executes the query through its cheapest plan: it is
// PrepareContext followed by ExecPreparedOnContext against s.Store. The
// second result is the rewriting used, or nil when the query ran
// directly. Rewritings that reference unmaterialized views still work:
// their definitions are evaluated on the fly. The rewrite search and
// the subsequent execution draw from one budget pool (a meter on the
// context, or one spun up from Opts.MaxRows/MaxCandidates). A search
// cut by its candidate budget falls back to direct evaluation — tagged
// as a fallback in the request span — while a row budget exhausted during
// execution is terminal: there is no cheaper strategy left to try.
func (s *System) QueryBestContext(ctx context.Context, sql string) (*Result, *Rewriting, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	p, err := s.PrepareContext(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.ExecPreparedOnContext(ctx, p, s.Store)
	if err != nil {
		return nil, nil, err
	}
	return res, p.rw, nil
}

// ExecRewritingContext executes a specific rewriting against the
// database, with its auxiliary views in scope, honoring cancellation,
// deadlines and row budgets like QueryContext.
func (s *System) ExecRewritingContext(ctx context.Context, r *Rewriting) (*Result, error) {
	reg, err := s.layered(r.Aux)
	if err != nil {
		return nil, err
	}
	return s.ExecPreparedOnContext(ctx, prepared(r, nil, reg), s.Store)
}

// Recommendation is one view the advisor suggests materializing.
type Recommendation = advisor.Recommendation

// AdviseContext recommends views to materialize for a workload of
// queries (with optional weights; nil weights mean uniform). budgetRows
// caps the estimated total size of the selected views; 0 means
// unlimited. The rewrite searches that drive the advisor's benefit model
// honor ctx's cancellation, deadline and budget, and the Opts knobs.
func (s *System) AdviseContext(ctx context.Context, queries []string, weights []float64, budgetRows float64) ([]Recommendation, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	var w advisor.Workload
	for i, sql := range queries {
		st, err := s.statement(sql, true)
		if err != nil {
			return nil, fmt.Errorf("workload query %d: %w", i+1, err)
		}
		wq := advisor.WeightedQuery{Query: st.flat}
		if weights != nil && i < len(weights) {
			wq.Weight = weights[i]
		}
		w = append(w, wq)
	}
	a := &advisor.Advisor{
		Meta: keys.CatalogMeta{Catalog: s.Catalog},
		Rows: s.DB.NumRows,
		Opts: s.Opts,
	}
	return a.RecommendContext(ctx, w, budgetRows)
}

// AdoptRecommendations registers and tracks the advised views
// (TrackViewContext), making them available to the rewriter and keeping
// them consistent under later writes.
func (s *System) AdoptRecommendations(ctx context.Context, recs []Recommendation) ([]string, error) {
	var names []string
	for _, r := range recs {
		if err := s.addView(r.View); err != nil {
			return names, err
		}
		if _, err := s.TrackViewContext(ctx, r.View.Name); err != nil {
			return names, err
		}
		names = append(names, r.View.Name)
	}
	return names, nil
}

// ViewUsability explains whether one registered view can answer a
// query and which usability conditions fail when it cannot.
type ViewUsability = core.ViewUsability

// Usability runs the per-view usability analysis for a query, returning
// one entry per registered view in registry order. It is bounded like
// Explain: a canceled or over-budget analysis is an error.
func (s *System) Usability(ctx context.Context, sql string) ([]ViewUsability, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	st, err := s.statement(sql, true)
	if err != nil {
		return nil, err
	}
	return s.Rewriter().ExplainUsability(ctx, st.flat)
}

// Explain renders a human-readable report of the rewritings available
// for a query, with cost estimates. Under a group-preserving rewriting an
// "executes as:" line gives the select-project a plan over it runs
// (Rewriting.DropFold). The search is bounded like RewritingsContext's:
// a canceled or over-budget search is an error.
func (s *System) Explain(ctx context.Context, sql string) (string, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	st, err := s.statement(sql, true)
	if err != nil {
		return "", err
	}
	est := s.estimator()
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", st.flat.SQL())
	fmt.Fprintf(&b, "  estimated cost: %.0f\n", est.Estimate(st.flat))
	rws, err := s.search(ctx, st)
	if err != nil {
		return "", err
	}
	if len(rws) == 0 {
		b.WriteString("no view-based rewritings found\n")
		return b.String(), nil
	}
	for i, r := range rws {
		fmt.Fprintf(&b, "rewriting %d (using %s, cost %.0f%s):\n  %s\n",
			i+1, strings.Join(r.Used, ", "), est.Estimate(r.Query), setOnlyTag(r), r.SQL())
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "    - %s\n", n)
		}
		if r.DropFold() {
			fmt.Fprintf(&b, "  executes as: %s\n", r.Query.SQL())
		}
	}
	return b.String(), nil
}

func setOnlyTag(r *Rewriting) string {
	if r.SetOnly {
		return ", set semantics"
	}
	return ""
}
