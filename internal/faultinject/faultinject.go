// Package faultinject is a deterministic, seed-driven fault injector
// for the execution engine and the rewrite search (DESIGN.md section
// 10).
//
// An Injector is armed on a context and counts observations of one
// instrumented site — row batches in the engine kernels, candidates in
// the rewrite search, view-cache accesses, table scans — and cancels
// the context at the k-th observation. The cancellation then
// propagates through the production machinery exactly as a
// caller-initiated cancel would: the harness tests assert that every
// entry point returns either the correct bag or a clean typed
// budget.Canceled error, never a partial result, a panic, or a leaked
// goroutine.
//
// Observations are counted with an atomic, so a worker pool observing
// concurrently fires exactly once; which worker observes the firing
// count is scheduling-dependent, but the contract under test ("correct
// result or typed error") is schedule-independent. At Workers=1 the
// firing point is fully deterministic.
//
// A failing injector (Failing) fails every table scan from its k-th on
// with a typed *Injected instead, and may ride many contexts (With).
//
// A nil *Injector is a valid no-op, so instrumentation sites observe
// unconditionally.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Site names one instrumented observation point.
type Site string

const (
	// SiteRow is observed by the engine kernels, once per row batch,
	// with the batch size as the observation weight.
	SiteRow Site = "row"
	// SiteCandidate is observed by the rewrite search, once per
	// (view, mapping) candidate analyzed.
	SiteCandidate Site = "candidate"
	// SiteCache is observed by the engine's view cache, once per
	// resolve of a view name.
	SiteCache Site = "cache"
	// SiteStorage is observed by the engine's storage layer, once per
	// Scan of a FROM source name (ObserveScan). It is also the one site
	// of the failing mode (Failing), whose scans return typed *Injected
	// errors instead of canceling the context.
	SiteStorage Site = "storage"
	// SiteMaintain is observed by incremental view maintenance, once
	// per delta evaluation or staged application inside a mutation
	// batch. Firing here cancels mid-batch; the maintenance contract is
	// that the batch then applies either fully or not at all.
	SiteMaintain Site = "maintain"
)

// Sites lists every supported cancellation-injection site.
var Sites = []Site{SiteRow, SiteCandidate, SiteCache, SiteStorage, SiteMaintain}

// Spec is a serializable injection plan: cancel at the k-th observation
// of the site (1-based; weighted sites such as rows count units, not
// batches).
type Spec struct {
	Site Site  `json:"site"`
	K    int64 `json:"k"`
}

// Injector cancels an armed context at the k-th observation of its
// site, or, failing (Failing), fails every table scan from the k-th on.
// A canceling Injector instruments one operation; arm a fresh one per
// run.
type Injector struct {
	site      Site
	fail      bool // fail scans with *Injected instead of canceling
	remaining atomic.Int64
	fired     atomic.Bool
	cancel    context.CancelFunc
}

// New returns an injector that fires at the k-th observation of site
// (k <= 0 fires on the first observation).
func New(site Site, k int64) *Injector {
	if k < 1 {
		k = 1
	}
	in := &Injector{site: site}
	in.remaining.Store(k)
	return in
}

// NewSpec builds the injector described by a Spec.
func NewSpec(s Spec) *Injector { return New(s.Site, s.K) }

// Failing returns an injector in the failing mode: the k-th table scan
// it observes (k <= 1: the first) and every later one return a typed
// *Injected, and it never cancels its context.
func Failing(k int64) *Injector {
	in := New(SiteStorage, k)
	in.fail = true
	return in
}

type injectorKey struct{}

// Arm derives a cancellable context carrying the injector. The returned
// cancel releases the context's resources and must be called when the
// operation finishes (firing also cancels, but Arm's cancel remains the
// owner). Arm must be called exactly once, before any Observe.
func (in *Injector) Arm(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	in.cancel = cancel
	return With(ctx, in), cancel
}

// With returns ctx carrying in, with no cancel of its own: the way one
// failing injector rides many operations, all counting down together.
// A canceling injector is armed (Arm) instead.
func With(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, injectorKey{}, in)
}

// From extracts the armed injector; nil (no-op) when absent.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(injectorKey{}).(*Injector)
	return in
}

// Observe records n observations of site (n <= 0 counts as 1) and
// cancels the armed context once the cumulative count reaches the
// injector's k. Nil-safe and site-filtered, so instrumentation points
// call it unconditionally.
func (in *Injector) Observe(site Site, n int64) {
	if in == nil || in.site != site || in.fail {
		return
	}
	if n < 1 {
		n = 1
	}
	if in.remaining.Add(-n) <= 0 && in.cancel != nil && in.fired.CompareAndSwap(false, true) {
		in.cancel()
	}
}

// ObserveScan records the scan of one FROM source at SiteStorage. A
// canceling injector of that site counts it as Observe does; a failing
// one returns a typed *Injected naming the scan from its k-th
// observation on. Nil-safe, and it allocates only the error it returns.
func (in *Injector) ObserveScan(name string) error {
	if in == nil || !in.fail {
		in.Observe(SiteStorage, 1)
		return nil
	}
	if in.remaining.Add(-1) > 0 {
		return nil
	}
	in.fired.Store(true)
	return &Injected{Site: SiteStorage, Op: "scan " + name}
}

// Fired reports whether the injector has canceled its context or, in
// the failing mode, failed a scan.
func (in *Injector) Fired() bool { return in != nil && in.fired.Load() }

// Injected is the typed error of the failing mode — an I/O-style
// failure surfaced through a return value rather than context
// cancellation. It is not a budget-transient error: production caches
// must still refuse to memoize it, which IsInjected lets them check.
type Injected struct {
	Site Site   // the instrumented site that failed ("storage")
	Op   string // the failed operation, e.g. `scan "calls"`
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault: %s", e.Site, e.Op)
}

// IsInjected reports whether err is (or wraps) an *Injected.
func IsInjected(err error) bool {
	var i *Injected
	return errors.As(err, &i)
}
