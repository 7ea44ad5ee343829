// Package budget carries per-query resource budgets and cancellation
// through the engine and the rewrite search (DESIGN.md section 10).
//
// A Meter holds the remaining row and candidate allowances of one query
// operation; it travels in a context.Context so that nested work — view
// materialization inside an execution, candidate analysis inside the
// BFS — draws from the same pool. Exhaustion and context cancellation
// surface as the two typed errors of this package:
//
//   - *Canceled wraps a context cancellation or deadline expiry,
//     recording the site (kernel or search stage) that observed it.
//   - *Exceeded reports an exhausted resource budget with the resource
//     name and its limit.
//
// Both are "clean" terminal outcomes: a caller receiving one holds no
// partial result, and the worker pools that observed it have drained.
// IsTransient distinguishes them from genuine evaluation errors so
// caches never memoize an aborted computation (see engine.resolve).
//
// A nil *Meter is a valid unlimited meter; every method no-ops, so hot
// paths charge unconditionally.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Limits bounds one query operation. Zero fields mean unlimited.
type Limits struct {
	// MaxRows caps the number of rows the execution kernels process
	// (scan inputs, join outputs, aggregation inputs), including rows
	// spent materializing views the query references.
	MaxRows int64
	// MaxCandidates caps the number of (view, mapping) candidates the
	// rewrite search analyzes.
	MaxCandidates int64
	// MaxMemBytes caps the bytes of columnar data the execution engine
	// holds per operation: table images handed out by Storage.Scan,
	// materialized views, the row-index vectors filters and joins write
	// (4 bytes per row per table; columns are read in place, never
	// copied) and the per-morsel partials of an aggregation (estimated
	// bytes: 8 per numeric cell, 16 per string header, 48 per boxed
	// value).
	MaxMemBytes int64
}

// Canceled reports that a context was canceled or its deadline expired
// while work was in flight. Site names the kernel or search stage that
// observed the cancellation.
type Canceled struct {
	Site string
	Err  error // the context's error (context.Canceled or DeadlineExceeded)
}

func (c *Canceled) Error() string {
	return fmt.Sprintf("budget: canceled at %s: %v", c.Site, c.Err)
}

// Unwrap exposes the context error, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work as expected.
func (c *Canceled) Unwrap() error { return c.Err }

// Exceeded reports an exhausted resource budget.
type Exceeded struct {
	Site     string
	Resource string // "rows", "candidates" or "memory"
	Limit    int64
}

func (e *Exceeded) Error() string {
	return fmt.Sprintf("budget: %s budget exceeded at %s (limit %d)", e.Resource, e.Site, e.Limit)
}

// IsCanceled reports whether err is (or wraps) a *Canceled.
func IsCanceled(err error) bool {
	var c *Canceled
	return errors.As(err, &c)
}

// IsExceeded reports whether err is (or wraps) an *Exceeded.
func IsExceeded(err error) bool {
	var e *Exceeded
	return errors.As(err, &e)
}

// IsTransient reports whether err is one of this package's typed
// abort errors — an outcome of the operation's budget or context, not a
// property of the data. Caches must not memoize transient errors.
func IsTransient(err error) bool { return IsCanceled(err) || IsExceeded(err) }

// Meter tracks consumption against Limits. It is safe for concurrent
// use: the engine's worker pools and the search's analyzers charge it
// from many goroutines. A nil *Meter is a valid unlimited meter.
type Meter struct {
	limits     Limits
	rows       atomic.Int64
	candidates atomic.Int64
	mem        atomic.Int64
}

// NewMeter returns a meter enforcing the given limits.
func NewMeter(l Limits) *Meter { return &Meter{limits: l} }

// AddRows charges n processed rows, returning *Exceeded once the total
// crosses MaxRows. The total charged per kernel invocation is fixed by
// the input size, so whether a query exceeds its budget is independent
// of the worker count even though charges arrive in pool order.
func (m *Meter) AddRows(site string, n int64) error {
	if m == nil || m.limits.MaxRows <= 0 {
		return nil
	}
	if m.rows.Add(n) > m.limits.MaxRows {
		return &Exceeded{Site: site, Resource: "rows", Limit: m.limits.MaxRows}
	}
	return nil
}

// AddCandidates charges n analyzed rewrite candidates, returning
// *Exceeded once the total crosses MaxCandidates.
func (m *Meter) AddCandidates(site string, n int64) error {
	if m == nil || m.limits.MaxCandidates <= 0 {
		return nil
	}
	if m.candidates.Add(n) > m.limits.MaxCandidates {
		return &Exceeded{Site: site, Resource: "candidates", Limit: m.limits.MaxCandidates}
	}
	return nil
}

// AddMem charges n bytes of columnar allocation, returning *Exceeded
// once the total crosses MaxMemBytes. The engine's allocation sizes are
// fixed by the data, not by the worker schedule, so whether an operation
// exceeds its memory budget is independent of the worker count.
func (m *Meter) AddMem(site string, n int64) error {
	if m == nil || m.limits.MaxMemBytes <= 0 {
		return nil
	}
	if m.mem.Add(n) > m.limits.MaxMemBytes {
		return &Exceeded{Site: site, Resource: "memory", Limit: m.limits.MaxMemBytes}
	}
	return nil
}

// Rows returns the rows charged so far; 0 on a nil meter.
func (m *Meter) Rows() int64 {
	if m == nil {
		return 0
	}
	return m.rows.Load()
}

// Candidates returns the candidates charged so far; 0 on a nil meter.
func (m *Meter) Candidates() int64 {
	if m == nil {
		return 0
	}
	return m.candidates.Load()
}

// Mem returns the bytes charged so far; 0 on a nil meter.
func (m *Meter) Mem() int64 {
	if m == nil {
		return 0
	}
	return m.mem.Load()
}

type meterKey struct{}

// WithMeter attaches a meter to the context; nested executions and
// searches then draw from the same budget pool.
func WithMeter(ctx context.Context, m *Meter) context.Context {
	return context.WithValue(ctx, meterKey{}, m)
}

// MeterFrom extracts the context's meter; nil (unlimited) when absent.
func MeterFrom(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
}

// Check polls the context, converting a cancellation or expired
// deadline into a typed *Canceled naming the observing site.
func Check(ctx context.Context, site string) error {
	if err := ctx.Err(); err != nil {
		return &Canceled{Site: site, Err: err}
	}
	return nil
}
