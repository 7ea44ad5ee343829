// Package maintain is the ctxflow fixture. It exercises all four rules
// plus the transitive blocking fact and two justified suppressions.
package maintain

import "context"

// Drain blocks directly (channel receive) with no ctx and no Context
// sibling: rule 1.
func Drain(ch chan int) int { // want `exported function Drain`
	return <-ch
}

// drainHelper blocks; unexported, so rule 1 does not apply to it.
func drainHelper(ch chan int) int {
	return <-ch
}

// Collect blocks only transitively, through drainHelper — the
// cross-function fact still reaches it: rule 1.
func Collect(ch chan int) int { // want `exported function Collect`
	return drainHelper(ch)
}

// ExecContext is the one entry point of its operation.
func ExecContext(ctx context.Context, ch chan int) int {
	select {
	case <-ctx.Done():
		return 0
	case v := <-ch:
		return v
	}
}

// Exec is a ctx-less twin of ExecContext: rule 4. It also blocks
// (through ExecContext) without a ctx, rule 1, and mints Background,
// rule 3 — a twin is exempt from nothing.
func Exec(ch chan int) int { // want `exported function Exec \(` `exported function Exec has an exported ExecContext twin`
	return ExecContext(context.Background(), ch) // want `context.Background\(\) in package maintain`
}

type store struct{ m map[int]int }

// Get is the ctx-less twin of a method pair: rule 4 covers method sets.
func (s store) Get(k int) int { // want `exported method Get has an exported GetContext twin`
	return s.m[k]
}

// GetContext is the one entry point of its operation.
func (s store) GetContext(ctx context.Context, k int) int {
	return s.m[k]
}

// Warm is a bulk-load path that runs unbounded by design: suppressed.
func Warm(ch chan int) {
	//aggvet:ctxflow bulk-load path; inherits no caller deadline by design.
	_ = context.Background()
	close(ch)
}

// Bounded blocks but takes a ctx: quiet under rule 1.
func Bounded(ctx context.Context, ch chan int) int {
	return ExecContext(ctx, ch)
}

// mintBackground mints a fresh Background: rule 3.
func mintBackground(ch chan int) int {
	return ExecContext(context.Background(), ch) // want `context.Background\(\) in package maintain`
}

// pipeline stores a ctx in a struct field: rule 2.
type pipeline struct {
	ctx context.Context // want `context.Context stored in struct pipeline`
	out chan int
}

// carrier documents the per-operation exception: suppressed.
type carrier struct {
	//aggvet:ctxflow per-operation carrier resolved once at entry, never stored across calls.
	ctx context.Context
	out chan int
}

// use keeps the carrier and store types referenced.
func use(p *pipeline, c *carrier, s store) (context.Context, context.Context) {
	_ = s
	return p.ctx, c.ctx
}
