package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"aggview/internal/budget"
	"aggview/internal/obs"
)

// Shed reasons. A shed is a typed refusal at admission time — the
// request never reached the engine, so retrying is always safe.
const (
	// ShedRate: the tenant's token bucket cannot supply a token within
	// its MaxWait bound.
	ShedRate = "rate"
	// ShedQueueFull: the tenant's (or the global) wait queue is at
	// capacity.
	ShedQueueFull = "queue_full"
	// ShedConcurrency: a global execution slot did not free up within
	// the wait bound.
	ShedConcurrency = "concurrency"
)

// ShedError is the typed admission refusal (HTTP 429). RetryAfter is
// the server's estimate of when retrying could succeed.
type ShedError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: shed tenant=%q reason=%s retry_after=%s", e.Tenant, e.Reason, e.RetryAfter)
}

// IsShed reports whether err is (or wraps) a *ShedError.
func IsShed(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if _, ok := err.(*ShedError); ok {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TenantConfig is one tenant's admission quota and per-request resource
// envelope. The quota side is a token bucket with a bounded wait queue;
// the envelope side maps onto the engine's existing budget machinery
// (Opts.Deadline / MaxRows / MaxCandidates / MaxMemBytes, PR 5).
type TenantConfig struct {
	// Rate is the sustained admission rate in requests per second;
	// <= 0 means unlimited (no bucket, no queue).
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity; defaults to max(1, floor(Rate)).
	Burst int `json:"burst"`
	// MaxQueue bounds how many requests may wait for a token; 0 means
	// no queueing — an empty bucket sheds immediately.
	MaxQueue int `json:"max_queue"`
	// MaxWait bounds how long any single request may wait for a token;
	// defaults to 500ms. A request whose token cannot arrive within
	// MaxWait is shed immediately rather than parked — the bound is
	// checked before waiting, so saturation degrades to fast typed
	// errors, never to a convoy of hung connections.
	MaxWait time.Duration `json:"max_wait"`

	// Deadline bounds each admitted request's engine time; 0: none.
	Deadline time.Duration `json:"deadline"`
	// MaxRows / MaxCandidates / MaxMemBytes are per-request engine
	// budgets (0: unlimited), enforced by a budget.Meter attached to
	// the request context.
	MaxRows       int64 `json:"max_rows"`
	MaxCandidates int64 `json:"max_candidates"`
	MaxMemBytes   int64 `json:"max_mem_bytes"`

	// SlowQueryNs, when > 0, is the tenant's slow-query threshold: a
	// query whose post-admission service time reaches it has a
	// replayable repro captured in the server's slow-query log
	// (Config.SlowLogSize governs retention).
	SlowQueryNs int64 `json:"slow_query_ns"`
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = int(math.Max(1, math.Floor(c.Rate)))
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 500 * time.Millisecond
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	return c
}

// bucket is one tenant's token bucket. Tokens refill continuously at
// cfg.Rate up to cfg.Burst; a waiter reserves its token up front
// (tokens may go negative) and sleeps until the refill covers it, so
// waits are computed, bounded, and FIFO-fair per tenant up to timer
// granularity.
type bucket struct {
	name string
	cfg  TenantConfig

	mu     sync.Mutex
	tokens float64
	last   time.Time
	queued int
}

func (b *bucket) acquire(ctx context.Context, now func() time.Time, m *obs.Metrics) error {
	b.mu.Lock()
	t := now()
	b.tokens = math.Min(float64(b.cfg.Burst), b.tokens+t.Sub(b.last).Seconds()*b.cfg.Rate)
	b.last = t
	if b.tokens >= 1 {
		b.tokens--
		b.mu.Unlock()
		return nil
	}
	wait := time.Duration((1 - b.tokens) / b.cfg.Rate * float64(time.Second))
	if wait > b.cfg.MaxWait {
		b.mu.Unlock()
		return &ShedError{Tenant: b.name, Reason: ShedRate, RetryAfter: wait}
	}
	if b.queued >= b.cfg.MaxQueue {
		b.mu.Unlock()
		return &ShedError{Tenant: b.name, Reason: ShedQueueFull, RetryAfter: wait}
	}
	b.queued++
	b.tokens-- // reserve the token we will have when the wait elapses
	depth := b.queued
	b.mu.Unlock()
	m.Volatile("server.admission.queue_depth").Max(int64(depth))
	m.Latency("server.admission.wait").Observe(int64(wait))

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		b.mu.Lock()
		b.queued--
		b.mu.Unlock()
		return nil
	case <-ctx.Done():
		b.mu.Lock()
		b.queued--
		b.tokens = math.Min(float64(b.cfg.Burst), b.tokens+1) // return the reservation
		b.mu.Unlock()
		return &budget.Canceled{Site: "server.admission", Err: ctx.Err()}
	}
}

// Admission is the server's two-stage admission controller: a
// per-tenant token bucket (so one tenant's burst cannot starve the
// rest) followed by a global concurrency gate (so admitted work cannot
// oversubscribe the engine). Both stages shed with typed errors under
// a bounded wait; neither can hang a request, and neither ever aborts
// work that was already admitted.
type Admission struct {
	def     TenantConfig
	tenants map[string]TenantConfig

	mu      sync.Mutex
	buckets map[string]*bucket

	sem      chan struct{} // global slots; nil: unlimited
	queued   atomic.Int64
	maxQueue int64
	maxWait  time.Duration
	metrics  *obs.Metrics
	now      func() time.Time
}

// NewAdmission builds the controller. maxConcurrent <= 0 disables the
// global gate; maxQueue bounds its waiters; maxWait bounds their wait
// (default 500ms). Tenants not present in tenants get def.
func NewAdmission(def TenantConfig, tenants map[string]TenantConfig, maxConcurrent, maxQueue int, maxWait time.Duration, metrics *obs.Metrics) *Admission {
	a := &Admission{
		def:      def.withDefaults(),
		tenants:  map[string]TenantConfig{},
		buckets:  map[string]*bucket{},
		maxQueue: int64(maxQueue),
		maxWait:  maxWait,
		metrics:  metrics,
		now:      time.Now,
	}
	for name, cfg := range tenants {
		a.tenants[name] = cfg.withDefaults()
	}
	if a.maxWait <= 0 {
		a.maxWait = 500 * time.Millisecond
	}
	if maxConcurrent > 0 {
		a.sem = make(chan struct{}, maxConcurrent)
	}
	return a
}

// Config returns the effective configuration for a tenant.
func (a *Admission) Config(tenant string) TenantConfig {
	if cfg, ok := a.tenants[tenant]; ok {
		return cfg
	}
	return a.def
}

func (a *Admission) bucketFor(tenant string, cfg TenantConfig) *bucket {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[tenant]
	if !ok {
		b = &bucket{name: tenant, cfg: cfg, tokens: float64(cfg.Burst), last: a.now()}
		a.buckets[tenant] = b
	}
	return b
}

// Acquire admits one request for the tenant, or sheds it with a typed
// *ShedError within the configured wait bounds. On success the caller
// MUST call release when the request finishes — the global slot is
// held for the request's whole execution, which is what makes an
// admitted query impossible to drop: saturation only ever refuses new
// work. A context cancellation while waiting returns a typed
// *budget.Canceled.
func (a *Admission) Acquire(ctx context.Context, tenant string) (cfg TenantConfig, release func(), err error) {
	cfg = a.Config(tenant)
	if cfg.Rate > 0 {
		if err := a.bucketFor(tenant, cfg).acquire(ctx, a.now, a.metrics); err != nil {
			if IsShed(err) {
				a.metrics.Volatile("server.shed." + err.(*ShedError).Reason).Inc()
			}
			return cfg, nil, err
		}
	}
	release, err = a.acquireGlobal(ctx)
	if err != nil {
		if se, ok := err.(*ShedError); ok {
			se.Tenant = tenant
			a.metrics.Volatile("server.shed." + se.Reason).Inc()
		}
		return cfg, nil, err
	}
	return cfg, release, nil
}

// acquireGlobal takes one global execution slot, waiting at most
// maxWait in a queue bounded by maxQueue.
func (a *Admission) acquireGlobal(ctx context.Context) (func(), error) {
	if a.sem == nil {
		return func() {}, nil
	}
	select {
	case a.sem <- struct{}{}:
		return a.releaseFn(), nil
	default:
	}
	q := a.queued.Add(1)
	if a.maxQueue > 0 && q > a.maxQueue {
		a.queued.Add(-1)
		return nil, &ShedError{Reason: ShedQueueFull, RetryAfter: a.maxWait}
	}
	a.metrics.Volatile("server.admission.queue_depth").Max(q)
	defer a.queued.Add(-1)
	timer := time.NewTimer(a.maxWait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		return a.releaseFn(), nil
	case <-timer.C:
		return nil, &ShedError{Reason: ShedConcurrency, RetryAfter: a.maxWait}
	case <-ctx.Done():
		return nil, &budget.Canceled{Site: "server.admission", Err: ctx.Err()}
	}
}

func (a *Admission) releaseFn() func() {
	var once sync.Once
	return func() {
		once.Do(func() { <-a.sem })
	}
}

// InFlight returns the number of occupied global slots (0 when the
// gate is disabled).
func (a *Admission) InFlight() int {
	if a.sem == nil {
		return 0
	}
	return len(a.sem)
}

// Queued returns the current number of requests waiting at the global
// gate.
func (a *Admission) Queued() int64 { return a.queued.Load() }
