package server

import (
	"container/list"
	"context"
	"sync"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/obs"
)

// PlanCache is a bounded prepared-plan cache keyed on the canonical
// query key (aggview.Prepared.Key). It provides:
//
//   - singleflight population: concurrent misses on one key run the
//     rewrite search once, followers wait for the leader's result;
//   - a bounded size: an insertion into a full cache evicts the least
//     recently used entry;
//   - relation-level invalidation: each entry records the transitive
//     set of stored relations its plan reads (Prepared.Deps), and
//     InvalidateRelation — wired to engine.DB.SetOnInvalidate — evicts
//     exactly the entries that depend on the mutated relation. A plan
//     prepared concurrently with an invalidation is never inserted
//     (generation check), so a stale plan cannot enter the cache
//     through the population race either;
//   - exact-text aliases: a statement text that resolved to a cached
//     entry is remembered (AliasText) and found again without parsing
//     (GetByText). An alias points at its entry and is deleted with it,
//     so it yields exactly the plan the canonical key would at that
//     moment, with the same LRU touch and hit count.
//
// The staleness contract this buys (DESIGN.md section 12): a cache hit
// executes a plan whose relation set has not been invalidated since the
// plan was prepared; because prepared plans read storage at execution
// time and rewritings are answer-equivalent by construction, a hit can
// never produce an answer a fresh plan would not have produced.
type PlanCache struct {
	mu      sync.Mutex
	cap     int64
	entries map[string]*cacheEntry
	texts   map[string]*cacheEntry         // statement text -> entry; see aliasesPerEntry
	lru     *list.List                     // front = most recently used
	deps    map[string]map[string]struct{} // relation -> keys depending on it
	flight  map[string]*flightCall
	gen     uint64 // bumped on every invalidation; guards in-flight inserts

	metrics *obs.Metrics
}

type cacheEntry struct {
	key   string
	p     *aggview.Prepared
	elem  *list.Element
	texts []string // the entry's aliases in PlanCache.texts, oldest first
}

// aliasesPerEntry bounds the statement texts remembered per entry (the
// oldest gives way), and maxAliasBytes the length of one: the canonical
// key folds padding away, so a small query can arrive as megabytes of
// whitespace, and the index holds the raw text outside the entry
// count. Together they bound the index at aliasesPerEntry x capacity
// texts and maxAliasBytes x that many bytes; a longer text is parsed to
// its key every time.
const (
	aliasesPerEntry = 4
	maxAliasBytes   = 4 << 10
)

// flightCall is one in-progress singleflight population.
type flightCall struct {
	done chan struct{}
	p    *aggview.Prepared
	err  error
}

// NewPlanCache returns a cache holding at most capacity prepared plans;
// capacity <= 0 disables caching (every GetOrPrepare call prepares).
// The metrics registry may be nil.
func NewPlanCache(capacity int, metrics *obs.Metrics) *PlanCache {
	c := &PlanCache{
		cap:     int64(capacity),
		entries: map[string]*cacheEntry{},
		texts:   map[string]*cacheEntry{},
		lru:     list.New(),
		deps:    map[string]map[string]struct{}{},
		flight:  map[string]*flightCall{},
		metrics: metrics,
	}
	// Pre-register the stat counters: Stats() reads them on every
	// /metrics scrape, and lazily creating them there would make the
	// first scrape differ from the second (idle scrapes must be
	// byte-identical).
	for _, n := range []string{
		"server.plancache.hit", "server.plancache.follower",
		"server.plancache.miss", "server.plancache.evict",
		"server.plancache.invalidated",
	} {
		metrics.Volatile(n).Load()
	}
	return c
}

// Enabled reports whether the cache stores anything.
func (c *PlanCache) Enabled() bool { return c != nil && c.cap > 0 }

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// GetByText returns the cached plan a statement text was last seen to
// resolve to, if that entry is still cached: the hit GetOrPrepare would
// report for the text's canonical key, without deriving the key.
func (c *PlanCache) GetByText(sql string) (*aggview.Prepared, bool) {
	if !c.Enabled() {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.texts[sql]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.mu.Unlock()
	c.metrics.Volatile("server.plancache.hit").Inc()
	return e.p, true
}

// AliasText remembers that the statement text sql has the canonical key
// key, if an entry for key is cached now and sql is at most
// maxAliasBytes long.
func (c *PlanCache) AliasText(sql, key string) {
	if !c.Enabled() || len(sql) > maxAliasBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || c.texts[sql] == e {
		return
	}
	if len(e.texts) == aliasesPerEntry {
		delete(c.texts, e.texts[0])
		e.texts = append(e.texts[:0], e.texts[1:]...)
	}
	e.texts = append(e.texts, sql)
	c.texts[sql] = e
}

// GetOrPrepare returns the cached plan for key, or populates it by
// calling prepare. Exactly one concurrent caller per key runs prepare
// (the leader); the rest wait for its outcome or their own context.
// Errors are never cached. The returned string is the cache verdict:
// "hit", "miss" or "bypass".
func (c *PlanCache) GetOrPrepare(ctx context.Context, key string, prepare func() (*aggview.Prepared, error)) (*aggview.Prepared, string, error) {
	if !c.Enabled() {
		p, err := prepare()
		return p, "bypass", err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		c.metrics.Volatile("server.plancache.hit").Inc()
		return e.p, "hit", nil
	}
	if fc, ok := c.flight[key]; ok {
		c.mu.Unlock()
		select {
		case <-fc.done:
			if fc.err != nil {
				return nil, "miss", fc.err
			}
			c.metrics.Volatile("server.plancache.follower").Inc()
			return fc.p, "hit", nil
		case <-ctx.Done():
			return nil, "miss", &budget.Canceled{Site: "server.plancache.wait", Err: ctx.Err()}
		}
	}
	// Leader: prepare outside the lock.
	fc := &flightCall{done: make(chan struct{})}
	c.flight[key] = fc
	startGen := c.gen
	c.mu.Unlock()

	c.metrics.Volatile("server.plancache.miss").Inc()
	p, err := prepare()
	fc.p, fc.err = p, err

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil && c.gen == startGen {
		// No relation was invalidated while planning, so the plan
		// reflects the current schema/materialization state; admit it.
		c.insertLocked(key, p)
	}
	c.mu.Unlock()
	close(fc.done)
	return p, "miss", err
}

// insertLocked stores an entry, evicting the least recently used plan
// when the cache holds its capacity.
func (c *PlanCache) insertLocked(key string, p *aggview.Prepared) {
	if _, ok := c.entries[key]; ok {
		return
	}
	if int64(len(c.entries)) >= c.cap {
		c.removeLocked(c.lru.Back().Value.(*cacheEntry))
		c.metrics.Volatile("server.plancache.evict").Inc()
	}
	e := &cacheEntry{key: key, p: p}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for _, dep := range p.Deps {
		set, ok := c.deps[dep]
		if !ok {
			set = map[string]struct{}{}
			c.deps[dep] = set
		}
		set[key] = struct{}{}
	}
	c.metrics.Volatile("server.plancache.size").Max(int64(len(c.entries)))
}

// removeLocked drops an entry with its text aliases.
func (c *PlanCache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.key)
	for _, sql := range e.texts {
		delete(c.texts, sql)
	}
	c.lru.Remove(e.elem)
	for _, dep := range e.p.Deps {
		if set, ok := c.deps[dep]; ok {
			delete(set, e.key)
			if len(set) == 0 {
				delete(c.deps, dep)
			}
		}
	}
}

// InvalidateRelation evicts every plan whose dependency set contains
// the relation, named as declared (Prepared.Deps and the DB hook both
// give the declared name, compared exactly), and bars in-flight
// populations started before this call from inserting. It is wired to
// engine.DB.SetOnInvalidate, so every mutation path — facade inserts,
// incremental view maintenance, wholesale Put — reaches it.
func (c *PlanCache) InvalidateRelation(name string) {
	if !c.Enabled() {
		return
	}
	c.mu.Lock()
	c.gen++
	set := c.deps[name]
	n := 0
	for key := range set {
		if e, ok := c.entries[key]; ok {
			c.removeLocked(e)
			n++
		}
	}
	c.mu.Unlock()
	if n > 0 {
		c.metrics.Volatile("server.plancache.invalidated").Add(int64(n))
	}
}

// CacheStats is the /metrics summary of the plan cache.
type CacheStats struct {
	Size        int   `json:"size"`
	Capacity    int64 `json:"capacity"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Invalidated int64 `json:"invalidated"`
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	size := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Size:        size,
		Capacity:    c.cap,
		Hits:        c.metrics.Volatile("server.plancache.hit").Load() + c.metrics.Volatile("server.plancache.follower").Load(),
		Misses:      c.metrics.Volatile("server.plancache.miss").Load(),
		Evictions:   c.metrics.Volatile("server.plancache.evict").Load(),
		Invalidated: c.metrics.Volatile("server.plancache.invalidated").Load(),
	}
}
