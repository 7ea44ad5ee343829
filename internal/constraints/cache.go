package constraints

// This file implements closure memoization: the rewriter closes the
// WHERE conjunction of every query it keys or searches from, and the
// serving path (plan key, then the search's root) as well as distinct
// branches of the search reach identical conjunctions. CloseCached
// computes each closure once and shares it — closures are finalized by
// Close, so sharing across concurrent candidate analyzers is safe.

import (
	"strconv"
	"sync"
)

// closeCacheCap bounds the number of memoized closures. Eviction is
// FIFO: entries beyond the bound displace the oldest, which is cheap,
// deterministic, and good enough for a BFS whose working set is the
// current frontier.
const closeCacheCap = 4096

type closeCache struct {
	mu        sync.Mutex
	m         map[string]*Closure
	order     []string // insertion ring, len == cap once full
	next      int      // ring slot to displace next
	hits      int64
	misses    int64
	evictions int64
}

var globalCloseCache = &closeCache{m: map[string]*Closure{}}

// CloseCached is Close with memoization on the conjunction's exact
// content (atom order included, so a hit returns a closure with
// identical observable behavior). It is safe for concurrent callers.
func CloseCached(c Conj) *Closure {
	key := cacheKey(c)
	g := globalCloseCache
	g.mu.Lock()
	if cl, ok := g.m[key]; ok {
		g.hits++
		g.mu.Unlock()
		return cl
	}
	g.misses++
	g.mu.Unlock()

	// Compute outside the lock: closing can be expensive and concurrent
	// misses on different keys should not serialize.
	return g.insert(key, Close(c))
}

// insert memoizes cl under key and returns the closure the cache now
// holds for it. Racing misses of one key all arrive here; they computed
// equivalent closures, so the first insert wins and owns the key's one
// ring slot — a second slot would let a later displacement delete the
// live entry while its twin lingers.
func (g *closeCache) insert(key string, cl *Closure) *Closure {
	g.mu.Lock()
	defer g.mu.Unlock()
	if first, ok := g.m[key]; ok {
		return first
	}
	if len(g.order) < closeCacheCap {
		g.order = append(g.order, key)
	} else {
		delete(g.m, g.order[g.next])
		g.order[g.next] = key
		g.next = (g.next + 1) % closeCacheCap
		g.evictions++
	}
	g.m[key] = cl
	return cl
}

// CacheStats is a point-in-time view of the closure cache's counters,
// for embedding in observability reports (DESIGN.md section 9).
type CacheStats struct {
	// Hits and Misses count CloseCached lookups since the last reset.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts FIFO displacements of memoized closures.
	Evictions int64 `json:"evictions"`
	// Size is the current number of memoized closures.
	Size int `json:"size"`
}

// CloseCacheSnapshot returns the closure cache's cumulative counters
// and current size.
func CloseCacheSnapshot() CacheStats {
	g := globalCloseCache
	g.mu.Lock()
	defer g.mu.Unlock()
	return CacheStats{Hits: g.hits, Misses: g.misses, Evictions: g.evictions, Size: len(g.m)}
}

// ResetCloseCache empties the cache and its counters (tests and
// benchmarks that need a cold start).
func ResetCloseCache() {
	g := globalCloseCache
	g.mu.Lock()
	defer g.mu.Unlock()
	g.m = map[string]*Closure{}
	g.order = nil
	g.next = 0
	g.hits, g.misses, g.evictions = 0, 0, 0
}

// cacheKey renders a conjunction to a canonical byte string: one record
// per atom, terms tagged as variable or constant. A constant is its
// canonical key (value.AppendKey), which is self-delimiting, so no
// string constant can spell out the rest of a record.
func cacheKey(c Conj) string {
	b := make([]byte, 0, 16*len(c))
	for _, a := range c {
		b = append(b, byte(a.Op))
		b = appendTerm(b, a.L)
		b = appendTerm(b, a.R)
		b = append(b, ';')
	}
	return string(b)
}

func appendTerm(b []byte, t Term) []byte {
	if t.IsConst {
		b = t.C.AppendKey(append(b, 'c'))
	} else {
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(t.V), 10)
	}
	return append(b, '|')
}
