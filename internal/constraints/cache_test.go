package constraints

import (
	"fmt"
	"sync"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/value"
)

// conjN builds a distinct single-atom conjunction per n (x0 = n), so
// each n occupies its own cache slot.
func conjN(n int64) Conj { return Conj{eq(vi(0), ci(n))} }

// TestCloseCachedEvictionBoundary fills the cache to exactly its
// capacity, verifies nothing was evicted, then inserts one more entry
// and verifies FIFO displaced precisely the oldest one.
func TestCloseCachedEvictionBoundary(t *testing.T) {
	ResetCloseCache()
	defer ResetCloseCache()

	// Fill to exactly closeCacheCap distinct conjunctions.
	for n := int64(0); n < closeCacheCap; n++ {
		CloseCached(conjN(n))
	}
	s := CloseCacheSnapshot()
	if s.Size != closeCacheCap {
		t.Fatalf("size after filling to capacity = %d, want %d", s.Size, closeCacheCap)
	}
	if s.Hits != 0 || s.Misses != closeCacheCap {
		t.Fatalf("counters after fill: hits=%d misses=%d, want 0/%d", s.Hits, s.Misses, closeCacheCap)
	}

	// At exactly capacity every entry — oldest and newest — must still
	// be resident.
	first := CloseCached(conjN(0))
	last := CloseCached(conjN(closeCacheCap - 1))
	if hits := CloseCacheSnapshot().Hits; hits != 2 {
		t.Fatalf("boundary probes should both hit, hits=%d", hits)
	}

	if evs := CloseCacheSnapshot().Evictions; evs != 0 {
		t.Fatalf("evictions before overflow = %d, want 0", evs)
	}

	// One past capacity: FIFO evicts the oldest entry only.
	CloseCached(conjN(closeCacheCap))
	if size := CloseCacheSnapshot().Size; size != closeCacheCap {
		t.Fatalf("size after overflow = %d, want to stay at %d", size, closeCacheCap)
	}
	if evs := CloseCacheSnapshot().Evictions; evs != 1 {
		t.Fatalf("evictions after overflow = %d, want 1", evs)
	}
	missesBefore := CloseCacheSnapshot().Misses
	if got := CloseCached(conjN(0)); got == first {
		t.Fatal("oldest entry must have been evicted after overflow")
	}
	if got := CloseCached(conjN(closeCacheCap - 1)); got != last {
		t.Fatal("only the oldest entry should be evicted; newer ones must survive")
	}
	if got := CloseCached(conjN(closeCacheCap)); got == nil {
		t.Fatal("freshly inserted entry missing")
	}
	missesAfter := CloseCacheSnapshot().Misses
	if delta := missesAfter - missesBefore; delta != 1 {
		t.Fatalf("exactly the evicted key should re-miss, got %d new misses", delta)
	}

	// The re-inserted conjN(0) displaced the next ring slot (conjN(1)),
	// keeping the population exactly at capacity.
	if size := CloseCacheSnapshot().Size; size != closeCacheCap {
		t.Fatalf("size drifted to %d after re-insert", size)
	}
}

// TestCloseCachedRacingMissKeepsOneRingSlot replays what two racing
// misses of one key do — both compute, both insert — and checks the key
// holds one ring slot: with two, the flood below would displace the live
// entry early, over-count evictions and leave the cache under capacity.
func TestCloseCachedRacingMissKeepsOneRingSlot(t *testing.T) {
	ResetCloseCache()
	defer ResetCloseCache()

	g := globalCloseCache
	c := conjN(-1)
	first := g.insert(cacheKey(c), Close(c))
	if again := g.insert(cacheKey(c), Close(c)); again != first {
		t.Fatal("a racing duplicate insert must return the closure already cached")
	}
	if len(g.order) != 1 {
		t.Fatalf("ring holds %d slots for one key, want 1", len(g.order))
	}
	for n := int64(0); n < closeCacheCap-1; n++ {
		CloseCached(conjN(n))
	}
	if s := CloseCacheSnapshot(); s.Size != closeCacheCap || s.Evictions != 0 {
		t.Fatalf("after filling to capacity: size=%d evictions=%d, want %d/0", s.Size, s.Evictions, closeCacheCap)
	}
	if CloseCached(c) != first {
		t.Fatal("the doubly inserted key must still be resident at exactly capacity")
	}
}

// TestCloseCachedSemanticsSurviveEviction checks that a closure fetched
// after its twin was evicted still behaves identically: memoization is
// an optimization, never a semantic change.
func TestCloseCachedSemanticsSurviveEviction(t *testing.T) {
	ResetCloseCache()
	defer ResetCloseCache()

	c := Conj{eq(vi(0), ci(7)), eq(vi(0), vi(1))}
	before := CloseCached(c)
	// Force eviction of c by flooding the cache with cap distinct keys.
	for n := int64(0); n < closeCacheCap; n++ {
		CloseCached(conjN(n + 1000))
	}
	after := CloseCached(c)
	if after == before {
		t.Fatal("expected a recomputed closure after flooding")
	}
	if before.Sat() != after.Sat() {
		t.Fatal("recomputed closure disagrees on satisfiability")
	}
	ab, aa := before.Atoms(), after.Atoms()
	if fmt.Sprint(ab) != fmt.Sprint(aa) {
		t.Fatalf("recomputed closure differs:\n%v\nvs\n%v", ab, aa)
	}
}

// TestCloseCachedConcurrent exercises the lock discipline under -race:
// concurrent hits, misses and evictions on overlapping key sets.
func TestCloseCachedConcurrent(t *testing.T) {
	ResetCloseCache()
	defer ResetCloseCache()

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Overlapping ranges: every key is requested by at least
				// two goroutines, mixing hits with racing misses.
				cl := CloseCached(conjN(int64((g/2)*perG + i)))
				if cl == nil || !cl.Sat() {
					t.Errorf("g%d: bad closure for %d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if size := CloseCacheSnapshot().Size; size == 0 || size > closeCacheCap {
		t.Fatalf("cache size out of bounds: %d", size)
	}
}

// TestCacheKeyTellsCraftedStringsApart gives cacheKey a one-atom
// conjunction whose string constant spells, byte for byte, the rest of
// the two-atom [v1 = 'x', v2 = 5] under a key that spreads a string
// constant's bytes unescaped between the record's delimiters. The keys
// must differ, and each conjunction must get its own closure back.
func TestCacheKeyTellsCraftedStringsApart(t *testing.T) {
	ResetCloseCache()
	defer ResetCloseCache()
	two := Conj{eq(vi(1), cs("x")), eq(vi(2), ci(5))}
	one := Conj{eq(vi(1), cs("x|;"+string(rune(ir.OpEq))+"v2|cn5"))}
	if cacheKey(two) == cacheKey(one) {
		t.Fatalf("both conjunctions key as %q", cacheKey(two))
	}
	if v, ok := CloseCached(two).Pin(2); !ok || !value.KeyEqual(v, value.Int(5)) {
		t.Fatalf("%v: v2 pinned to %v (%v), want 5", two, v, ok)
	}
	if v, ok := CloseCached(one).Pin(2); ok {
		t.Fatalf("%v: v2 pinned to %v, want unpinned", one, v)
	}
	if v, ok := CloseCached(one).Pin(1); !ok || !value.KeyEqual(v, one[0].R.C) {
		t.Fatalf("%v: v1 pinned to %v (%v)", one, v, ok)
	}
}
