package server

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/obs"
	"aggview/internal/oracle"
)

// cacheSystem builds a small system with enough distinct query shapes
// to fill and overflow a cache.
func cacheSystem(t *testing.T) *aggview.System {
	ctx := context.Background()
	t.Helper()
	sys := aggview.New()
	sys.MustLoad(`
		CREATE TABLE T(a, b, c);
		CREATE TABLE U(d, e);
		CREATE VIEW V AS SELECT a, SUM(b), COUNT(b) FROM T GROUP BY a
	`)
	if err := sys.InsertContext(ctx, "T",
		[]aggview.Value{aggview.Int(1), aggview.Int(10), aggview.Int(0)},
		[]aggview.Value{aggview.Int(1), aggview.Int(20), aggview.Int(1)},
		[]aggview.Value{aggview.Int(2), aggview.Int(30), aggview.Int(0)},
	); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertContext(ctx, "U",
		[]aggview.Value{aggview.Int(1), aggview.Int(100)},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrackViewContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustPrepare(t *testing.T, sys *aggview.System, sql string) (string, *aggview.Prepared) {
	t.Helper()
	key, err := sys.PlanKey(sql)
	if err != nil {
		t.Fatalf("PlanKey(%q): %v", sql, err)
	}
	p, err := sys.PrepareContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", sql, err)
	}
	return key, p
}

// TestPlanCacheAccounting pins hit/miss/eviction bookkeeping: the LRU
// evicts the cold end at capacity, and verdicts are reported
// truthfully.
func TestPlanCacheAccounting(t *testing.T) {
	sys := cacheSystem(t)
	m := obs.NewMetrics()
	c := NewPlanCache(2, m)
	ctx := context.Background()

	sqls := []string{
		"SELECT a FROM T",
		"SELECT b FROM T",
		"SELECT c FROM T",
	}
	keys := make([]string, len(sqls))
	for i, sql := range sqls[:2] {
		key, p := mustPrepare(t, sys, sql)
		keys[i] = key
		_, verdict, err := c.GetOrPrepare(ctx, key, func() (*aggview.Prepared, error) { return p, nil })
		if err != nil || verdict != "miss" {
			t.Fatalf("populate %q: verdict=%q err=%v", sql, verdict, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("after 2 inserts: Len=%d, want 2", c.Len())
	}
	// Re-reading the first key must be a hit and refresh its LRU slot.
	if _, verdict, _ := c.GetOrPrepare(ctx, keys[0], nil); verdict != "hit" {
		t.Fatalf("expected hit on %q, got %q", sqls[0], verdict)
	}
	// A third key evicts the least recently used (keys[1], not keys[0]).
	key2, p2 := mustPrepare(t, sys, sqls[2])
	keys[2] = key2
	if _, verdict, err := c.GetOrPrepare(ctx, key2, func() (*aggview.Prepared, error) { return p2, nil }); verdict != "miss" || err != nil {
		t.Fatalf("third insert: verdict=%q err=%v", verdict, err)
	}
	if c.Len() != 2 {
		t.Fatalf("after eviction: Len=%d, want 2", c.Len())
	}
	if m.Volatile("server.plancache.evict").Load() != 1 {
		t.Fatalf("evictions=%d, want 1", m.Volatile("server.plancache.evict").Load())
	}
	if _, verdict, _ := c.GetOrPrepare(ctx, keys[0], nil); verdict != "hit" {
		t.Fatal("recently used key was evicted instead of the LRU one")
	}
	if _, verdict, _ := c.GetOrPrepare(ctx, keys[1], func() (*aggview.Prepared, error) {
		_, p := mustPrepare(t, sys, sqls[1])
		return p, nil
	}); verdict != "miss" {
		t.Fatal("LRU key survived eviction")
	}
	stats := c.Stats()
	if stats.Size != 2 || stats.Capacity != 2 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestPlanCacheInvalidation pins the relation-dependency eviction: only
// plans whose dependency set contains the mutated relation are dropped,
// matched exactly by the declared name the DB hook delivers. A plan over a tracked view depends on the
// view alone (the view absorbs its tables' writes in the same batch); a
// plan over a view that is declared but not stored depends on the view's
// tables too, transitively through the registry.
func TestPlanCacheInvalidation(t *testing.T) {
	sys := cacheSystem(t)
	sys.MustDefineView("W", "SELECT d, SUM(e) FROM U GROUP BY d")
	c := NewPlanCache(8, obs.NewMetrics())
	ctx := context.Background()

	overT, pT := mustPrepare(t, sys, "SELECT c FROM T")
	overV, pV := mustPrepare(t, sys, "SELECT a, SUM(b) FROM T GROUP BY a")
	overU, pU := mustPrepare(t, sys, "SELECT d FROM U")
	overW, pW := mustPrepare(t, sys, "SELECT d FROM W")
	if !pV.Rewritten() || !slices.Equal(pV.Deps, []string{"V"}) {
		t.Fatalf("plan over the tracked view: rewritten=%v deps=%v, want deps [V]", pV.Rewritten(), pV.Deps)
	}
	if pW.Rewritten() || !slices.Equal(pW.Deps, []string{"U", "W"}) {
		t.Fatalf("plan over the declared view: rewritten=%v deps=%v, want deps [U W]", pW.Rewritten(), pW.Deps)
	}
	prepared := map[string]*aggview.Prepared{overT: pT, overV: pV, overU: pU, overW: pW}
	fill := func() {
		for key, p := range prepared {
			if _, _, err := c.GetOrPrepare(ctx, key, func() (*aggview.Prepared, error) { return p, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	// hits reports, per key in order T, V, U, W, whether the cache still
	// holds its plan, refilling what an invalidation dropped.
	hits := func() []bool {
		var out []bool
		for _, key := range []string{overT, overV, overU, overW} {
			_, verdict, _ := c.GetOrPrepare(ctx, key, func() (*aggview.Prepared, error) { return prepared[key], nil })
			out = append(out, verdict == "hit")
		}
		return out
	}
	fill()
	for _, tc := range []struct {
		rel  string
		want []bool
	}{
		{"t", []bool{true, true, true, true}}, // no relation is declared t
		{"T", []bool{false, true, true, true}},
		{"V", []bool{true, false, true, true}},
		{"U", []bool{true, true, false, false}},
	} {
		c.InvalidateRelation(tc.rel)
		if got := hits(); !slices.Equal(got, tc.want) {
			t.Fatalf("after invalidating %s: hits (T, V, U, W) = %v, want %v", tc.rel, got, tc.want)
		}
	}
}

// TestSpellingsShareOnePlan: one query whose table and columns are
// spelled as declared, lower-cased and upper-cased is one plan-cache
// entry, prepared once; invalidating the declared name evicts it.
func TestSpellingsShareOnePlan(t *testing.T) {
	sys := cacheSystem(t)
	c := NewPlanCache(8, obs.NewMetrics())
	ctx := context.Background()
	var verdicts []string
	var cached *aggview.Prepared
	for _, sql := range []string{
		"SELECT a, SUM(b) FROM T GROUP BY a",
		"select a, sum(b) from t group by a",
		"SELECT A, SUM(B) FROM T GROUP BY A",
	} {
		key, p := mustPrepare(t, sys, sql)
		got, verdict, err := c.GetOrPrepare(ctx, key, func() (*aggview.Prepared, error) { return p, nil })
		if err != nil {
			t.Fatal(err)
		}
		verdicts, cached = append(verdicts, verdict), got
	}
	if !slices.Equal(verdicts, []string{"miss", "hit", "hit"}) || c.Len() != 1 {
		t.Fatalf("verdicts %v over %d entries, want [miss hit hit] over 1", verdicts, c.Len())
	}
	if !slices.Equal(cached.Deps, []string{"V"}) {
		t.Fatalf("the cached plan depends on %v, want [V]", cached.Deps)
	}
	c.InvalidateRelation("V")
	if c.Len() != 0 {
		t.Fatal("the entry survived the invalidation of V")
	}
}

// TestPlanCacheSingleflight runs many concurrent misses on one key
// (under -race in CI): exactly one caller prepares, everyone gets the
// same plan, and the accounting records one entry.
func TestPlanCacheSingleflight(t *testing.T) {
	sys := cacheSystem(t)
	c := NewPlanCache(8, obs.NewMetrics())
	key, p := mustPrepare(t, sys, "SELECT a FROM T")

	var prepares atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 32
	results := make([]*aggview.Prepared, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := c.GetOrPrepare(context.Background(), key, func() (*aggview.Prepared, error) {
				prepares.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the window
				return p, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	if n := prepares.Load(); n != 1 {
		t.Fatalf("prepare ran %d times, want 1", n)
	}
	for i, got := range results {
		if got != p {
			t.Fatalf("goroutine %d got a different plan", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len=%d, want 1", c.Len())
	}
}

// TestPlanCacheErrorsNotCached pins that a failed population leaves no
// entry and followers receive the leader's error.
func TestPlanCacheErrorsNotCached(t *testing.T) {
	c := NewPlanCache(8, obs.NewMetrics())
	boom := fmt.Errorf("planner exploded")
	_, verdict, err := c.GetOrPrepare(context.Background(), "k", func() (*aggview.Prepared, error) {
		return nil, boom
	})
	if err != boom || verdict != "miss" {
		t.Fatalf("got verdict=%q err=%v", verdict, err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: Len=%d", c.Len())
	}
}

// TestPlanCacheGenerationBarsStaleInsert pins the population race: a
// relation invalidated while the leader is preparing means the finished
// plan may reflect pre-mutation state, so it must not enter the cache.
func TestPlanCacheGenerationBarsStaleInsert(t *testing.T) {
	sys := cacheSystem(t)
	c := NewPlanCache(8, obs.NewMetrics())
	key, p := mustPrepare(t, sys, "SELECT a, SUM(b) FROM T GROUP BY a")

	got, verdict, err := c.GetOrPrepare(context.Background(), key, func() (*aggview.Prepared, error) {
		// Concurrent mutation lands mid-preparation.
		c.InvalidateRelation("T")
		return p, nil
	})
	if err != nil || verdict != "miss" || got != p {
		t.Fatalf("got verdict=%q err=%v", verdict, err)
	}
	if c.Len() != 0 {
		t.Fatal("plan prepared across an invalidation entered the cache")
	}
}

// TestPlanCacheFollowerCancel pins that a follower whose context dies
// while waiting for the leader unblocks with a typed cancellation.
func TestPlanCacheFollowerCancel(t *testing.T) {
	c := NewPlanCache(8, obs.NewMetrics())
	block := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrPrepare(context.Background(), "k", func() (*aggview.Prepared, error) {
			close(leaderIn)
			<-block
			return nil, fmt.Errorf("never cached")
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrPrepare(ctx, "k", nil)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !budget.IsCanceled(err) {
			t.Fatalf("follower returned %v, want typed Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower hung on a dead context")
	}
	close(block)
}

// TestPlanCacheDisabled pins bypass behavior.
func TestPlanCacheDisabled(t *testing.T) {
	c := NewPlanCache(0, nil)
	calls := 0
	for i := 0; i < 2; i++ {
		_, verdict, err := c.GetOrPrepare(context.Background(), "k", func() (*aggview.Prepared, error) {
			calls++
			return nil, nil
		})
		if err != nil || verdict != "bypass" {
			t.Fatalf("verdict=%q err=%v", verdict, err)
		}
	}
	if calls != 2 {
		t.Fatalf("prepare calls=%d, want 2 (no caching)", calls)
	}
}

// TestPlanCacheTextAliases pins the exact-text index: an alias exists
// only beside its entry and yields that entry's plan with the hit count
// and LRU touch a lookup by key makes; it goes when the entry goes, by
// eviction, invalidation or flush; and an entry keeps at most
// aliasesPerEntry texts of at most maxAliasBytes, the oldest giving way.
func TestPlanCacheTextAliases(t *testing.T) {
	sys := cacheSystem(t)
	m := obs.NewMetrics()
	c := NewPlanCache(2, m)
	ctx := context.Background()
	hits := func() int64 { return m.Volatile("server.plancache.hit").Load() }
	populate := func(sql string) (string, *aggview.Prepared) {
		t.Helper()
		key, p := mustPrepare(t, sys, sql)
		got, _, err := c.GetOrPrepare(ctx, key, func() (*aggview.Prepared, error) { return p, nil })
		if err != nil {
			t.Fatal(err)
		}
		return key, got
	}

	const sqlA, sqlB, sqlC = "SELECT a FROM T", "SELECT d FROM U", "SELECT c FROM T"
	keyA, _ := mustPrepare(t, sys, sqlA)
	c.AliasText(sqlA, keyA)
	if _, ok := c.GetByText(sqlA); ok || len(c.texts) != 0 {
		t.Fatal("an alias was recorded for a key with no entry")
	}
	_, pA := populate(sqlA)
	keyB, _ := populate(sqlB)
	c.AliasText(sqlA, keyA)
	c.AliasText(sqlA, keyA) // recording twice is recording once
	c.AliasText(sqlB, keyB)
	if len(c.texts) != 2 {
		t.Fatalf("%d aliases for two texts", len(c.texts))
	}
	before := hits()
	if p, ok := c.GetByText(sqlA); !ok || p != pA {
		t.Fatalf("GetByText(%q) = %p, %v; want the cached plan %p", sqlA, p, ok, pA)
	}
	if hits() != before+1 {
		t.Fatalf("a text hit added %d to server.plancache.hit, want 1", hits()-before)
	}
	if _, ok := c.GetByText("select a from T"); ok {
		t.Fatal("a text that was never recorded hit")
	}

	// The text hit touched A, so a third entry evicts B — with its alias.
	populate(sqlC)
	if _, ok := c.GetByText(sqlB); ok {
		t.Fatal("alias survived its entry's LRU eviction")
	}
	if p, ok := c.GetByText(sqlA); !ok || p != pA {
		t.Fatal("the entry a text hit touched was evicted ahead of the colder one")
	}
	if len(c.texts) != 1 {
		t.Fatalf("%d aliases after eviction, want 1", len(c.texts))
	}

	c.InvalidateRelation("T") // the declared name, as the DB hook delivers it
	if _, ok := c.GetByText(sqlA); ok || len(c.texts) != 0 {
		t.Fatalf("alias survived InvalidateRelation (%d left)", len(c.texts))
	}

	// Many spellings of one statement: the entry keeps the newest few.
	populate(sqlA)
	spellings := make([]string, 3*aliasesPerEntry)
	for i := range spellings {
		spellings[i] = "SELECT a FROM T" + strings.Repeat(" ", i+1)
		if key, _ := mustPrepare(t, sys, spellings[i]); key != keyA {
			t.Fatalf("spelling %d has another key", i)
		}
		c.AliasText(spellings[i], keyA)
		if len(c.texts) > aliasesPerEntry*int(c.cap) {
			t.Fatalf("%d aliases exceed %d per entry x capacity %d", len(c.texts), aliasesPerEntry, c.cap)
		}
	}
	if len(c.texts) != aliasesPerEntry {
		t.Fatalf("%d aliases on one entry, want %d", len(c.texts), aliasesPerEntry)
	}
	if _, ok := c.GetByText(spellings[0]); ok {
		t.Fatal("the oldest spelling was kept")
	}
	if _, ok := c.GetByText(spellings[len(spellings)-1]); !ok {
		t.Fatal("the newest spelling was dropped")
	}

	// A text past maxAliasBytes — a small statement padded large — is never
	// indexed, at the limit it is, and the server still resolves the long
	// one through PlanKey to the same cached plan.
	atLimit := sqlA + strings.Repeat(" ", maxAliasBytes-len(sqlA))
	padded := atLimit + " "
	c.AliasText(atLimit, keyA)
	c.AliasText(padded, keyA)
	if _, ok := c.GetByText(atLimit); !ok {
		t.Fatalf("a %d-byte text was not indexed", len(atLimit))
	}
	if _, ok := c.GetByText(padded); ok {
		t.Fatalf("a %d-byte text was indexed", len(padded))
	}
	srv := New(sys, Config{})
	defer srv.Close()
	first, verdict, err := srv.resolve(ctx, padded)
	if err != nil || verdict != "miss" {
		t.Fatalf("resolve of the padded text: verdict %q, err %v", verdict, err)
	}
	again, verdict, err := srv.resolve(ctx, padded)
	if err != nil || verdict != "hit" || again != first {
		t.Fatalf("second resolve of the padded text: plan %p verdict %q err %v, want %p \"hit\"", again, verdict, err, first)
	}
	if n := len(srv.cache.texts); n != 0 {
		t.Fatalf("%d aliases after resolving only an oversized text", n)
	}

	off := NewPlanCache(-1, m)
	off.AliasText(sqlA, keyA)
	if _, ok := off.GetByText(sqlA); ok {
		t.Fatal("a disabled cache answered by text")
	}
}

// spell renders q with the given clause separator, keyword case and FROM
// order — spellings the parser reads as the same statement or, when the
// FROM order matters to the canonical key, as whatever PlanKey says.
func spell(q *oracle.QuerySpec, sep string, lower, reverseFrom bool) string {
	kw := func(s string) string {
		if lower {
			s = strings.ToLower(s)
		}
		return sep + s + sep
	}
	from := append([]string{}, q.From...)
	if reverseFrom {
		slices.Reverse(from)
	}
	sql := strings.TrimLeft(kw("SELECT"), sep)
	if q.Distinct {
		sql += strings.TrimLeft(kw("DISTINCT"), sep)
	}
	sql += strings.Join(q.Select, ","+sep) + kw("FROM") + strings.Join(from, sep+",")
	if len(q.Where) > 0 {
		sql += kw("WHERE") + strings.Join(q.Where, kw("AND"))
	}
	if len(q.GroupBy) > 0 {
		sql += kw("GROUP") + strings.TrimLeft(kw("BY"), sep) + strings.Join(q.GroupBy, ", ")
	}
	if len(q.Having) > 0 {
		sql += kw("HAVING") + strings.Join(q.Having, kw("AND"))
	}
	return sql
}

// TestResolveByTextMatchesPlanKey is the cache-transparency property of
// the text index over the oracle's query generator: statements are
// resolved in random order under several spellings (whitespace, keyword
// case, FROM order), some repeated exactly, and every one must reach the
// *Prepared, the verdict and the hit and miss counts that a cache looked
// up by PlanKey alone produces.
func TestResolveByTextMatchesPlanKey(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		w := oracle.GenerateWorkload(rng, oracle.GenOptions{}, 6)
		sys, err := w.Case.CompileContext(context.Background(), aggview.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		srv := New(sys, Config{})
		var texts []string
		for qi := range w.Queries {
			q := &w.Queries[qi]
			texts = append(texts, q.SQL(), spell(q, " ", true, false), spell(q, "\n\t ", false, false), spell(q, "  ", true, true))
		}
		byKey := map[string]*aggview.Prepared{}
		var wantHits, wantMisses int64
		for step := 0; step < 6*len(texts); step++ {
			sql := texts[rng.Intn(len(texts))]
			key, err := sys.PlanKey(sql)
			if err != nil {
				t.Fatalf("trial %d: PlanKey(%q): %v", trial, sql, err)
			}
			p, verdict, err := srv.resolve(ctx, sql)
			if err != nil {
				t.Fatalf("trial %d: resolve(%q): %v", trial, sql, err)
			}
			wantVerdict := "hit"
			if byKey[key] == nil {
				byKey[key], wantVerdict = p, "miss"
				wantMisses++
			} else {
				wantHits++
			}
			if p != byKey[key] || p.Key != key || verdict != wantVerdict {
				t.Fatalf("trial %d step %d: resolve(%q) = plan %p (key %q) verdict %q; PlanKey %q has plan %p, verdict %q",
					trial, step, sql, p, p.Key, verdict, key, byKey[key], wantVerdict)
			}
		}
		if st := srv.Cache().Stats(); st.Hits != wantHits || st.Misses != wantMisses || st.Size != len(byKey) {
			t.Fatalf("trial %d: cache stats %+v, want %d hits %d misses %d entries", trial, st, wantHits, wantMisses, len(byKey))
		}
		if n := len(srv.cache.texts); n == 0 || n > aliasesPerEntry*len(byKey) {
			t.Fatalf("trial %d: %d aliases for %d entries", trial, n, len(byKey))
		}
		srv.Close()
	}
}

// TestWideningEvictsACoalescingPlan: V sums T's int column X by (G, H),
// and the plan for SELECT G, SUM(X) coalesces V's cells. A write of a
// float widens X and, with it, V's SUM column; that commit of V is loud
// although V absorbed its delta, so the cached plan goes. V's cells are
// then round(2^52 + 0.5) = 2^52 and -2^52, which re-added read 0; the
// next request is prepared afresh, refuses the coalescing over a float
// column and answers the exact 0.5.
func TestWideningEvictsACoalescingPlan(t *testing.T) {
	ctx := context.Background()
	sys := aggview.New()
	sys.MustLoad("CREATE TABLE T(G, H, X); CREATE VIEW V AS SELECT G, H, SUM(X), COUNT(X) FROM T GROUP BY G, H")
	rows := [][]aggview.Value{
		{aggview.Int(1), aggview.Int(1), aggview.Int(1 << 52)},
		{aggview.Int(1), aggview.Int(2), aggview.Int(-1 << 52)},
	}
	for range 200 { // zeros that make V far cheaper to read than T
		rows = append(rows, []aggview.Value{aggview.Int(1), aggview.Int(3), aggview.Int(0)})
	}
	if err := sys.InsertContext(ctx, "T", rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrackViewContext(ctx, "V"); err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(8, obs.NewMetrics())
	sys.DB.SetOnInvalidate(c.InvalidateRelation)
	const q = "SELECT G, SUM(X) FROM T GROUP BY G"
	key, err := sys.PlanKey(q)
	if err != nil {
		t.Fatal(err)
	}
	var p *aggview.Prepared
	answer := func() (string, string) {
		var verdict string
		p, verdict, err = c.GetOrPrepare(ctx, key, func() (*aggview.Prepared, error) { return sys.PrepareContext(ctx, q) })
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.ExecPreparedOnContext(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Tuples), verdict
	}
	if got, _ := answer(); got != "[[1 0]]" {
		t.Fatalf("before the widening: %s", got)
	}
	if _, verdict := answer(); verdict != "hit" || !p.Rewritten() || !slices.Equal(p.Deps, []string{"V"}) {
		t.Fatalf("the coalescing plan was not cached: %s, rewritten %v, deps %v", verdict, p.Rewritten(), p.Deps)
	}
	if err := sys.InsertContext(ctx, "T", []aggview.Value{aggview.Int(1), aggview.Int(1), aggview.Float(0.5)}); err != nil {
		t.Fatal(err)
	}
	if got, verdict := answer(); verdict == "hit" || got != "[[1 0.5]]" {
		t.Fatalf("after the widening: %s (%s), want [[1 0.5]] from a fresh plan", got, verdict)
	}
}
