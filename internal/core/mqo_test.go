package core

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// keyEPs builds named in-process endpoints for key-construction tests.
func keyEPs(names ...string) []endpoint.Endpoint {
	eps := make([]endpoint.Endpoint, len(names))
	for i, n := range names {
		eps[i] = endpoint.NewLocal(n, store.New())
	}
	return eps
}

// newSubqueryCache returns an unbounded, unfenced subquery cache — the
// batch-scoped configuration ExecuteBatch uses without a fence.
func newSubqueryCache() *cache.Cache[*Relation] { return cache.New[*Relation](0, 0, nil) }

// sqDo runs compute through c under the executor's subquery policy.
func sqDo(c *cache.Cache[*Relation], key string, canPartial bool, compute func() (*Relation, error)) (*Relation, bool, error) {
	return reuseSubquery(context.Background(), c, key, nil, canPartial, compute)
}

// put retains rel for key, sourced from srcs, bypassing Do.
func put(c *cache.Cache[*Relation], key string, srcs []string, rel *Relation) {
	c.PutAt(c.Gen(), key, srcs, snapshotRelation(rel))
}

// has reports whether c holds a live entry for key.
func has(c *cache.Cache[*Relation], key string) bool {
	_, ok := c.Get(key)
	return ok
}

// sqKey is SubqueryKey's key alone.
func sqKey(sq *Subquery, eps []endpoint.Endpoint) string {
	k, _ := SubqueryKey(sq, eps)
	return k
}

func TestSubqueryCacheSingleFlight(t *testing.T) {
	c := newSubqueryCache()
	sq := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?o }`).Where.Patterns,
		Sources:  []int{1, 0},
		ProjVars: []sparql.Var{"o", "s"},
	}
	key := sqKey(sq, keyEPs("a", "b"))
	computes := 0
	rel := relOf([]sparql.Var{"s", "o"}, b("s", "1", "o", "2"))
	compute := func() (*Relation, error) { computes++; return rel, nil }
	got, shared, err := sqDo(c, key, false, compute)
	if err != nil || len(got.Rows) != 1 || shared {
		t.Fatalf("first Do = %v shared=%v err=%v", got, shared, err)
	}
	got, shared, err = sqDo(c, key, false, compute)
	if err != nil || !shared {
		t.Fatalf("second Do = %v shared=%v err=%v", got, shared, err)
	}
	if got == rel {
		t.Error("cache hit returned the stored relation itself, want a private copy")
	}
	if len(got.Rows) != 1 || !reflect.DeepEqual(got.Rows[0], rel.Rows[0]) {
		t.Errorf("hit rows = %v, want %v", got.Rows, rel.Rows)
	}
	if computes != 1 {
		t.Errorf("computes = %d, want 1", computes)
	}
	if st := c.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Errorf("hits = %d len = %d", st.Hits, st.Entries)
	}
}

func TestSubqueryCacheErrorNotCached(t *testing.T) {
	c := newSubqueryCache()
	calls := 0
	fail := func() (*Relation, error) { calls++; return nil, context.Canceled }
	if _, _, err := sqDo(c, "k", false, fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, _, err := sqDo(c, "k", false, fail); err == nil {
		t.Fatal("error swallowed on retry")
	}
	if calls != 2 {
		t.Errorf("failed computation cached: calls = %d", calls)
	}
	if h := c.Stats().Hits; h != 0 {
		t.Errorf("hits = %d, want 0 (errors are not reuse)", h)
	}
}

// Regression (unstable keys): the key must be derived from stable
// endpoint identities, not from positional indexes — index 0 of one
// federation is a different endpoint than index 0 of another.
func TestSubqueryKeyStableEndpointIdentity(t *testing.T) {
	patterns := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?o }`).Where.Patterns

	// Same subquery over the same two endpoints, listed in opposite
	// orders by two federations: one cache key.
	a := &Subquery{Patterns: patterns, Sources: []int{0, 1}, ProjVars: []sparql.Var{"s"}}
	rev := &Subquery{Patterns: patterns, Sources: []int{1, 0}, ProjVars: []sparql.Var{"s"}}
	if sqKey(a, keyEPs("x", "y")) != sqKey(rev, keyEPs("y", "x")) {
		t.Error("same endpoints in different federation orders must share a key")
	}

	// Distinct endpoints at the same indexes must NOT collide, even
	// though their positional source lists are identical.
	b1 := &Subquery{Patterns: patterns, Sources: []int{0}, ProjVars: []sparql.Var{"s"}}
	if sqKey(b1, keyEPs("x", "y")) == sqKey(b1, keyEPs("z", "y")) {
		t.Error("different endpoints with identical source indexes must not collide")
	}

	// Different source sets over one federation stay distinct.
	one := &Subquery{Patterns: patterns, Sources: []int{0}, ProjVars: []sparql.Var{"s"}}
	two := &Subquery{Patterns: patterns, Sources: []int{0, 1}, ProjVars: []sparql.Var{"s"}}
	if sqKey(one, keyEPs("x", "y")) == sqKey(two, keyEPs("x", "y")) {
		t.Error("different source sets must not share cache keys")
	}
}

// Regression (shared-relation aliasing): every hit must return a
// relation whose slices are private to the caller, so concurrent
// consumers can sort and truncate without racing (run with -race).
func TestSubqueryCacheCopyOnRead(t *testing.T) {
	c := newSubqueryCache()
	rel := relOf([]sparql.Var{"s"}, b("s", "1"), b("s", "2"), b("s", "3"))
	if _, _, err := sqDo(c, "k", false, func() (*Relation, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, _, err := sqDo(c, "k", false, func() (*Relation, error) {
				t.Error("unexpected recompute")
				return rel, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			// Downstream join/dedup paths reorder and truncate in place.
			for i, j := 0, len(got.Rows)-1; i < j; i, j = i+1, j-1 {
				got.Rows[i], got.Rows[j] = got.Rows[j], got.Rows[i]
			}
			got.Rows = got.Rows[:1+g%2]
			got.Vars = append(got.Vars, sparql.Var("extra"))
		}(g)
	}
	wg.Wait()
	got, _, err := sqDo(c, "k", false, func() (*Relation, error) { return rel, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 3 || len(got.Vars) != 1 {
		t.Errorf("cached entry corrupted by consumers: %d rows %v", len(got.Rows), got.Vars)
	}
	if !reflect.DeepEqual(got.Rows[0], b("s", "1")) {
		t.Errorf("cached row order corrupted: %v", got.Rows)
	}
}

// Regression (completeness leakage): a partial relation computed under
// an absorbing policy must never be served to a caller that cannot
// absorb it, and a complete recomputation replaces the partial entry.
func TestSubqueryCachePartialEntryGating(t *testing.T) {
	c := newSubqueryCache()
	partial := relOf([]sparql.Var{"s"}, b("s", "1"))
	partial.Dropped = []sparql.Dropped{{Endpoint: "down", Phase: "phase1", Reason: "unreachable"}}
	complete := relOf([]sparql.Var{"s"}, b("s", "1"), b("s", "2"))

	// An absorbing caller computes and stores the partial result.
	if _, _, err := sqDo(c, "k", true, func() (*Relation, error) { return partial, nil }); err != nil {
		t.Fatal(err)
	}
	// Another absorbing caller reuses it, drop records intact.
	got, shared, err := sqDo(c, "k", true, func() (*Relation, error) {
		t.Fatal("absorbing caller must reuse the partial entry")
		return nil, nil
	})
	if err != nil || !shared {
		t.Fatalf("absorbing hit: shared=%v err=%v", shared, err)
	}
	if len(got.Dropped) != 1 {
		t.Errorf("partial hit lost its drop records: %v", got.Dropped)
	}

	// A strict caller must NOT see the partial entry: it recomputes.
	computes := 0
	got, shared, err = sqDo(c, "k", false, func() (*Relation, error) {
		computes++
		return complete, nil
	})
	if err != nil || shared || computes != 1 {
		t.Fatalf("strict caller served a partial entry: shared=%v computes=%d err=%v", shared, computes, err)
	}
	if len(got.Dropped) != 0 || len(got.Rows) != 2 {
		t.Errorf("strict recompute returned %v", got)
	}

	// The complete recomputation replaced the partial entry: strict
	// callers now hit.
	_, shared, err = sqDo(c, "k", false, func() (*Relation, error) {
		t.Fatal("complete entry must be reused")
		return nil, nil
	})
	if err != nil || !shared {
		t.Fatalf("strict hit after replacement: shared=%v err=%v", shared, err)
	}
}

func TestSubqueryCacheLRUBound(t *testing.T) {
	c := cache.New[*Relation](2, 0, nil)
	rel := relOf([]sparql.Var{"s"}, b("s", "1"))
	put(c, "a", nil, rel)
	put(c, "b", nil, rel)
	// Touch "a" so "b" is the least recently used.
	if !has(c, "a") {
		t.Fatal("lookup a")
	}
	put(c, "c", nil, rel)
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	if has(c, "b") {
		t.Error("LRU entry b survived past the bound")
	}
	if !has(c, "a") {
		t.Error("recently-used entry a evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestSubqueryCacheInvalidateEndpoint(t *testing.T) {
	c := newSubqueryCache()
	eps := keyEPs("a", "b", "c")
	patterns := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?o }`).Where.Patterns
	ab, abSrcs := SubqueryKey(&Subquery{Patterns: patterns, Sources: []int{0, 1}}, eps)
	cOnly, cSrcs := SubqueryKey(&Subquery{Patterns: patterns, Sources: []int{2}}, eps)
	rel := relOf([]sparql.Var{"s"}, b("s", "1"))
	put(c, ab, abSrcs, rel)
	put(c, cOnly, cSrcs, rel)

	c.InvalidateEndpoint("a")
	if has(c, ab) {
		t.Error("entry sourced from invalidated endpoint survived")
	}
	if !has(c, cOnly) {
		t.Error("entry not sourced from invalidated endpoint dropped")
	}
}

// A Clear (or invalidation) between compute start and completion must
// prevent the stale result from being stored.
func TestSubqueryCacheClearDropsInflightStore(t *testing.T) {
	c := newSubqueryCache()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = sqDo(c, "k", false, func() (*Relation, error) {
			close(started)
			<-release
			return relOf([]sparql.Var{"s"}, b("s", "stale")), nil
		})
	}()
	<-started
	c.Clear()
	close(release)
	<-done
	if c.Stats().Entries != 0 {
		t.Error("computation begun before Clear was stored after it")
	}
}

func TestPersistentCacheCrossQueryReuse(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})

	res1, m1, err := l.ExecuteMetrics(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	endpoint.ResetAll(eps)

	res2, m2, err := l.ExecuteMetrics(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(res1), testfed.Canon(res2)) {
		t.Error("cached repeat returned different results")
	}
	// Planning caches persist: the repeat sends no ASK/check/COUNT.
	if m2.AskRequests != 0 || m2.CheckQueries != 0 || m2.CountQueries != 0 {
		t.Errorf("repeat plan-time requests = %d/%d/%d, want 0/0/0",
			m2.AskRequests, m2.CheckQueries, m2.CountQueries)
	}
	// Phase-1 subqueries come from the cross-query cache.
	if m2.Phase1Requests != 0 {
		t.Errorf("repeat Phase1Requests = %d, want 0 (served from cache)", m2.Phase1Requests)
	}
	if m1.Phase1Requests == 0 {
		t.Error("first run sent no phase-1 requests — test fixture broken")
	}
	if hits := subqueryCacheHits(l); hits == 0 {
		t.Error("no subquery cache hits on repeat execution")
	}

	// InvalidateCaches drops the reuse: the next run re-executes.
	l.InvalidateCaches()
	_, m3, err := l.ExecuteMetrics(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Phase1Requests == 0 {
		t.Error("invalidated cache still served phase-1 results")
	}
}

func TestPersistentCacheStreamedReuse(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})

	collect := func() ([]sparql.Binding, Metrics, error) {
		var rows []sparql.Binding
		_, m, err := l.ExecuteStream(context.Background(), testfed.QaChain,
			func(vars []sparql.Var, chunk []sparql.Binding) error {
				rows = append(rows, chunk...)
				return nil
			})
		return rows, m, err
	}
	rows1, _, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	endpoint.ResetAll(eps)
	rows2, m2, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows1) == 0 || len(rows1) != len(rows2) {
		t.Fatalf("streamed repeat rows = %d, first run = %d", len(rows2), len(rows1))
	}
	if m2.Phase1Requests != 0 {
		t.Errorf("streamed repeat Phase1Requests = %d, want 0", m2.Phase1Requests)
	}
	if hits := subqueryCacheHits(l); hits == 0 {
		t.Error("no subquery cache hits on streamed repeat")
	}
	if reqs := endpoint.TotalStats(eps).Requests; reqs != 0 {
		// Phase 2 may still run bound subqueries; QaChain's plan keeps
		// one delayed subquery, so allow its traffic but nothing else.
		if m2.Phase2Requests == 0 {
			t.Errorf("streamed repeat sent %d endpoint requests with no phase-2 work", reqs)
		}
	}
}

func TestInvalidateEndpointCachesScoped(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})
	if _, err := l.Execute(context.Background(), testfed.QaChain); err != nil {
		t.Fatal(err)
	}
	stats := l.CacheStats()
	for _, e := range stats {
		if e.Name == "subquery" && e.Stats.Entries == 0 {
			t.Fatal("no subquery entries cached")
		}
	}
	l.InvalidateEndpointCaches(ep1.Name())
	// Repeat: entries sourced from ep1 are gone, so phase-1 work returns.
	endpoint.ResetAll(eps)
	_, m, err := l.ExecuteMetrics(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phase1Requests == 0 {
		t.Error("endpoint-scoped invalidation left all phase-1 entries live")
	}
}

func subqueryCacheHits(l *Lusail) int64 {
	for _, e := range l.CacheStats() {
		if e.Name == "subquery" {
			return e.Stats.Hits
		}
	}
	return 0
}

func TestExecuteBatchSharesSubqueries(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{})

	// Three queries sharing the advisor/takesCourse subquery.
	queries := []string{
		testfed.QaChain,
		`SELECT ?S ?P WHERE {
			?S <http://ex/advisor> ?P .
			?S <http://ex/takesCourse> ?C .
			?P <http://ex/PhDDegreeFrom> ?U .
		}`,
		testfed.QaChain,
	}
	// Sequential ground truth.
	var want [][]string
	for _, q := range queries {
		res, err := l.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, testfed.Canon(res))
	}

	endpoint.ResetAll(eps)
	batch := l.ExecuteBatch(context.Background(), queries)
	if len(batch) != 3 {
		t.Fatalf("batch results = %d", len(batch))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("batch query %d: %v", i, br.Err)
		}
		if !reflect.DeepEqual(testfed.Canon(br.Results), want[i]) {
			t.Errorf("batch query %d differs from sequential execution", i)
		}
	}
	if l.LastMetrics().SharedSubqueries == 0 {
		t.Error("expected shared subquery executions in the batch")
	}
}

// Each batch member reports the subquery evaluations it reused, and
// LastMetrics after the batch reports their total.
func TestBatchMembersCountSharedSubqueries(t *testing.T) {
	l, _ := newUniLusail(Config{})
	batch := l.ExecuteBatch(context.Background(), []string{testfed.QaChain, testfed.QaChain})
	sum := 0
	for _, br := range batch {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		sum += br.Metrics.SharedSubqueries
	}
	if sum < 1 {
		t.Errorf("members' SharedSubqueries sum to %d, want at least 1", sum)
	}
	if got := l.LastMetrics().SharedSubqueries; got != sum {
		t.Errorf("LastMetrics().SharedSubqueries = %d, want the batch total %d", got, sum)
	}
}

// The planning caches hold query constants in their keys, so they are
// bounded: inserting past the cap evicts instead of growing.
func TestPlanningCachesBounded(t *testing.T) {
	l, _ := newUniLusail(Config{})
	const over = 10
	for i := 0; i < cache.PlanningEntries+over; i++ {
		key := cache.EndpointKey("EP1", strconv.Itoa(i))
		l.askCache.PutAt(0, key, []string{"EP1"}, true)
		l.checkCache.PutAt(0, key, []string{"EP1"}, true)
		l.countCache.PutAt(0, key, []string{"EP1"}, 1)
	}
	for _, e := range l.CacheStats()[:3] {
		if e.Stats.Entries != cache.PlanningEntries || e.Stats.Evictions != over {
			t.Errorf("%s cache: %d entries, %d evictions; want %d and %d",
				e.Name, e.Stats.Entries, e.Stats.Evictions, cache.PlanningEntries, over)
		}
	}
}

func TestExecuteBatchFewerRequestsThanSequential(t *testing.T) {
	run := func(batch bool) int64 {
		ep1, ep2 := testfed.Universities()
		eps := []endpoint.Endpoint{ep1, ep2}
		l := New(eps, Config{})
		queries := []string{testfed.QaChain, testfed.QaChain, testfed.QaChain}
		if batch {
			for _, br := range l.ExecuteBatch(context.Background(), queries) {
				if br.Err != nil {
					t.Fatal(br.Err)
				}
			}
		} else {
			// Fresh engine per query: no shared caches at all.
			for _, q := range queries {
				lq := New(eps, Config{})
				if _, err := lq.Execute(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
		}
		return endpoint.TotalStats(eps).Requests
	}
	seq := run(false)
	bat := run(true)
	if bat >= seq {
		t.Errorf("batch used %d requests, sequential %d — MQO should save work", bat, seq)
	}
}

func TestExecuteBatchPropagatesErrors(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{})
	batch := l.ExecuteBatch(context.Background(), []string{testfed.QaChain, "NOT SPARQL"})
	if batch[0].Err != nil {
		t.Errorf("valid query failed: %v", batch[0].Err)
	}
	if batch[1].Err == nil {
		t.Error("invalid query succeeded")
	}
}

// failSwitch fails every phase-1 SELECT mentioning substr while on is
// set (COUNT probes pass, so planning succeeds).
type failSwitch struct {
	endpoint.Endpoint
	substr string
	on     atomic.Bool
}

func (f *failSwitch) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if f.on.Load() && strings.HasPrefix(q, "SELECT") && !strings.Contains(q, "COUNT") && strings.Contains(q, f.substr) {
		return nil, errors.New("injected failure")
	}
	return f.Endpoint.Query(ctx, q)
}

// Regression: a subquery whose evaluation failed must leave no trace
// that outlives the failed query — no cache entry (a later query would
// replay the surviving endpoints' rows as the complete answer) and no
// calibration observation (the partial count is not an actual). The
// streaming collector used to fall through after the failure, store
// the partial relation and observe it.
func TestFailedSubqueryNotCachedOrObserved(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	down := &failSwitch{Endpoint: ep2, substr: "advisor"}
	down.on.Store(true)
	eps := []endpoint.Endpoint{ep1, down}

	// The advisor subquery is not the streamed tail (smaller estimate),
	// so it completes as a materialized relation.
	tail := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?S <http://ex/takesCourse> ?C }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"C", "S"}, OptionalGroup: -1, EstCard: 100,
	}
	adv := &Subquery{
		ID:       1,
		Patterns: sparql.MustParse(`SELECT * WHERE { ?S <http://ex/advisor> ?P }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"P", "S"}, OptionalGroup: -1, EstCard: 2,
	}
	ex := NewExecutor(eps)
	var observed []*Subquery
	var mu sync.Mutex
	ex.Observe = func(sq *Subquery, _ int) {
		mu.Lock()
		observed = append(observed, sq)
		mu.Unlock()
	}
	c := newSubqueryCache()
	if _, _, err := runDrained(context.Background(), ex, []*Subquery{tail, adv}, nil, nil, nil, c); err == nil {
		t.Fatal("failed subquery went unnoticed")
	}
	if has(c, sqKey(adv, eps)) {
		t.Error("the failed subquery's partial relation was cached")
	}
	for _, sq := range observed {
		if sq == adv {
			t.Error("the failed subquery's partial row count was observed")
		}
	}

	// End to end: once the endpoint recovers, the next query is exact.
	l := New(eps, Config{SubqueryCacheSize: 16, DelayPolicy: DelayNone})
	var rows []sparql.Binding
	collect := func(_ []sparql.Var, chunk []sparql.Binding) error {
		rows = append(rows, chunk...)
		return nil
	}
	if _, _, err := l.ExecuteStream(context.Background(), testfed.Qa, collect); err == nil {
		t.Fatal("query over the failing endpoint succeeded")
	}
	down.on.Store(false)
	rows = nil
	res, _, err := l.ExecuteStream(context.Background(), testfed.Qa, collect)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New([]endpoint.Endpoint{ep1, ep2}, Config{}).Execute(context.Background(), testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	got := &sparql.Results{Vars: res.Vars, Rows: rows}
	if !reflect.DeepEqual(testfed.Canon(got), testfed.Canon(want)) {
		t.Errorf("query after recovery = %v, want %v", testfed.Canon(got), testfed.Canon(want))
	}
}
