package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// invalidateOnQuery wraps an endpoint and fires a cache invalidation
// after every Query it serves — the worst-case interleaving for a
// streaming execution: the invalidation (a data-version bump or a
// /debug/invalidate hit) lands after the executor captured its cache
// generation but before it stores the relations computed from the
// in-flight subqueries.
type invalidateOnQuery struct {
	endpoint.Endpoint
	mu    sync.Mutex
	cache *cache.Cache[*Relation]
}

func (e *invalidateOnQuery) Query(ctx context.Context, q string) (*sparql.Results, error) {
	res, err := e.Endpoint.Query(ctx, q)
	e.mu.Lock()
	c := e.cache
	e.mu.Unlock()
	if c != nil {
		c.InvalidateEndpoint(e.Endpoint.Name())
	}
	return res, err
}

// Regression test for the invalidation/streaming store race: an
// invalidation arriving while a plan's phase-1 subqueries are on the
// wire must prevent their relations from being retained. Before the
// generation fence, the stream collector stored rows it had computed
// against the pre-invalidation data AFTER the invalidation ran,
// resurrecting exactly the state the invalidation was meant to drop —
// a later query would replay it as a cache hit. Every subquery now
// goes through the subquery cache's Do, whose generation check is the fence.
func TestStreamInvalidationRaceNotStored(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	w1, w2 := &invalidateOnQuery{Endpoint: ep1}, &invalidateOnQuery{Endpoint: ep2}
	eps := []endpoint.Endpoint{w1, w2}
	ex := NewExecutor(eps)

	// Two required phase-1 subqueries joined on ?P. The advisor one is
	// elected tail (larger estimate) and streams; the teacherOf one
	// completes as a materialized relation. Both are stored through the
	// cache — exactly the stores the mid-flight invalidation must fence
	// off.
	mk := func(text string, proj []sparql.Var, est float64) *Subquery {
		return &Subquery{
			Patterns: sparql.MustParse(text).Where.Patterns,
			Sources:  []int{0, 1}, ProjVars: proj, OptionalGroup: -1, EstCard: est,
		}
	}
	tail := mk(`SELECT * WHERE { ?s <http://ex/advisor> ?P }`, []sparql.Var{"P", "s"}, 100)
	held := mk(`SELECT * WHERE { ?P <http://ex/teacherOf> ?C }`, []sparql.Var{"C", "P"}, 2)
	sqs := []*Subquery{tail, held}

	c := newSubqueryCache()
	w1.cache, w2.cache = c, c

	got, _, err := runDrained(context.Background(), ex, sqs, nil, nil, nil, c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// The query itself is unharmed: its rows match an uncached run on
	// an untouched executor.
	want, _, err := runDrained(context.Background(), NewExecutor([]endpoint.Endpoint{ep1, ep2}), sqs, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(r *Relation) []string { return testfed.Canon(&sparql.Results{Vars: r.Vars, Rows: r.Rows}) }
	if !reflect.DeepEqual(canon(got), canon(want)) {
		t.Errorf("rows differ under racing invalidation.\n got: %v\nwant: %v", canon(got), canon(want))
	}

	// The fence is the point: every store attempt carried a generation
	// older than the invalidations fired mid-flight, so nothing
	// computed against the invalidated snapshot may survive.
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("subquery cache holds %d entries stored across an invalidation, want 0", n)
	}

	// Sanity: the same plan with no invalidation racing it does retain
	// both relations — the fence refuses stale stores, not all stores.
	w1.mu.Lock()
	w1.cache = nil
	w1.mu.Unlock()
	w2.mu.Lock()
	w2.cache = nil
	w2.mu.Unlock()
	if _, _, err := runDrained(context.Background(), ex, sqs, nil, nil, nil, c); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("quiet run stored %d entries, want 2 — the race assertion above is vacuous", n)
	}
}
