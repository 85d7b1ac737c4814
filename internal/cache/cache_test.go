package cache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/store"
)

// versionedFence returns a fence in mode over two in-process endpoints
// "a" and "b", refreshed once so both versions are tracked.
func versionedFence(t testing.TB, mode Mode) (*Coherence, *endpoint.Local) {
	t.Helper()
	a, b := endpoint.NewLocal("a", store.New()), endpoint.NewLocal("b", store.New())
	f := NewCoherence([]endpoint.Endpoint{a, b}, 0, mode, nil)
	f.Refresh(context.Background())
	return f, a
}

func TestCacheTTLExpiry(t *testing.T) {
	c := New[string](0, time.Minute, nil)
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }
	c.PutAt(c.Gen(), "k", nil, "v")

	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry must hit")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired entry served")
	}
	st := c.Stats()
	if st.Expirations != 1 || st.Entries != 0 {
		t.Errorf("stats after expiry = %+v", st)
	}
}

// TTL boundary: an entry is expired AT its expires instant, not one
// tick after, so the validity window is [store, store+ttl).
func TestCacheTTLBoundaryExact(t *testing.T) {
	c := New[string](0, time.Minute, nil)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.PutAt(c.Gen(), "k", nil, "v")

	now = time.Unix(1000, 0).Add(time.Minute - time.Nanosecond)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry expired one tick before its boundary")
	}
	now = time.Unix(1000, 0).Add(time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry served at its exact expiry instant")
	}
	if st := c.Stats(); st.Expirations != 1 || st.Entries != 0 {
		t.Errorf("stats after boundary expiry = %+v", st)
	}
}

// blockedLeader starts a Do for "k" whose computation fails once
// release is closed, and returns once it is in flight.
func blockedLeader(c *Cache[string]) (release chan struct{}, done chan error) {
	started := make(chan struct{})
	release = make(chan struct{})
	done = make(chan error, 1)
	go func() {
		_, _, _, err := c.Do(context.Background(), "k", nil, nil, func() (string, error) {
			close(started)
			<-release
			return "", errors.New("endpoint down")
		})
		done <- err
	}()
	<-started
	return release, done
}

// A caller blocked on a computation that failed must re-enter the
// compute loop instead of surfacing the leader's error, and error
// deliveries must not count as hits.
func TestCacheWaiterRetriesAfterFailure(t *testing.T) {
	c := New[string](0, 0, nil)
	joined := make(chan struct{})
	var joinOnce sync.Once
	c.onWait = func(string) { joinOnce.Do(func() { close(joined) }) }
	release, leaderDone := blockedLeader(c)

	waiterDone := make(chan error, 1)
	recomputed := 0
	go func() {
		_, _, _, err := c.Do(context.Background(), "k", nil, nil, func() (string, error) {
			recomputed++
			return "v", nil
		})
		waiterDone <- err
	}()
	// Deterministic join: onWait fires once the waiter has found the
	// in-flight call; only then does the leader fail.
	<-joined
	close(release)

	if err := <-leaderDone; err == nil {
		t.Error("leader must surface its own error")
	}
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter surfaced the leader's stale error: %v", err)
	}
	if recomputed != 1 {
		t.Errorf("waiter recomputed %d times, want 1", recomputed)
	}
	if h := c.Stats().Hits; h != 0 {
		t.Errorf("hits = %d, want 0 (an error delivery is not reuse)", h)
	}
}

// A waiter retrying after its leader failed must not trust an entry
// that expired while it was blocked: the retry's lookup runs at
// wake-up time.
func TestCacheTTLExpiresDuringWaiterRetry(t *testing.T) {
	c := New[string](0, time.Minute, nil)
	base := time.Unix(2000, 0)
	now := base
	var nowMu sync.Mutex
	c.now = func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	joined := make(chan struct{})
	var joinOnce sync.Once
	c.onWait = func(string) { joinOnce.Do(func() { close(joined) }) }
	release, leaderDone := blockedLeader(c)

	type result struct {
		v   string
		err error
	}
	waiterDone := make(chan result, 1)
	recomputed := 0
	go func() {
		v, _, _, err := c.Do(context.Background(), "k", nil, nil, func() (string, error) {
			recomputed++
			return "fresh", nil
		})
		waiterDone <- result{v, err}
	}()
	<-joined

	// While the waiter is blocked: a side channel stores an entry for
	// the same key, and the clock jumps past its expiry before the
	// leader fails.
	c.PutAt(c.Gen(), "k", nil, "stale")
	nowMu.Lock()
	now = base.Add(2 * time.Minute)
	nowMu.Unlock()
	close(release)

	if err := <-leaderDone; err == nil {
		t.Error("leader must surface its own error")
	}
	w := <-waiterDone
	if w.err != nil || w.v != "fresh" || recomputed != 1 {
		t.Errorf("waiter = %q, %v after %d recomputes; want the fresh recompute", w.v, w.err, recomputed)
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Errorf("expirations = %d, want 1 (the mid-wait entry)", st.Expirations)
	}
}

// A waiter whose own ctx ends stops waiting on another caller's
// computation.
func TestCacheWaiterStopsOnOwnContext(t *testing.T) {
	c := New[string](0, 0, nil)
	joined := make(chan struct{})
	var joinOnce sync.Once
	c.onWait = func(string) { joinOnce.Do(func() { close(joined) }) }
	release, leaderDone := blockedLeader(c)
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, _, err := c.Do(ctx, "k", nil, nil, func() (string, error) { return "v", nil })
		waiterDone <- err
	}()
	<-joined
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

// Inserting past the bound evicts least-recently-used entries and
// counts them; the planning caches run with PlanningEntries.
func TestCacheLRUBoundCountsEvictions(t *testing.T) {
	c := New[int](3, 0, nil)
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		c.PutAt(c.Gen(), k, nil, i)
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Errorf("stats = %+v, want 3 entries and 2 evictions", st)
	}
	if _, ok := c.Get("a"); ok {
		t.Error("least recently used entry survived")
	}
}

// InvalidateEndpoint matches on the source names recorded at store
// time, and fences stores begun before it.
func TestCacheInvalidateEndpointBySources(t *testing.T) {
	c := New[int](0, 0, nil)
	gen := c.Gen()
	c.PutAt(gen, "ab", []string{"a", "b"}, 1)
	c.PutAt(gen, "b", []string{"b"}, 2)
	c.InvalidateEndpoint("a")
	if _, ok := c.Get("ab"); ok {
		t.Error("entry sourced from the invalidated endpoint survived")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("entry of another endpoint dropped")
	}
	c.PutAt(gen, "late", []string{"b"}, 3)
	if _, ok := c.Get("late"); ok {
		t.Error("store begun before the invalidation was retained")
	}
}

// Every lookup verifies the entry's version stamps: an enforcing fence
// rejects a stale entry and counts it as fenced; an observing one
// serves it and counts it as stale-served.
func TestCacheFencesStaleEntries(t *testing.T) {
	for _, mode := range []Mode{Enforce, Observe} {
		f, a := versionedFence(t, mode)
		c := New[bool](0, 0, f)
		c.PutAt(c.Gen(), "ask-a", []string{"a"}, true)
		c.PutAt(c.Gen(), "ask-b", []string{"b"}, true)
		a.BumpDataVersion()
		// Refresh without onChange: the stamp check alone must catch it.
		f.Refresh(context.Background())

		_, okA := c.Get("ask-a")
		_, okB := c.Get("ask-b")
		st := f.Stats()
		switch mode {
		case Enforce:
			if okA || st.Fenced != 1 || st.StaleServed != 0 {
				t.Errorf("enforce: stale served=%v, fence stats %+v", okA, st)
			}
		case Observe:
			if !okA || st.StaleServed != 1 || st.Fenced != 0 {
				t.Errorf("observe: stale served=%v, fence stats %+v", okA, st)
			}
		}
		if !okB {
			t.Errorf("mode %d: coherent entry rejected", mode)
		}
	}
}

// Do reports the stale sources of an entry an observing fence served,
// and an unusable entry is recomputed and replaced.
func TestCacheDoStaleAndUsable(t *testing.T) {
	f, a := versionedFence(t, Observe)
	c := New[string](0, 0, f)
	ctx := context.Background()
	compute := func(v string) func() (string, error) { return func() (string, error) { return v, nil } }
	if _, _, shared, _ := c.Do(ctx, "k", []string{"a", "b"}, nil, compute("partial")); shared {
		t.Fatal("first Do must compute")
	}
	a.BumpDataVersion()
	f.Refresh(ctx)
	v, stale, shared, _ := c.Do(ctx, "k", []string{"a", "b"}, nil, compute("x"))
	if v != "partial" || !shared || len(stale) != 1 || stale[0] != "a" {
		t.Errorf("observed hit = %q shared=%v stale=%v, want the entry with stale [a]", v, shared, stale)
	}
	complete := func(v string) bool { return v != "partial" }
	if v, _, shared, _ := c.Do(ctx, "k", []string{"a", "b"}, complete, compute("complete")); v != "complete" || shared {
		t.Errorf("strict caller got %q shared=%v, want its own computation", v, shared)
	}
	if v, _, shared, _ := c.Do(ctx, "k", nil, complete, compute("x")); v != "complete" || !shared {
		t.Errorf("after replacement got %q shared=%v, want the complete entry", v, shared)
	}
}

// Every method is safe on a nil cache, which stores nothing.
func TestCacheNilSafety(t *testing.T) {
	var c *Cache[int]
	c.PutAt(c.Gen(), "k", nil, 1)
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache served an entry")
	}
	v, _, shared, err := c.Do(context.Background(), "k", nil, nil, func() (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Errorf("nil Do = %d shared=%v err=%v", v, shared, err)
	}
	c.Clear()
	c.InvalidateEndpoint("a")
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil stats = %+v", st)
	}
}

// The window amortizes probes: within it, Refresh is free; past it,
// endpoints are re-probed.
func TestCoherenceWindowAmortizesProbes(t *testing.T) {
	a, b := endpoint.NewLocal("a", store.New()), endpoint.NewLocal("b", store.New())
	c := NewCoherence([]endpoint.Endpoint{a, b}, time.Minute, Enforce, nil)
	now := time.Unix(5000, 0)
	c.now = func() time.Time { return now }

	c.Refresh(context.Background())
	c.Refresh(context.Background())
	if st := c.Stats(); st.Probes != 2 {
		t.Fatalf("probes within the window = %d, want 2 (one per endpoint)", st.Probes)
	}
	now = now.Add(time.Minute)
	c.Refresh(context.Background())
	if st := c.Stats(); st.Probes != 4 {
		t.Errorf("probes after the window lapsed = %d, want 4", st.Probes)
	}
}

// BenchmarkCacheGetFenced measures a planning-cache hit verified
// against the fence's tracked versions.
func BenchmarkCacheGetFenced(b *testing.B) {
	f, _ := versionedFence(b, Enforce)
	c := New[bool](PlanningEntries, 0, f)
	key := EndpointKey("a", "?s <http://ex/p> ?o")
	c.PutAt(c.Gen(), key, []string{"a"}, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}
