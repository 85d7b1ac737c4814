// Package cache is the engine's one cache: a string-keyed,
// single-flight, LRU- and TTL-bounded map whose entries are stamped
// with their source endpoints' data versions and checked against the
// Coherence fence at every lookup. The ASK, LADE check, COUNT and
// subquery-result caches are all instances of Cache; the paper runs
// every system with the first three on (§VI-B).
package cache

import (
	"container/list"
	"context"
	"slices"
	"sync"
	"time"

	"lusail/internal/trace"
)

// Mode selects how the engine caches and fences reuse.
type Mode int

const (
	// Enforce (the default) caches and fences: a version change
	// invalidates the endpoint's cached state, and a stamped entry that
	// slips past invalidation (stored mid-flight) is rejected at lookup
	// and counted as Fenced.
	Enforce Mode = iota
	// Observe caches and tracks versions but never invalidates or
	// rejects: every stale entry served — planning verdict or subquery
	// result — is counted as StaleServed, and the engine also charges a
	// stale subquery result to the consuming query's Completeness (a
	// stale planning verdict is not charged). It is the chaos harness's
	// negative control and a diagnostic for how much staleness a
	// workload would see without the fence.
	Observe
	// Unfenced caches without probing versions: entries live until
	// TTL, LRU or explicit invalidation removes them.
	Unfenced
	// Off caches nothing: every query probes and evaluates afresh.
	Off
)

// PlanningEntries bounds each planning cache (ASK, check, COUNT). Their
// keys carry query constants, so without a bound every distinct
// constant a client sends would be retained for good.
const PlanningEntries = 1 << 16

// EndpointKey keys a per-endpoint planning verdict: the endpoint name
// and the probe's text.
func EndpointKey(endpoint, probe string) string { return endpoint + "\x00" + probe }

// Stats snapshots one cache's counters. Hits count successful reuse
// only; Expirations count TTL-stale entries dropped on access.
type Stats struct {
	Hits, Misses, Evictions, Expirations int64
	Entries                              int
}

// Exemplar links a cache counter to a recent traced query — the trace
// to inspect when a hit or miss rate moves.
type Exemplar struct {
	TraceID string
	At      time.Time
}

// exemplarFrom extracts the exemplar identity of the span riding ctx;
// nil for untraced or unsampled executions (their spans never reach a
// collector, so linking to them would dangle).
func exemplarFrom(ctx context.Context) *Exemplar {
	sp := trace.SpanFrom(ctx)
	if sp == nil || !sp.Sampled() || sp.TraceID().IsZero() {
		return nil
	}
	return &Exemplar{TraceID: sp.TraceID().String(), At: time.Now()}
}

// entry is one retained value. srcs are the source endpoint names the
// caller recorded at store time and stamps the data versions the fence
// tracked for them then — what lookups verify. A version
// that advances between compute start and store makes the stamp
// conservative (the entry is fenced although it may be current), never
// permissive.
type entry[V any] struct {
	key     string
	val     V
	expires time.Time // zero = never
	srcs    []string
	stamps  []Stamp
}

// call is one in-flight Do computation; waiters block on ready.
type call[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// Cache is a version-fenced cache of V values. All methods are safe
// for concurrent use and on a nil *Cache, which caches nothing.
type Cache[V any] struct {
	maxEntries int
	ttl        time.Duration
	fence      *Coherence
	now        func() time.Time
	// onWait, when non-nil, runs just before a Do call blocks on an
	// in-flight computation — a deterministic join signal for tests.
	onWait func(key string)

	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*call[V]
	// gen fences in-flight stores: Clear and InvalidateEndpoint advance
	// it, and a value computed (or probed) before that is not stored —
	// it may describe data that no longer exists.
	gen uint64

	hits, misses, evictions, expirations int64
	hitEx, missEx                        *Exemplar
}

// New returns a cache holding at most maxEntries values (0 =
// unbounded; least-recently-used entries are evicted past the bound),
// each valid for ttl (0 = forever), verified against fence at lookup
// (nil = unfenced).
func New[V any](maxEntries int, ttl time.Duration, fence *Coherence) *Cache[V] {
	return &Cache[V]{
		maxEntries: maxEntries,
		ttl:        ttl,
		fence:      fence,
		now:        time.Now,
		entries:    map[string]*list.Element{},
		lru:        list.New(),
		inflight:   map[string]*call[V]{},
	}
}

// Get returns the live value for key, counting a hit or a miss.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, _, ok = c.lookupLocked(key, nil)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Gen returns the invalidation generation. Callers capture it before
// launching the probes whose results they store through PutAt.
func (c *Cache[V]) Gen() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// PutAt stores v for key, sourced from the endpoints named in srcs,
// unless the cache was cleared or invalidated since the caller
// captured gen. There is deliberately no unfenced store.
func (c *Cache[V]) PutAt(gen uint64, key string, srcs []string, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen == c.gen {
		c.storeLocked(key, srcs, v)
	}
}

// maxWaiterRetries bounds how many failed computations a single Do
// call will wait out before surfacing the last error. Retries are only
// taken for computations that failed while we were blocked on them; a
// computation we led returns its error directly.
const maxWaiterRetries = 4

// Do returns the cached value for key, or runs compute while
// concurrent callers for the same key wait, and stores its result
// sourced from srcs. usable (nil = any) says whether this caller may
// take a given value: an unusable entry or in-flight result counts as
// a miss, and the caller's own computation replaces it. usable runs
// under the cache's lock and must not call back into it.
//
// shared reports reuse: the value is a retained entry or another
// caller's computation, and may be shared with other callers; with
// shared false it is the value this call computed. stale lists the
// entry's sources whose data changed since it was stored — non-empty
// only when an observing fence served it anyway. Failed computations
// are not stored: waiters re-enter the loop (bounded by
// maxWaiterRetries) instead of receiving another caller's error, and a
// waiter whose ctx ends stops waiting. On a nil cache Do just computes.
func (c *Cache[V]) Do(ctx context.Context, key string, srcs []string, usable func(V) bool, compute func() (V, error)) (v V, stale []string, shared bool, err error) {
	if c == nil {
		v, err = compute()
		return v, nil, false, err
	}
	ex := exemplarFrom(ctx)
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if v, stale, ok := c.lookupLocked(key, usable); ok {
			c.hitLocked(ex)
			c.mu.Unlock()
			return v, stale, true, nil
		}
		if cl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			if c.onWait != nil {
				c.onWait(key)
			}
			select {
			case <-cl.ready:
			case <-ctx.Done():
				return v, nil, false, ctx.Err()
			}
			if cl.err != nil {
				// The computation we waited on failed — possibly another
				// query's fail-fast cancelling it. Its failure is not
				// necessarily ours: retry under our own conditions.
				if attempt >= maxWaiterRetries {
					return v, nil, false, cl.err
				}
				continue
			}
			if usable == nil || usable(cl.val) {
				c.mu.Lock()
				c.hitLocked(ex)
				c.mu.Unlock()
				return cl.val, nil, true, nil
			}
			continue
		}
		c.misses++
		if ex != nil {
			c.missEx = ex
		}
		cl := &call[V]{ready: make(chan struct{})}
		c.inflight[key] = cl
		gen := c.gen
		c.mu.Unlock()

		cl.val, cl.err = compute()
		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil && gen == c.gen {
			c.storeLocked(key, srcs, cl.val)
		}
		c.mu.Unlock()
		close(cl.ready)
		return cl.val, nil, false, cl.err
	}
}

func (c *Cache[V]) hitLocked(ex *Exemplar) {
	c.hits++
	if ex != nil {
		c.hitEx = ex
	}
}

// lookupLocked finds a live entry for key: it drops an expired entry,
// refuses one the caller cannot use, and verifies the entry's version
// stamps — an enforcing fence drops a stale entry, an observing one
// serves it and reports its stale sources. Caller holds c.mu.
func (c *Cache[V]) lookupLocked(key string, usable func(V) bool) (v V, stale []string, ok bool) {
	el, ok := c.entries[key]
	if !ok {
		return v, nil, false
	}
	e := el.Value.(*entry[V])
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		c.removeLocked(el)
		c.expirations++
		return v, nil, false
	}
	if usable != nil && !usable(e.val) {
		return v, nil, false
	}
	if stale = c.fence.StaleSources(e.srcs, e.stamps); len(stale) > 0 {
		if c.fence.Enforcing() {
			c.removeLocked(el)
			c.fence.noteFenced(1)
			return v, nil, false
		}
		c.fence.noteStale(1)
	}
	c.lru.MoveToFront(el)
	return e.val, stale, true
}

// storeLocked inserts or replaces the entry for key, stamped with the
// fence's tracked versions of srcs, and evicts past the LRU bound.
// Caller holds c.mu.
func (c *Cache[V]) storeLocked(key string, srcs []string, v V) {
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	e := &entry[V]{key: key, val: v, srcs: srcs, stamps: c.fence.Stamps(srcs)}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.maxEntries > 0 && c.lru.Len() > c.maxEntries {
		c.removeLocked(c.lru.Back())
		c.evictions++
	}
}

// removeLocked drops one entry. Caller holds c.mu.
func (c *Cache[V]) removeLocked(el *list.Element) {
	c.lru.Remove(el)
	delete(c.entries, el.Value.(*entry[V]).key)
}

// Clear drops every entry. In-flight computations complete for their
// waiters but are not stored.
func (c *Cache[V]) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.lru = list.New()
	c.gen++
}

// InvalidateEndpoint drops every entry sourced from the named endpoint
// — the hook for callers that know its data changed. Entries of other
// endpoints survive; in-flight computations are not stored.
func (c *Cache[V]) InvalidateEndpoint(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.entries {
		if slices.Contains(el.Value.(*entry[V]).srcs, name) {
			c.removeLocked(el)
		}
	}
	c.gen++
}

// Stats snapshots the cache's counters.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Expirations: c.expirations,
		Entries: len(c.entries),
	}
}

// Exemplars snapshots the hit and miss exemplars: the most recent
// sampled traced Do call on each path, nil where none yet.
func (c *Cache[V]) Exemplars() (hit, miss *Exemplar) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitEx, c.missEx
}
