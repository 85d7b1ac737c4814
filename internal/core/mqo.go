package core

import (
	"context"
	"sort"
	"strings"
	"sync"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// The subquery cache shares materialized subquery results across
// queries — the multi-query optimization the paper lists among
// Lusail's supported features (§V), extended from batch-only sharing
// to a persistent cross-query tier. It is a cache.Cache[*Relation];
// the subquery policy around it lives here:
//
//   - Keys are stable: endpoint identity is the endpoint name, not its
//     position in a particular engine's endpoint list (SubqueryKey).
//   - Reads are copies: every reuse returns a Relation whose Vars,
//     Rows, and Dropped slices are private to the caller (the Binding
//     maps are shared — they are never mutated after creation).
//   - Degradation-aware: a partial relation (non-empty Dropped) is
//     only reused by callers that can absorb it by merging the drop
//     records into their own completeness report. A strict caller
//     recomputes, and its complete result replaces the partial entry.
//   - Stale reuse is charged: an entry an observing fence serves
//     despite a data change adds a drop record per stale source to the
//     consumer's completeness report.

// SubqueryKey identifies a subquery execution across engines,
// processes, and endpoint orderings: the canonicalized subquery text
// plus the sorted stable identities (names) of its source endpoints,
// which it also returns for stamping the cache entry. Positional
// indexes are NOT a stable identity — index 0 of one federation is a
// different endpoint than index 0 of another, so a cache that outlives
// one engine's endpoint list must key on names.
func SubqueryKey(sq *Subquery, eps []endpoint.Endpoint) (key string, srcs []string) {
	srcs = make([]string, len(sq.Sources))
	for i, ei := range sq.Sources {
		srcs[i] = eps[ei].Name()
	}
	sort.Strings(srcs)
	return sq.Query().String() + "\x00@" + strings.Join(srcs, "\x1f"), srcs
}

// reuseSubquery runs compute through the subquery cache c (nil: just
// computes) under the policy above. canPartial declares whether this
// caller can absorb a partial relation; shared reports reuse.
func reuseSubquery(ctx context.Context, c *cache.Cache[*Relation], key string, srcs []string, canPartial bool, compute func() (*Relation, error)) (*Relation, bool, error) {
	var usable func(*Relation) bool
	if !canPartial {
		usable = func(rel *Relation) bool { return len(rel.Dropped) == 0 }
	}
	rel, stale, shared, err := c.Do(ctx, key, srcs, usable, compute)
	if err != nil || c == nil {
		return rel, shared, err
	}
	// A computed relation is the stored entry too, so even the leader
	// takes a copy.
	return staleCharged(snapshotRelation(rel), stale), shared, nil
}

// snapshotRelation returns a defensive copy of rel: fresh Vars, Rows,
// and Dropped slices over the shared (immutable) Binding maps. Callers
// may sort, truncate, or re-stamp the copy freely.
func snapshotRelation(rel *Relation) *Relation {
	return &Relation{
		Vars:       append([]sparql.Var(nil), rel.Vars...),
		Rows:       append([]sparql.Binding(nil), rel.Rows...),
		Partitions: rel.Partitions,
		Dropped:    append([]sparql.Dropped(nil), rel.Dropped...),
	}
}

// staleCharged re-charges a stale-but-served entry (observing fence)
// to the consuming query's completeness report: one drop record per
// stale source endpoint, appended to the caller's private copy so the
// stored entry is untouched. No-op for coherent reuse.
func staleCharged(rel *Relation, staleEps []string) *Relation {
	for _, name := range staleEps {
		rel.Dropped = append(rel.Dropped, sparql.Dropped{
			Endpoint: name,
			Phase:    "cache",
			Reason:   "stale cached result served (data version changed, fence observing)",
		})
	}
	return rel
}

// BatchResult pairs one batch query with its outcome.
type BatchResult struct {
	Query   string
	Results *sparql.Results
	Err     error
	// Metrics is the query's own execution profile. Per-call metrics
	// (not the shared LastMetrics slot) are the only accurate
	// attribution under batch concurrency.
	Metrics Metrics
}

// ExecuteBatch runs a workload of queries with multi-query
// optimization: all queries share the ASK/check/COUNT caches and a
// subquery-result cache, and run concurrently up to the federation's
// parallelism. Results are returned in input order. With a persistent
// subquery cache configured (Config.SubqueryCacheSize), the batch
// shares it — results carry over to later batches and queries;
// otherwise the cache is scoped to this call (under every Caching
// mode: sharing within one batch is not cross-query reuse). After the
// call, LastMetrics().SharedSubqueries is the batch's total.
func (l *Lusail) ExecuteBatch(ctx context.Context, queries []string) []BatchResult {
	sqCache := l.sqCache
	if sqCache == nil {
		sqCache = cache.New[*Relation](0, 0, l.coherence)
	}
	out := make([]BatchResult, len(queries))
	sem := make(chan struct{}, len(l.eps)+2)
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q string) {
			defer wg.Done()
			defer func() { <-sem }()
			res, m, err := l.execute(ctx, q, sqCache, nil)
			out[i] = BatchResult{Query: q, Results: res, Err: err, Metrics: m}
		}(i, q)
	}
	wg.Wait()
	shared := 0
	for _, br := range out {
		shared += br.Metrics.SharedSubqueries
	}
	l.mu.Lock()
	l.last.SharedSubqueries = shared
	l.mu.Unlock()
	return out
}
