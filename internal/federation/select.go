package federation

import (
	"context"
	"fmt"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// PatternSig is the cache key for a triple pattern's source-selection
// result: constants verbatim, variables normalized, so that two
// queries sharing a pattern shape share cache entries (FedX-style).
func PatternSig(tp sparql.TriplePattern) string {
	el := func(e sparql.Elem) string {
		if e.IsVar() {
			return "?"
		}
		return e.Term.String()
	}
	return el(tp.S) + " " + el(tp.P) + " " + el(tp.O)
}

// AskQueryFor builds the ASK query that tests whether tp has any
// solution, with variables canonicalized.
func AskQueryFor(tp sparql.TriplePattern) string {
	names := []string{"s", "p", "o"}
	// Repeated variables must stay identical in the ASK.
	seen := map[sparql.Var]string{}
	idx := 0
	elv := func(e sparql.Elem) string {
		if !e.IsVar() {
			return e.Term.String()
		}
		if n, ok := seen[e.Var]; ok {
			return n
		}
		n := "?" + names[idx]
		idx++
		seen[e.Var] = n
		return n
	}
	return fmt.Sprintf("ASK { %s %s %s }", elv(tp.S), elv(tp.P), elv(tp.O))
}

// Selection maps each triple pattern (by index into the pattern list)
// to the endpoints that can answer it.
type Selection struct {
	Patterns []sparql.TriplePattern
	// Sources[i] lists indexes into Endpoints for pattern i.
	Sources   [][]int
	Endpoints []endpoint.Endpoint
	// AskRequests counts the ASK queries actually sent (cache misses).
	AskRequests int
	// SummaryAnswers counts relevance verdicts answered from offline
	// statistics summaries instead of ASK probes.
	SummaryAnswers int
}

// SourceSet returns the endpoint-index set for pattern i.
func (s *Selection) SourceSet(i int) map[int]bool {
	out := make(map[int]bool, len(s.Sources[i]))
	for _, e := range s.Sources[i] {
		out[e] = true
	}
	return out
}

// SameSources reports whether patterns i and j have identical source
// lists.
func (s *Selection) SameSources(i, j int) bool {
	a, b := s.Sources[i], s.Sources[j]
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// Selector performs ASK-based source selection over a fixed endpoint
// list with a shared cache of ASK verdicts, shared across queries like
// the caches the paper enables for all systems in §VI-B.
type Selector struct {
	Endpoints []endpoint.Endpoint
	Cache     *cache.Cache[bool]
	Handler   *Handler
	// Presence, when non-nil, answers pattern relevance from offline
	// statistics summaries. ok=false falls back to an ASK probe.
	// Consulted after the ASK cache; summary verdicts are not stored
	// in the cache (the statistics service fences them against data
	// versions itself) and do not count as AskRequests.
	Presence func(epName string, tp sparql.TriplePattern) (relevant, ok bool)
}

// NewSelector builds a selector. cache may be nil to disable caching.
func NewSelector(eps []endpoint.Endpoint, c *cache.Cache[bool]) *Selector {
	return &Selector{Endpoints: eps, Cache: c, Handler: NewHandler(len(eps))}
}

// Select determines the relevant endpoints for every pattern of the
// query by sending ASK queries (one per pattern per endpoint, cache
// permitting).
func (s *Selector) Select(ctx context.Context, q *sparql.Query) (*Selection, error) {
	return s.SelectPatterns(ctx, PatternsOf(q.Where))
}

// SelectPatterns runs source selection for an explicit pattern list.
func (s *Selector) SelectPatterns(ctx context.Context, patterns []sparql.TriplePattern) (*Selection, error) {
	sel := &Selection{
		Patterns:  patterns,
		Sources:   make([][]int, len(patterns)),
		Endpoints: s.Endpoints,
	}

	type probe struct {
		pattern int
		ep      int
	}
	// Capture the cache generation before launching probes: an
	// invalidation racing this selection fences the stores below.
	cacheGen := s.Cache.Gen()
	var tasks []Task
	var probes []probe
	for pi, tp := range patterns {
		sig := PatternSig(tp)
		for ei, ep := range s.Endpoints {
			if val, ok := s.Cache.Get(cache.EndpointKey(ep.Name(), sig)); ok {
				if val {
					sel.Sources[pi] = append(sel.Sources[pi], ei)
				}
				continue
			}
			if s.Presence != nil {
				if relevant, ok := s.Presence(ep.Name(), tp); ok {
					sel.SummaryAnswers++
					if relevant {
						sel.Sources[pi] = append(sel.Sources[pi], ei)
					}
					continue
				}
			}
			tasks = append(tasks, Task{EP: ep, Query: AskQueryFor(tp)})
			probes = append(probes, probe{pattern: pi, ep: ei})
		}
	}
	sel.AskRequests = len(tasks)
	// Fail fast: the first ASK failure aborts the whole selection, so
	// sibling probes are cancelled instead of run to completion. Under
	// an active degradation policy the probes instead run to completion
	// and a failed ASK drops that endpoint for the pattern: later
	// phases never target it, so the result is exactly the answer set
	// derivable from the surviving endpoints.
	dg := endpoint.DegradeFrom(ctx)
	var results []TaskResult
	if dg.Active() {
		results = s.Handler.Run(ctx, tasks)
	} else {
		var err error
		results, err = s.Handler.RunFailFast(ctx, tasks)
		if err != nil {
			return nil, fmt.Errorf("source selection: %w", err)
		}
	}
	for i, tr := range results {
		pr := probes[i]
		if tr.Err != nil {
			if dg.Absorb(tr.Err) {
				// Treat the endpoint as not relevant for this pattern,
				// but do not cache the verdict: it reflects a fault, not
				// the endpoint's data.
				dg.Drop(tr.Task.EP.Name(), "", "source-selection", tr.Err)
				continue
			}
			return nil, fmt.Errorf("source selection at %s: %w", tr.Task.EP.Name(), tr.Err)
		}
		val := tr.Res.Ask
		name := s.Endpoints[pr.ep].Name()
		s.Cache.PutAt(cacheGen, cache.EndpointKey(name, PatternSig(patterns[pr.pattern])), []string{name}, val)
		if val {
			sel.Sources[pr.pattern] = append(sel.Sources[pr.pattern], pr.ep)
		}
	}
	// Keep source lists sorted for deterministic SameSources checks.
	for i := range sel.Sources {
		sortInts(sel.Sources[i])
	}
	return sel, nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
