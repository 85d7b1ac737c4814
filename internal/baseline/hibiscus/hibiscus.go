// Package hibiscus reimplements HiBISCuS (Saleem & Ngonga Ngomo,
// ESWC 2014): hypergraph/authority-based source pruning layered on top
// of a FedX-style executor. A precomputed summary records, per
// endpoint and predicate, the IRI authorities occurring in subject and
// object position; during source selection, a source is pruned for a
// triple pattern when its authorities cannot join with the authorities
// any other pattern sharing a variable can produce.
package hibiscus

import (
	"context"
	"fmt"
	"time"

	"lusail/internal/baseline/fedx"
	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Summary is the precomputed per-endpoint capability index.
type Summary struct {
	// SubjAuth[e][pred] is the set of subject authorities of pred at
	// endpoint e; ObjAuth likewise for objects.
	SubjAuth  []map[string]map[string]struct{}
	ObjAuth   []map[string]map[string]struct{}
	BuildTime time.Duration
}

// BuildSummary scans every endpoint's data, as HiBISCuS's offline
// indexing phase does.
func BuildSummary(eps []endpoint.Endpoint) (*Summary, error) {
	start := time.Now()
	s := &Summary{
		SubjAuth: make([]map[string]map[string]struct{}, len(eps)),
		ObjAuth:  make([]map[string]map[string]struct{}, len(eps)),
	}
	for i, ep := range eps {
		local, ok := ep.(interface{ Store() *store.Store })
		if !ok {
			return nil, fmt.Errorf("hibiscus: endpoint %s does not expose data for summarization", ep.Name())
		}
		st := local.Store()
		s.SubjAuth[i] = map[string]map[string]struct{}{}
		s.ObjAuth[i] = map[string]map[string]struct{}{}
		for _, p := range st.Predicates() {
			s.SubjAuth[i][p.Value] = st.Authorities(p, false)
			s.ObjAuth[i][p.Value] = st.Authorities(p, true)
		}
	}
	s.BuildTime = time.Since(start)
	return s, nil
}

// Selector implements fedx.SourceSelector: ASK-based selection
// followed by authority-based join-aware pruning.
type Selector struct {
	eps     []endpoint.Endpoint
	base    *federation.Selector
	summary *Summary
}

// NewSelector wraps the default ASK selector with summary pruning.
func NewSelector(eps []endpoint.Endpoint, summary *Summary) *Selector {
	return &Selector{
		eps:     eps,
		base:    federation.NewSelector(eps, cache.New[bool](cache.PlanningEntries, 0, nil)),
		summary: summary,
	}
}

// SelectPatterns selects candidate sources per pattern and prunes
// those whose authority sets cannot contribute to any join.
func (s *Selector) SelectPatterns(ctx context.Context, patterns []sparql.TriplePattern) (*federation.Selection, error) {
	sel, err := s.base.SelectPatterns(ctx, patterns)
	if err != nil {
		return nil, err
	}
	// For each join variable, gather per (pattern, source) the
	// authority set the variable's position can produce, then prune
	// sources whose set is disjoint from the union of every other
	// pattern's sets.
	occ := map[sparql.Var][]varUse{}
	for pi, tp := range patterns {
		if tp.S.IsVar() {
			occ[tp.S.Var] = append(occ[tp.S.Var], varUse{pattern: pi, subject: true})
		}
		if tp.O.IsVar() {
			occ[tp.O.Var] = append(occ[tp.O.Var], varUse{pattern: pi, subject: false})
		}
	}
	for _, uses := range occ {
		if len(uses) < 2 {
			continue
		}
		s.pruneVar(patterns, sel, uses)
	}
	return sel, nil
}

type varUse struct {
	pattern int
	subject bool
}

func (s *Selector) pruneVar(patterns []sparql.TriplePattern, sel *federation.Selection, uses []varUse) {
	// auths[i][src] is the authority set for use i at source src; nil
	// means "unknown" (variable predicate or literal-heavy position),
	// which never prunes.
	auths := make([]map[int]map[string]struct{}, len(uses))
	for i, u := range uses {
		tp := patterns[u.pattern]
		if tp.P.IsVar() {
			continue
		}
		auths[i] = map[int]map[string]struct{}{}
		for _, src := range sel.Sources[u.pattern] {
			var set map[string]struct{}
			if u.subject {
				set = s.summary.SubjAuth[src][tp.P.Term.Value]
			} else {
				set = s.summary.ObjAuth[src][tp.P.Term.Value]
			}
			auths[i][src] = set
		}
	}
	for i, u := range uses {
		if auths[i] == nil {
			continue
		}
		// The union of what all other uses can produce.
		others := map[string]struct{}{}
		known := true
		for j := range uses {
			if j == i {
				continue
			}
			if auths[j] == nil {
				known = false
				break
			}
			for _, set := range auths[j] {
				for a := range set {
					others[a] = struct{}{}
				}
			}
		}
		if !known {
			continue
		}
		var kept []int
		for _, src := range sel.Sources[u.pattern] {
			set := auths[i][src]
			if intersects(set, others) {
				kept = append(kept, src)
			}
		}
		// Object positions dominated by literals produce empty
		// authority sets; never prune a source down to nothing on that
		// evidence alone.
		if len(kept) > 0 {
			sel.Sources[u.pattern] = kept
		}
	}
}

func intersects(a map[string]struct{}, b map[string]struct{}) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	for x := range a {
		if _, ok := b[x]; ok {
			return true
		}
	}
	return false
}

// New builds the complete HiBISCuS engine: the FedX executor with the
// summary-pruned selector.
func New(eps []endpoint.Endpoint, summary *Summary, cfg fedx.Config) *Engine {
	f := fedx.New(eps, cfg)
	f.SetSelector(NewSelector(eps, summary))
	return &Engine{inner: f}
}

// Engine wraps FedX under the HiBISCuS name.
type Engine struct {
	inner *fedx.FedX
}

// Name implements federation.Engine.
func (e *Engine) Name() string { return "hibiscus" }

// Execute implements federation.Engine.
func (e *Engine) Execute(ctx context.Context, query string) (*sparql.Results, error) {
	return e.inner.Execute(ctx, query)
}
