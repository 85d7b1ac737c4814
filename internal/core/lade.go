package core

import (
	"context"
	"fmt"
	"strings"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// pairKey identifies an unordered pattern pair (i < j).
type pairKey struct{ i, j int }

func mkPair(i, j int) pairKey {
	if i > j {
		i, j = j, i
	}
	return pairKey{i, j}
}

// GJVReport is the outcome of Algorithm 1: the global join variables,
// the pattern pairs that must not share a subquery, and the number of
// check queries issued.
type GJVReport struct {
	// GJVs maps each global join variable to true.
	GJVs map[sparql.Var]bool
	// Conflicts holds every pattern pair straddling a GJV.
	Conflicts map[pairKey]bool
	// CheckQueries counts the SPARQL check queries sent to endpoints
	// (cache misses only).
	CheckQueries int
	// SummaryAnswers counts checks answered from the offline
	// statistics summaries instead of endpoint probes.
	SummaryAnswers int
}

// IsGJV reports whether v was detected as a global join variable.
func (r *GJVReport) IsGJV(v sparql.Var) bool { return r.GJVs[v] }

// role of a variable within a triple pattern.
type role uint8

const (
	roleSubject role = 1 << iota
	rolePredicate
	roleObject
)

func rolesOf(tp sparql.TriplePattern, v sparql.Var) role {
	var r role
	if tp.S.IsVar() && tp.S.Var == v {
		r |= roleSubject
	}
	if tp.P.IsVar() && tp.P.Var == v {
		r |= rolePredicate
	}
	if tp.O.IsVar() && tp.O.Var == v {
		r |= roleObject
	}
	return r
}

// Decomposer runs LADE: global-join-variable detection via check
// queries, followed by locality-aware decomposition.
type Decomposer struct {
	Endpoints []endpoint.Endpoint
	Handler   *federation.Handler
	// CheckCache caches check-query outcomes per endpoint (the paper
	// caches ASK and check queries alike, §VI-B).
	CheckCache *cache.Cache[bool]
	// AssumeAllGlobal disables check queries and treats every shared
	// variable as a GJV; used by the LADE ablation experiment.
	AssumeAllGlobal bool
	// Oracle, when non-nil, answers a missing-instances check from
	// precomputed statistics (see stats.Service.CheckNonEmpty): does
	// any value of v matching tpFrom at the endpoint lack a local tpTo
	// triple? ok=false falls back to the Fig. 6 probe. Consulted after
	// the check cache, before any task is enqueued; oracle verdicts
	// are not stored in the cache (the statistics service fences them
	// against data versions itself).
	Oracle func(epName string, v sparql.Var, tpFrom, tpTo sparql.TriplePattern, typ rdf.Term) (nonEmpty, ok bool)
}

// NewDecomposer builds a decomposer over the endpoints.
func NewDecomposer(eps []endpoint.Endpoint, checkCache *cache.Cache[bool]) *Decomposer {
	return &Decomposer{
		Endpoints:  eps,
		Handler:    federation.NewHandler(len(eps)),
		CheckCache: checkCache,
	}
}

// DetectGJVs implements Algorithm 1 over one conjunctive pattern list.
// sel supplies per-pattern relevant sources; typeOf maps variables to
// their rdf:type constant when the query declares one (used to narrow
// check queries, Fig. 6).
func (d *Decomposer) DetectGJVs(ctx context.Context, patterns []sparql.TriplePattern, sources [][]int, typeOf map[sparql.Var]rdf.Term) (*GJVReport, error) {
	rep := &GJVReport{GJVs: map[sparql.Var]bool{}, Conflicts: map[pairKey]bool{}}

	// Collect join entities: variables appearing in >= 2 patterns.
	occ := map[sparql.Var][]int{}
	for i, tp := range patterns {
		for _, v := range tp.Vars() {
			occ[v] = append(occ[v], i)
		}
	}

	type check struct {
		v            sparql.Var
		pair         pairKey
		tpFrom, tpTo sparql.TriplePattern
		query        string
	}
	var checks []check

	for v, idxs := range occ {
		if len(idxs) < 2 {
			continue
		}
		global := false
		// Lines 8-11: a pair with different relevant sources makes the
		// variable global with no endpoint communication.
		for a := 0; a < len(idxs) && !global; a++ {
			for b := a + 1; b < len(idxs); b++ {
				if !sameIntSlice(sources[idxs[a]], sources[idxs[b]]) {
					global = true
					break
				}
			}
		}
		if global || d.AssumeAllGlobal {
			d.markGJV(rep, v, idxs)
			continue
		}
		// Formulate check queries for every pair.
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				i, j := idxs[a], idxs[b]
				ri, rj := rolesOf(patterns[i], v), rolesOf(patterns[j], v)
				pair := mkPair(i, j)
				switch {
				case ri&roleObject != 0 && rj&roleSubject != 0:
					// v flows object(i) -> subject(j): one direction.
					checks = append(checks, check{v, pair, patterns[i], patterns[j], CheckQuery(v, patterns[i], patterns[j], typeOf[v])})
				case ri&roleSubject != 0 && rj&roleObject != 0:
					checks = append(checks, check{v, pair, patterns[j], patterns[i], CheckQuery(v, patterns[j], patterns[i], typeOf[v])})
				default:
					// Same role (or predicate role): both directions
					// must be empty (paper: Objects/Subjects Only).
					checks = append(checks, check{v, pair, patterns[i], patterns[j], CheckQuery(v, patterns[i], patterns[j], typeOf[v])})
					checks = append(checks, check{v, pair, patterns[j], patterns[i], CheckQuery(v, patterns[j], patterns[i], typeOf[v])})
				}
			}
		}
	}

	if len(checks) == 0 {
		return rep, nil
	}

	// Execute check queries at the relevant endpoints of their pairs,
	// through the elastic request handler, with caching.
	type probe struct {
		chk check
		ep  endpoint.Endpoint
	}
	// Captured before the probes launch so an invalidation racing the
	// GJV detection fences the stores below.
	cacheGen := d.CheckCache.Gen()
	var tasks []federation.Task
	var probes []probe
	flagged := map[sparql.Var]bool{}
	for _, c := range checks {
		if flagged[c.v] {
			continue
		}
		for _, ei := range sources[c.pair.i] {
			ep := d.Endpoints[ei]
			if val, ok := d.CheckCache.Get(cache.EndpointKey(ep.Name(), c.query)); ok {
				if val {
					flagged[c.v] = true
				}
				continue
			}
			if d.Oracle != nil {
				if nonEmpty, ok := d.Oracle(ep.Name(), c.v, c.tpFrom, c.tpTo, typeOf[c.v]); ok {
					rep.SummaryAnswers++
					if nonEmpty {
						flagged[c.v] = true
					}
					continue
				}
			}
			tasks = append(tasks, federation.Task{EP: ep, Query: c.query})
			probes = append(probes, probe{chk: c, ep: ep})
		}
	}
	rep.CheckQueries = len(tasks)
	// Fail fast: the GJV broadcast is all-or-nothing, so the first
	// check-query failure cancels the sibling probes. Under an active
	// degradation policy an unanswerable check conservatively flags the
	// variable global: over-flagging a GJV only splits subqueries more
	// finely, never produces wrong answers.
	dg := endpoint.DegradeFrom(ctx)
	var results []federation.TaskResult
	if dg.Active() {
		results = d.Handler.Run(ctx, tasks)
	} else {
		var err error
		results, err = d.Handler.RunFailFast(ctx, tasks)
		if err != nil {
			return nil, fmt.Errorf("lade check query: %w", err)
		}
	}
	for i, tr := range results {
		if tr.Err != nil {
			if dg.Absorb(tr.Err) {
				dg.Drop(probes[i].ep.Name(), "", "gjv-checks", tr.Err)
				flagged[probes[i].chk.v] = true
				continue
			}
			return nil, fmt.Errorf("lade check query at %s: %w", probes[i].ep.Name(), tr.Err)
		}
		nonEmpty := tr.Res.Len() > 0
		name := probes[i].ep.Name()
		d.CheckCache.PutAt(cacheGen, cache.EndpointKey(name, probes[i].chk.query), []string{name}, nonEmpty)
		if nonEmpty {
			flagged[probes[i].chk.v] = true
		}
	}
	for v := range flagged {
		d.markGJV(rep, v, occ[v])
	}
	return rep, nil
}

// markGJV records v as global and, per the paper ("once a common
// variable is found to be a GJV, the triple patterns cannot be
// combined in the same subquery even for endpoints that return an
// empty difference"), flags every pattern pair sharing v as a
// conflict.
func (d *Decomposer) markGJV(rep *GJVReport, v sparql.Var, idxs []int) {
	rep.GJVs[v] = true
	for a := 0; a < len(idxs); a++ {
		for b := a + 1; b < len(idxs); b++ {
			rep.Conflicts[mkPair(idxs[a], idxs[b])] = true
		}
	}
}

// CheckQuery builds the paper's Fig. 6 check query testing whether any
// instance of v satisfying tpFrom at an endpoint is missing locally
// from tpTo: SELECT ?v WHERE { [type] tpFrom' FILTER NOT EXISTS
// { tpTo' } } LIMIT 1. In tpFrom, constants are kept (they narrow the
// instance set); in tpTo, every position except the predicate and v is
// replaced with a fresh variable, because only local presence in the
// role matters.
func CheckQuery(v sparql.Var, tpFrom, tpTo sparql.TriplePattern, typ rdf.Term) string {
	fresh := 0
	rename := func(e sparql.Elem, keepConst bool) string {
		if e.IsVar() {
			if e.Var == v {
				return "?v"
			}
			fresh++
			return fmt.Sprintf("?x%d", fresh)
		}
		if keepConst {
			return e.Term.String()
		}
		fresh++
		return fmt.Sprintf("?x%d", fresh)
	}
	var b strings.Builder
	b.WriteString("SELECT ?v WHERE { ")
	if !typ.IsZero() {
		fmt.Fprintf(&b, "?v <%s> %s . ", rdf.RDFType, typ.String())
	}
	fmt.Fprintf(&b, "%s %s %s . ",
		rename(tpFrom.S, true), rename(tpFrom.P, true), rename(tpFrom.O, true))
	fmt.Fprintf(&b, "FILTER NOT EXISTS { %s %s %s . } ",
		rename(tpTo.S, false), rename(tpTo.P, true), rename(tpTo.O, false))
	b.WriteString("} LIMIT 1")
	return b.String()
}

// TypeConstraints extracts variables constrained by an rdf:type
// pattern with a constant class, used to narrow check queries.
func TypeConstraints(patterns []sparql.TriplePattern) map[sparql.Var]rdf.Term {
	out := map[sparql.Var]rdf.Term{}
	for _, tp := range patterns {
		if tp.S.IsVar() && !tp.P.IsVar() && tp.P.Term.Value == rdf.RDFType && !tp.O.IsVar() {
			out[tp.S.Var] = tp.O.Term
		}
	}
	return out
}
