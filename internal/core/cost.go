package core

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/sparql"
)

// DelayPolicy selects the threshold above which a subquery is delayed
// (Fig. 9 sweeps these policies; the paper adopts MuSigma).
type DelayPolicy int

const (
	// DelayMuSigma delays subqueries above mean + one stddev (the
	// paper's default).
	DelayMuSigma DelayPolicy = iota
	// DelayMu delays subqueries above the mean.
	DelayMu
	// DelayMu2Sigma delays subqueries above mean + two stddevs.
	DelayMu2Sigma
	// DelayOutliersOnly delays only Chauvenet-rejected outliers.
	DelayOutliersOnly
	// DelayNone disables delaying entirely (SAPE ablation: fully
	// concurrent execution).
	DelayNone
	// DelayAll delays every subquery but the most selective one (SAPE
	// ablation: fully sequential bound execution).
	DelayAll
)

// String names the policy for reports.
func (p DelayPolicy) String() string {
	switch p {
	case DelayMu:
		return "mu"
	case DelayMuSigma:
		return "mu+sigma"
	case DelayMu2Sigma:
		return "mu+2sigma"
	case DelayOutliersOnly:
		return "outliers"
	case DelayNone:
		return "none"
	case DelayAll:
		return "all"
	default:
		return "unknown"
	}
}

// CostModel estimates subquery cardinalities from lightweight COUNT
// statistics queries (§V-A). When the optional statistics hooks are
// wired (internal/stats via core.Config.Statistics), precomputed
// per-endpoint summaries answer pattern cardinalities without any
// remote probe; COUNT queries remain the fallback for anything the
// summary cannot answer (filtered patterns, missing or fenced
// summaries).
type CostModel struct {
	Endpoints []endpoint.Endpoint
	Handler   *federation.Handler
	// Cache holds per-endpoint pattern cardinalities across queries,
	// keyed by endpoint and COUNT text, mirroring the statistics RDF
	// engines keep (§V-A).
	Cache *cache.Cache[float64]

	// PatternCard, when non-nil, answers the cardinality of an
	// unfiltered triple pattern at endpoint ei from a precomputed
	// statistics summary. ok=false falls back to a COUNT probe.
	PatternCard func(ei int, tp sparql.TriplePattern) (float64, bool)
	// PairCard, when non-nil, answers the number of distinct values of
	// v joining patterns a and b at endpoint ei (a predicate-pair join
	// summary lookup). It refines the per-endpoint min below what
	// single-pattern counts can see.
	PairCard func(ei int, v sparql.Var, a, b sparql.TriplePattern) (float64, bool)
	// Calibration, when non-nil, returns the learned q-error
	// correction factor for (endpoint ei, tp's predicate); 1 means
	// uncalibrated. Factors from every (source, pattern) of a subquery
	// are combined geometrically and rescale its estimate.
	Calibration func(ei int, tp sparql.TriplePattern) float64
}

// NewCostModel builds a cost model over the endpoints.
func NewCostModel(eps []endpoint.Endpoint, c *cache.Cache[float64]) *CostModel {
	return &CostModel{Endpoints: eps, Handler: federation.NewHandler(len(eps)), Cache: c}
}

// countVar is the projection variable every COUNT probe declares; the
// result parser selects it explicitly rather than trusting column
// order.
const countVar sparql.Var = "c"

// CountQuery renders the statistics query for one pattern, pushing any
// filters that mention only the pattern's variables.
func CountQuery(tp sparql.TriplePattern, filters []sparql.Expr) string {
	cq, _ := countQueryFor(tp, filters)
	return cq
}

// countQueryFor renders the COUNT probe for one pattern and reports
// whether any filter was pushed into it — a filtered probe cannot be
// answered from a statistics summary, which knows nothing about filter
// selectivity.
func countQueryFor(tp sparql.TriplePattern, filters []sparql.Expr) (string, bool) {
	q := sparql.NewSelect()
	q.Count = true
	q.CountVar = countVar
	q.Where = &sparql.GroupGraphPattern{Patterns: []sparql.TriplePattern{tp}}
	for _, f := range filters {
		ok := true
		for _, v := range f.Vars() {
			if !tp.HasVar(v) {
				ok = false
				break
			}
		}
		if ok {
			if _, isExists := f.(*sparql.ExistsExpr); !isExists {
				q.Where.Filters = append(q.Where.Filters, f)
			}
		}
	}
	return q.String(), len(q.Where.Filters) > 0
}

// countProbe identifies one (count query, endpoint) probe.
type countProbe struct {
	query string
	ep    int
}

// pessimisticCard pushes an unprobeable pattern toward "delayed",
// where bound execution naturally limits its cost.
const pessimisticCard = 1e6

// EstimateStats reports how an estimation pass resolved its
// (pattern, endpoint) cardinalities.
type EstimateStats struct {
	// Probes is the number of COUNT requests sent to endpoints (cache
	// misses the statistics summary could not answer).
	Probes int
	// SummaryHits is the number of cardinalities answered locally from
	// a precomputed statistics summary.
	SummaryHits int
}

// EstimateCards fills EstCard on every subquery:
//
//	C(sq, v, ep) = min over patterns containing v of C(TP, ep)
//	C(sq, v)     = sum over relevant ep of C(sq, v, ep)
//	C(sq)        = max over projected v of C(sq, v)
//
// Cardinalities resolve, in order: count cache, statistics summary
// (unfiltered patterns only), remote COUNT probe. It returns how the
// pass resolved.
func (cm *CostModel) EstimateCards(ctx context.Context, sqs []*Subquery) (EstimateStats, error) {
	// Gather the distinct (pattern, endpoint) COUNT probes.
	var est EstimateStats
	counts := map[countProbe]float64{}
	// Captured before the probes launch so an invalidation racing the
	// estimation fences the stores below.
	cacheGen := cm.Cache.Gen()
	var tasks []federation.Task
	var order []countProbe
	for _, sq := range sqs {
		for _, tp := range sq.Patterns {
			cq, filtered := countQueryFor(tp, sq.Filters)
			for _, ei := range sq.Sources {
				key := countProbe{cq, ei}
				if _, seen := counts[key]; seen {
					continue
				}
				if v, ok := cm.Cache.Get(cache.EndpointKey(cm.Endpoints[ei].Name(), cq)); ok {
					counts[key] = v
					continue
				}
				// The summary knows nothing about filter selectivity,
				// so filtered probes always go remote. Summary answers
				// are not copied into the count cache: the statistics
				// service fences them against data versions itself.
				if !filtered && cm.PatternCard != nil {
					if v, ok := cm.PatternCard(ei, tp); ok {
						counts[key] = v
						est.SummaryHits++
						continue
					}
				}
				counts[key] = -1 // placeholder: needs a remote probe
				tasks = append(tasks, federation.Task{EP: cm.Endpoints[ei], Query: cq})
				order = append(order, key)
			}
		}
	}
	est.Probes = len(tasks)
	// Fail fast: one failed COUNT probe aborts estimation, so sibling
	// probes are cancelled rather than run to completion. Under an
	// active degradation policy a failed probe instead falls back to a
	// pessimistic cardinality — a wrong estimate only affects which
	// subqueries are delayed, never answer correctness.
	dg := endpoint.DegradeFrom(ctx)
	var results []federation.TaskResult
	if dg.Active() {
		results = cm.Handler.Run(ctx, tasks)
	} else {
		var ferr error
		results, ferr = cm.Handler.RunFailFast(ctx, tasks)
		if ferr != nil {
			return est, fmt.Errorf("count query: %w", ferr)
		}
	}
	if err := cm.applyCountResults(results, order, counts, dg, cacheGen); err != nil {
		return est, err
	}

	for _, sq := range sqs {
		sq.EstCard = cm.subqueryCard(sq, func(tp sparql.TriplePattern, ei int) float64 {
			return counts[countProbe{CountQuery(tp, sq.Filters), ei}]
		}) * cm.calibration(sq)
	}
	return est, nil
}

// applyCountResults copies probe results into counts, fencing cache
// stores on cacheGen. The results/order alignment is guarded: a
// handler that returns fewer results than tasks (a silently dropped
// probe) must not leave the -1 placeholder behind as a real
// cardinality, so every probe still unresolved afterwards is treated
// like a failed one and becomes pessimistic.
func (cm *CostModel) applyCountResults(results []federation.TaskResult, order []countProbe, counts map[countProbe]float64, dg *endpoint.Degrade, cacheGen uint64) error {
	for i, tr := range results {
		if i >= len(order) {
			break
		}
		if tr.Err != nil {
			if dg.Absorb(tr.Err) {
				dg.Drop(tr.Task.EP.Name(), "", "count-estimation", tr.Err)
				counts[order[i]] = pessimisticCard
				continue
			}
			return fmt.Errorf("count query: %w", tr.Err)
		}
		v, err := countValue(tr.Res, countVar)
		if err != nil {
			if dg.Absorb(err) {
				dg.Drop(tr.Task.EP.Name(), "", "count-estimation", err)
				counts[order[i]] = pessimisticCard
				continue
			}
			return err
		}
		counts[order[i]] = v
		name := cm.Endpoints[order[i].ep].Name()
		cm.Cache.PutAt(cacheGen, cache.EndpointKey(name, order[i].query), []string{name}, v)
	}
	for key, v := range counts {
		if v < 0 {
			counts[key] = pessimisticCard
		}
	}
	return nil
}

// countValue extracts the declared count column from a probe result.
// The row may carry extra columns (an endpoint echoing projected
// variables alongside the aggregate), so the lookup is by name — never
// by whichever column map iteration yields first.
func countValue(res *sparql.Results, v sparql.Var) (float64, error) {
	if res.Len() != 1 {
		return 0, fmt.Errorf("count query returned %d rows", res.Len())
	}
	t, ok := res.Rows[0][v]
	if !ok {
		return 0, fmt.Errorf("count query result is missing the ?%s column", v)
	}
	n, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, fmt.Errorf("bad count literal %q", t.Value)
	}
	return n, nil
}

// calibration combines the learned per-(endpoint, predicate)
// correction factors touched by sq into one geometric-mean rescale.
func (cm *CostModel) calibration(sq *Subquery) float64 {
	if cm.Calibration == nil {
		return 1
	}
	var logSum float64
	n := 0
	for _, ei := range sq.Sources {
		for _, tp := range sq.Patterns {
			if f := cm.Calibration(ei, tp); f > 0 {
				logSum += math.Log(f)
				n++
			}
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

func (cm *CostModel) subqueryCard(sq *Subquery, count func(sparql.TriplePattern, int) float64) float64 {
	if len(sq.Patterns) == 0 || len(sq.Sources) == 0 {
		return 0
	}
	vars := sq.ProjVars
	if len(vars) == 0 {
		vars = sq.Vars()
	}
	best := 0.0
	for _, v := range vars {
		var total float64
		for _, ei := range sq.Sources {
			perEP := math.Inf(1)
			saw := false
			for _, tp := range sq.Patterns {
				if !tp.HasVar(v) {
					continue
				}
				saw = true
				if c := count(tp, ei); c < perEP {
					perEP = c
				}
			}
			if saw {
				if c, ok := cm.pairMin(sq, v, ei); ok && c < perEP {
					perEP = c
				}
				total += perEP
			}
		}
		if total > best {
			best = total
		}
	}
	return best
}

// pairMin tightens the per-endpoint cardinality of v below the
// single-pattern minimum using predicate-pair join summaries: the
// number of distinct v values satisfying two patterns jointly is never
// larger than either pattern's count alone.
func (cm *CostModel) pairMin(sq *Subquery, v sparql.Var, ei int) (float64, bool) {
	if cm.PairCard == nil {
		return 0, false
	}
	min := math.Inf(1)
	found := false
	for i, a := range sq.Patterns {
		if !a.HasVar(v) {
			continue
		}
		for _, b := range sq.Patterns[i+1:] {
			if !b.HasVar(v) {
				continue
			}
			if c, ok := cm.PairCard(ei, v, a, b); ok {
				found = true
				if c < min {
					min = c
				}
			}
		}
	}
	return min, found
}

// Chauvenet applies Chauvenet's criterion once: a point is rejected
// when the expected number of samples as extreme as it is falls below
// 1/2. It returns the kept values and the rejected indexes.
func Chauvenet(xs []float64) (kept []float64, rejected []int) {
	n := float64(len(xs))
	if len(xs) < 3 {
		return append([]float64(nil), xs...), nil
	}
	mu, sigma := meanStd(xs)
	if sigma == 0 {
		return append([]float64(nil), xs...), nil
	}
	for i, x := range xs {
		p := math.Erfc(math.Abs(x-mu) / (sigma * math.Sqrt2))
		if n*p < 0.5 {
			rejected = append(rejected, i)
		} else {
			kept = append(kept, x)
		}
	}
	return kept, rejected
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func meanStd(xs []float64) (mu, sigma float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mu += x
	}
	mu /= float64(len(xs))
	for _, x := range xs {
		sigma += (x - mu) * (x - mu)
	}
	sigma = math.Sqrt(sigma / float64(len(xs)))
	return mu, sigma
}

// MarkDelayed sets Delayed on each subquery according to the policy:
// Chauvenet-filtered mean/stddev thresholds over both estimated
// cardinality and number of relevant endpoints (§V-A). OPTIONAL
// subqueries are always delayed (they are the paper's third class of
// delay candidates). At least one subquery always stays non-delayed.
func MarkDelayed(sqs []*Subquery, policy DelayPolicy) {
	// OPTIONAL subqueries are always delayed; the statistics below are
	// computed over the required subqueries only so that optionals do
	// not skew the thresholds.
	var req []*Subquery
	for _, sq := range sqs {
		sq.Delayed = sq.Optional
		if !sq.Optional {
			req = append(req, sq)
		}
	}
	if len(req) <= 1 {
		return
	}
	cards := make([]float64, len(req))
	srcs := make([]float64, len(req))
	for i, sq := range req {
		cards[i] = sq.EstCard
		srcs[i] = float64(len(sq.Sources))
	}

	switch policy {
	case DelayNone:
		return
	case DelayAll:
		minIdx := 0
		for i, sq := range req {
			if sq.EstCard < req[minIdx].EstCard {
				minIdx = i
			}
		}
		for i, sq := range req {
			sq.Delayed = i != minIdx
		}
		return
	case DelayOutliersOnly:
		_, rejC := Chauvenet(cards)
		_, rejE := Chauvenet(srcs)
		for _, i := range rejC {
			req[i].Delayed = true
		}
		for _, i := range rejE {
			req[i].Delayed = true
		}
	default:
		k := 1.0
		if policy == DelayMu {
			k = 0
		} else if policy == DelayMu2Sigma {
			k = 2
		}
		keptC, _ := Chauvenet(cards)
		keptE, _ := Chauvenet(srcs)
		muC, sigC := meanStd(keptC)
		muE, sigE := meanStd(keptE)
		// The comparison is >= with a strict >min guard: with only two
		// subqueries mu+sigma equals the maximum, so a strict > could
		// never delay anything (e.g. LUBM Q3's generic type subquery,
		// which the paper delays); the >min guard keeps uniform
		// workloads fully concurrent.
		minC, minE := minOf(cards), minOf(srcs)
		for i, sq := range req {
			sq.Delayed = (cards[i] >= muC+k*sigC && cards[i] > minC) ||
				(srcs[i] >= muE+k*sigE && srcs[i] > minE)
		}
	}
	// Guarantee progress: at least one required subquery stays live to
	// supply the first bindings.
	for _, sq := range req {
		if !sq.Delayed {
			return
		}
	}
	minIdx := 0
	for i, sq := range req {
		if sq.EstCard < req[minIdx].EstCard {
			minIdx = i
		}
	}
	req[minIdx].Delayed = false
}
