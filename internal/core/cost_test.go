package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

func TestChauvenet(t *testing.T) {
	// One extreme outlier among uniform samples is rejected.
	xs := []float64{10, 11, 9, 10, 12, 10, 11, 1e6}
	kept, rejected := Chauvenet(xs)
	if len(rejected) != 1 || rejected[0] != 7 {
		t.Errorf("rejected = %v, want [7]", rejected)
	}
	if len(kept) != 7 {
		t.Errorf("kept = %d values", len(kept))
	}
	// Homogeneous data rejects nothing.
	if _, rej := Chauvenet([]float64{5, 5, 5, 5}); len(rej) != 0 {
		t.Errorf("uniform data rejected %v", rej)
	}
	// Too few samples: no rejection.
	if _, rej := Chauvenet([]float64{1, 1e9}); len(rej) != 0 {
		t.Errorf("two samples rejected %v", rej)
	}
}

func TestMeanStd(t *testing.T) {
	mu, sigma := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mu != 5 {
		t.Errorf("mu = %v", mu)
	}
	if math.Abs(sigma-2) > 1e-9 {
		t.Errorf("sigma = %v", sigma)
	}
	mu, sigma = meanStd(nil)
	if mu != 0 || sigma != 0 {
		t.Error("empty input should give zeros")
	}
}

func TestCountQueryPushesFilters(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/age> ?a .
		?s <http://ex/name> ?n .
		FILTER (?a > 10)
		FILTER (?n != "x")
	}`)
	cq := CountQuery(q.Where.Patterns[0], q.Where.Filters)
	if !strings.Contains(cq, "COUNT") {
		t.Errorf("count query missing COUNT: %s", cq)
	}
	if !strings.Contains(cq, "?a > ") {
		t.Errorf("single-variable filter on ?a should be pushed: %s", cq)
	}
	if strings.Contains(cq, `"x"`) {
		t.Errorf("filter on ?n must not be pushed into the ?a pattern: %s", cq)
	}
	if _, err := sparql.Parse(cq); err != nil {
		t.Errorf("count query does not parse: %v\n%s", err, cq)
	}
}

func TestEstimateCards(t *testing.T) {
	eps := uniEndpoints()
	cm := NewCostModel(eps, cache.New[float64](cache.PlanningEntries, 0, nil))
	q := sparql.MustParse(testfed.QaChain)
	// Subqueries mirroring the chain decomposition.
	sq1 := &Subquery{Patterns: q.Where.Patterns[0:2], Sources: []int{0, 1}, OptionalGroup: -1}
	sq2 := &Subquery{Patterns: q.Where.Patterns[2:3], Sources: []int{0, 1}, OptionalGroup: -1}
	sq3 := &Subquery{Patterns: q.Where.Patterns[3:4], Sources: []int{0, 1}, OptionalGroup: -1}
	sqs := []*Subquery{sq1, sq2, sq3}
	ComputeProjections(sqs, []sparql.Var{"S", "A"})
	est, err := cm.EstimateCards(context.Background(), sqs)
	if err != nil {
		t.Fatal(err)
	}
	if est.Probes == 0 {
		t.Error("expected COUNT probes on a cold cache")
	}
	// advisor: EP1 has 2, EP2 has 2 => C(sq1,P) = 2+2 = 4 (min over
	// patterns containing P is just advisor's count).
	if sq1.EstCard != 4 {
		t.Errorf("sq1 card = %v, want 4", sq1.EstCard)
	}
	// PhDDegreeFrom: EP1 2, EP2 2 => 4.
	if sq2.EstCard != 4 {
		t.Errorf("sq2 card = %v, want 4", sq2.EstCard)
	}
	// address: EP1 1, EP2 1 => 2.
	if sq3.EstCard != 2 {
		t.Errorf("sq3 card = %v, want 2", sq3.EstCard)
	}
	// Second run: fully cached.
	est2, err := cm.EstimateCards(context.Background(), sqs)
	if err != nil {
		t.Fatal(err)
	}
	if est2.Probes != 0 {
		t.Errorf("cached run sent %d probes", est2.Probes)
	}
}

func TestEstimateCardsMinOverPatterns(t *testing.T) {
	// C(sq, v, ep) must be the min across patterns sharing v.
	eps := uniEndpoints()
	cm := NewCostModel(eps, cache.New[float64](cache.PlanningEntries, 0, nil))
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?s a <http://ex/GraduateStudent> .
	}`)
	sq := &Subquery{Patterns: q.Where.Patterns, Sources: []int{0, 1}, OptionalGroup: -1, ProjVars: []sparql.Var{"s"}}
	if _, err := cm.EstimateCards(context.Background(), []*Subquery{sq}); err != nil {
		t.Fatal(err)
	}
	// advisor count: 2+2=4; type count: EP1 2 (Lee,Sam), EP2 1 (Kim).
	// min per endpoint: EP1 min(2,2)=2, EP2 min(2,1)=1 => 3.
	if sq.EstCard != 3 {
		t.Errorf("card = %v, want 3", sq.EstCard)
	}
}

func TestMarkDelayedPolicies(t *testing.T) {
	mk := func(cards []float64, srcs []int) []*Subquery {
		sqs := make([]*Subquery, len(cards))
		for i := range cards {
			sqs[i] = &Subquery{EstCard: cards[i], Sources: make([]int, srcs[i]), OptionalGroup: -1}
		}
		return sqs
	}
	// Cardinalities: three identical small ones, one huge outlier.
	cards := []float64{10, 10, 10, 100000}
	srcs := []int{2, 2, 2, 2}

	sqs := mk(cards, srcs)
	MarkDelayed(sqs, DelayMuSigma)
	if sqs[0].Delayed || sqs[1].Delayed || sqs[2].Delayed {
		t.Errorf("small subqueries delayed under mu+sigma: %+v", sqs)
	}
	if !sqs[3].Delayed {
		t.Error("huge subquery not delayed under mu+sigma")
	}

	sqs = mk(cards, srcs)
	MarkDelayed(sqs, DelayNone)
	for i, sq := range sqs {
		if sq.Delayed {
			t.Errorf("DelayNone delayed sq %d", i)
		}
	}

	sqs = mk(cards, srcs)
	MarkDelayed(sqs, DelayAll)
	live := 0
	for _, sq := range sqs {
		if !sq.Delayed {
			live++
		}
	}
	if live != 1 || sqs[0].Delayed {
		t.Errorf("DelayAll should keep exactly the most selective live: %+v", sqs)
	}

	sqs = mk(cards, srcs)
	MarkDelayed(sqs, DelayOutliersOnly)
	if !sqs[3].Delayed || sqs[0].Delayed {
		t.Errorf("outliers policy wrong: %+v", sqs)
	}
}

func TestMarkDelayedByEndpointCount(t *testing.T) {
	// Subqueries touching far more endpoints than the others are
	// delayed even with small cardinality.
	sqs := []*Subquery{
		{EstCard: 10, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 10, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 10, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 10, Sources: make([]int, 64), OptionalGroup: -1},
	}
	MarkDelayed(sqs, DelayMuSigma)
	if !sqs[3].Delayed {
		t.Error("wide subquery should be delayed")
	}
	if sqs[0].Delayed {
		t.Error("narrow subquery should not be delayed")
	}
}

func TestMarkDelayedOptionalAlwaysDelayed(t *testing.T) {
	sqs := []*Subquery{
		{EstCard: 10, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 1, Sources: make([]int, 2), Optional: true, OptionalGroup: 0},
	}
	MarkDelayed(sqs, DelayMuSigma)
	if !sqs[1].Delayed {
		t.Error("optional subquery should be delayed")
	}
	if sqs[0].Delayed {
		t.Error("required subquery wrongly delayed")
	}
}

func TestMarkDelayedGuaranteesProgress(t *testing.T) {
	// Identical cardinalities above threshold 0 can never all delay.
	sqs := []*Subquery{
		{EstCard: 100, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 200, Sources: make([]int, 2), OptionalGroup: -1},
	}
	MarkDelayed(sqs, DelayMu)
	live := 0
	for _, sq := range sqs {
		if !sq.Delayed {
			live++
		}
	}
	if live == 0 {
		t.Error("all subqueries delayed; no phase-1 seed")
	}
}

func TestMarkDelayedSingleSubquery(t *testing.T) {
	sqs := []*Subquery{{EstCard: 1e9, Sources: make([]int, 256), OptionalGroup: -1}}
	MarkDelayed(sqs, DelayMuSigma)
	if sqs[0].Delayed {
		t.Error("a single subquery must not be delayed")
	}
}

func TestCountValueSelectsDeclaredColumn(t *testing.T) {
	// Regression: countValue used to take whichever column Go's random
	// map iteration yielded first, so a multi-column result row could
	// silently deliver a non-count value as the cardinality.
	res := &sparql.Results{
		Vars: []sparql.Var{"x", "c"},
		Rows: []sparql.Binding{{
			"x": rdf.IRI("http://ex/entirely-not-a-number"),
			"c": rdf.Integer(3),
		}},
	}
	// Run repeatedly: with map-iteration-order parsing this flakes.
	for i := 0; i < 64; i++ {
		v, err := countValue(res, "c")
		if err != nil {
			t.Fatalf("countValue: %v", err)
		}
		if v != 3 {
			t.Fatalf("countValue = %v, want 3", v)
		}
	}
	// A result without the declared column is an error, not a guess.
	bad := &sparql.Results{
		Vars: []sparql.Var{"x"},
		Rows: []sparql.Binding{{"x": rdf.Integer(7)}},
	}
	if _, err := countValue(bad, "c"); err == nil {
		t.Error("missing ?c column accepted")
	}
}

func TestCountCacheHasNoUnfencedStore(t *testing.T) {
	// Regression: the COUNT cache used to expose Put(key, v), which
	// stored unconditionally — a caller holding a stale count could
	// resurrect it right after InvalidateEndpoint dropped that
	// endpoint's entries. All stores must go through the
	// generation-fenced PutAt.
	c := NewCostModel(uniEndpoints(), cache.New[float64](cache.PlanningEntries, 0, nil)).Cache
	if _, leaky := interface{}(c).(interface{ Put(string, float64) }); leaky {
		t.Fatal("the COUNT cache exposes an unfenced Put; every store must check the invalidation generation")
	}
}

func TestCountCachePutFencedByInvalidation(t *testing.T) {
	c := cache.New[float64](cache.PlanningEntries, 0, nil)
	key := cache.EndpointKey("ep1", "q")
	gen := c.Gen()
	// An invalidation lands between the probe and the store.
	c.InvalidateEndpoint("ep1")
	c.PutAt(gen, key, []string{"ep1"}, 42)
	if _, ok := c.Get(key); ok {
		t.Error("stale count stored across an invalidation")
	}
	// A store at the current generation goes through.
	c.PutAt(c.Gen(), key, []string{"ep1"}, 7)
	if v, ok := c.Get(key); !ok || v != 7 {
		t.Errorf("fresh store missing: %v %v", v, ok)
	}
}

func TestApplyCountResultsGuardsDroppedProbes(t *testing.T) {
	// Regression: when the handler returned fewer results than probe
	// tasks (a silently dropped probe), EstimateCards left the -1
	// placeholder behind as a real cardinality — a "negative count"
	// that made the dropped pattern look maximally selective.
	eps := uniEndpoints()
	cm := NewCostModel(eps, cache.New[float64](cache.PlanningEntries, 0, nil))
	order := []countProbe{{"q0", 0}, {"q1", 1}}
	counts := map[countProbe]float64{{"q0", 0}: -1, {"q1", 1}: -1}
	one := &sparql.Results{
		Vars: []sparql.Var{"c"},
		Rows: []sparql.Binding{{"c": rdf.Integer(5)}},
	}
	results := []federation.TaskResult{
		{Task: federation.Task{EP: eps[0], Query: "q0"}, Res: one},
		// The second task's result never arrives.
	}
	dg := endpoint.DegradeFrom(context.Background())
	if err := cm.applyCountResults(results, order, counts, dg, cm.Cache.Gen()); err != nil {
		t.Fatal(err)
	}
	if got := counts[countProbe{"q0", 0}]; got != 5 {
		t.Errorf("resolved probe = %v, want 5", got)
	}
	if got := counts[countProbe{"q1", 1}]; got != pessimisticCard {
		t.Errorf("dropped probe = %v, want pessimistic %v", got, pessimisticCard)
	}
	// More results than tasks must not panic (alignment guard).
	extra := append(results, federation.TaskResult{Task: federation.Task{EP: eps[1], Query: "q2"}, Res: one},
		federation.TaskResult{Task: federation.Task{EP: eps[1], Query: "q3"}, Res: one})
	if err := cm.applyCountResults(extra, order, counts, dg, cm.Cache.Gen()); err != nil {
		t.Fatal(err)
	}
}

func TestDelayPolicyString(t *testing.T) {
	for p, want := range map[DelayPolicy]string{
		DelayMu: "mu", DelayMuSigma: "mu+sigma", DelayMu2Sigma: "mu+2sigma",
		DelayOutliersOnly: "outliers", DelayNone: "none", DelayAll: "all",
	} {
		if p.String() != want {
			t.Errorf("String(%d) = %q, want %q", p, p.String(), want)
		}
	}
}
