package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

func TestFoundBindingsIntersect(t *testing.T) {
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"x"},
		b("x", "1"), b("x", "2"), b("x", "3")))
	if !fb.covered("x") || fb.covered("y") {
		t.Error("covered wrong")
	}
	if got := len(fb.valuesFor("x")); got != 3 {
		t.Fatalf("values = %d", got)
	}
	// A second relation narrows the candidate set.
	fb.update(relOf([]sparql.Var{"x", "y"},
		b("x", "2", "y", "a"), b("x", "3", "y", "b"), b("x", "9", "y", "c")))
	vals := fb.valuesFor("x")
	if len(vals) != 2 {
		t.Fatalf("intersected values = %v", vals)
	}
	if vals[0] != rdf.IRI("http://ex/2") || vals[1] != rdf.IRI("http://ex/3") {
		t.Errorf("values = %v", vals)
	}
}

func TestFoundBindingsSkipsPartiallyBoundVars(t *testing.T) {
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"x"}, b("x", "1"), b("x", "2")))
	// A UNION relation where some rows leave x unbound must not
	// constrain x.
	fb.update(&Relation{
		Vars: []sparql.Var{"x", "y"},
		Rows: []sparql.Binding{b("y", "only")},
	})
	if got := len(fb.valuesFor("x")); got != 2 {
		t.Errorf("values after partial relation = %d, want 2 (unchanged)", got)
	}
}

func TestFoundBindingsValuesDeterministic(t *testing.T) {
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"x"}, b("x", "c"), b("x", "a"), b("x", "b")))
	v1 := fb.valuesFor("x")
	v2 := fb.valuesFor("x")
	if !reflect.DeepEqual(v1, v2) {
		t.Error("valuesFor not deterministic")
	}
	if v1[0].Compare(v1[1]) >= 0 {
		t.Error("valuesFor not sorted")
	}
}

func TestRefinedCard(t *testing.T) {
	sq := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?x <http://ex/p> ?y }`).Where.Patterns,
		EstCard:  1000,
	}
	fb := newFoundBindings()
	if got := refinedCard(sq, fb); got != 1000 {
		t.Errorf("unrefined card = %v", got)
	}
	fb.update(relOf([]sparql.Var{"x"}, b("x", "1"), b("x", "2")))
	if got := refinedCard(sq, fb); got != 2 {
		t.Errorf("refined card = %v, want 2", got)
	}
}

func TestPickMostSelective(t *testing.T) {
	ex := NewExecutor(nil)
	fb := newFoundBindings()
	sqs := []*Subquery{
		{EstCard: 500, Patterns: sparql.MustParse(`SELECT * WHERE { ?a <http://ex/p> ?b }`).Where.Patterns},
		{EstCard: 100, Patterns: sparql.MustParse(`SELECT * WHERE { ?c <http://ex/q> ?d }`).Where.Patterns},
		{EstCard: 300, Patterns: sparql.MustParse(`SELECT * WHERE { ?e <http://ex/r> ?f }`).Where.Patterns},
	}
	if got := ex.pickMostSelective(sqs, fb); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	// Bindings can make another subquery the most selective.
	fb.update(relOf([]sparql.Var{"a"}, b("a", "1")))
	if got := ex.pickMostSelective(sqs, fb); got != 0 {
		t.Errorf("pick with bindings = %d, want 0", got)
	}
}

func TestHasGenericPattern(t *testing.T) {
	sq := &Subquery{Patterns: sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Where.Patterns}
	if !hasGenericPattern(sq) {
		t.Error("variable predicate not detected")
	}
	sq2 := &Subquery{Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?o }`).Where.Patterns}
	if hasGenericPattern(sq2) {
		t.Error("constant predicate misdetected")
	}
}

// runDrained runs the executor and drains its stream into one
// relation headed by the plan's variables.
func runDrained(ctx context.Context, ex *Executor, sqs []*Subquery, extra []*Relation, globalFilters []sparql.Expr, optFilters map[int][]sparql.Expr, sqCache *cache.Cache[*Relation]) (*Relation, *ExecStats, error) {
	rel := &Relation{Vars: planVars(sqs, extra)}
	stats, err := ex.Run(ctx, sqs, extra, globalFilters, optFilters, sqCache,
		func(_ []sparql.Var, rows []sparql.Binding) error {
			rel.Rows = append(rel.Rows, rows...)
			return nil
		})
	return rel, stats, err
}

func TestExecutorSingleSubqueryConcatenates(t *testing.T) {
	// The disjoint case (Algorithm 3 lines 2-4): one subquery, results
	// concatenated across endpoints, no join.
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	q := sparql.MustParse(`SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`)
	sq := &Subquery{
		Patterns: q.Where.Patterns, Sources: []int{0, 1},
		ProjVars: []sparql.Var{"p", "s"}, OptionalGroup: -1,
	}
	rel, stats, err := runDrained(context.Background(), ex, []*Subquery{sq}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 4 {
		t.Errorf("rows = %d, want 4 (2 per endpoint)", len(rel.Rows))
	}
	if stats.Phase1Requests != 2 || stats.Phase2Requests != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestExecutorDelayedBoundExecution(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	ex.BindBlockSize = 2
	qa := sparql.MustParse(testfed.QaChain)
	sq1 := &Subquery{ // advisor+takesCourse: selective seed
		Patterns: qa.Where.Patterns[0:2], Sources: []int{0, 1},
		ProjVars: []sparql.Var{"P", "S"}, OptionalGroup: -1, EstCard: 4,
	}
	sq2 := &Subquery{ // PhDDegreeFrom: delayed, bound on ?P
		Patterns: qa.Where.Patterns[2:3], Sources: []int{0, 1},
		ProjVars: []sparql.Var{"P", "U"}, OptionalGroup: -1, EstCard: 100, Delayed: true,
	}
	rel, stats, err := runDrained(context.Background(), ex, []*Subquery{sq1, sq2}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BoundBlocks == 0 {
		t.Error("expected VALUES blocks for the delayed subquery")
	}
	if stats.Phase2Requests == 0 {
		t.Error("expected phase-2 requests")
	}
	// Joined result: every advisor pair with a degree.
	if len(rel.Rows) == 0 {
		t.Error("empty join result")
	}
	for _, row := range rel.Rows {
		if _, ok := row["U"]; !ok {
			t.Errorf("row missing joined var: %v", row)
		}
	}
}

func TestExecutorEmptyRequiredShortCircuits(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p . ?s <http://ex/nothing> ?x }`)
	sq1 := &Subquery{Patterns: q.Where.Patterns[0:1], Sources: []int{0, 1}, ProjVars: []sparql.Var{"p", "s"}, OptionalGroup: -1}
	sq2 := &Subquery{Patterns: q.Where.Patterns[1:2], Sources: nil, ProjVars: []sparql.Var{"s", "x"}, OptionalGroup: -1, Delayed: true}
	rel, _, err := runDrained(context.Background(), ex, []*Subquery{sq1, sq2}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(rel.Rows))
	}
}

func TestExecutorOptionalLeftJoin(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	req := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?P }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"P", "s"}, OptionalGroup: -1,
	}
	opt := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?P <http://ex/teacherOf> ?c }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"P", "c"},
		Optional: true, OptionalGroup: 0, Delayed: true,
	}
	rel, _, err := runDrained(context.Background(), ex, []*Subquery{req, opt}, nil, nil, map[int][]sparql.Expr{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 advisor rows; Tim and Ann teach nothing, so their rows lack ?c.
	if len(rel.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(rel.Rows), rel.Rows)
	}
	unbound := 0
	for _, row := range rel.Rows {
		if _, ok := row["c"]; !ok {
			unbound++
		}
	}
	if unbound != 2 {
		t.Errorf("unbound optional rows = %d, want 2", unbound)
	}
}

// captureEndpoint records every query shipped to it.
type captureEndpoint struct {
	inner   endpoint.Endpoint
	mu      sync.Mutex
	queries []string
}

func (c *captureEndpoint) Name() string { return c.inner.Name() }

func (c *captureEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	c.mu.Lock()
	c.queries = append(c.queries, q)
	c.mu.Unlock()
	return c.inner.Query(ctx, q)
}

func (c *captureEndpoint) captured() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.queries...)
}

// Regression for VALUES-block aliasing: with BindBlockSize=1 and more
// than two candidate values, runBound builds one query per block. Each
// shipped query must carry exactly its own single VALUES block — a
// shared Where pointer under append would leak blocks across queries.
func TestRunBoundOneValuesBlockPerShippedQuery(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	cap1, cap2 := &captureEndpoint{inner: ep1}, &captureEndpoint{inner: ep2}
	ex := NewExecutor([]endpoint.Endpoint{cap1, cap2})
	ex.BindBlockSize = 1

	sq := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?P <http://ex/PhDDegreeFrom> ?U }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"P", "U"},
		OptionalGroup: -1, Delayed: true, EstCard: 100,
	}
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"P"},
		b("P", "Tim"), b("P", "Ann"), b("P", "Joe"), b("P", "Sue")))

	var stats ExecStats
	if _, err := ex.runBound(context.Background(), sq, fb, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.BoundBlocks != 4 {
		t.Errorf("bound blocks = %d, want 4 (one per candidate)", stats.BoundBlocks)
	}
	shipped := append(cap1.captured(), cap2.captured()...)
	if len(shipped) != 8 {
		t.Fatalf("shipped queries = %d, want 8 (4 blocks x 2 endpoints)", len(shipped))
	}
	for _, q := range shipped {
		if n := strings.Count(q, "VALUES"); n != 1 {
			t.Errorf("shipped query carries %d VALUES blocks, want exactly 1:\n%s", n, q)
		}
	}
}

// When source refinement drops every endpoint (no source answers the
// bound ASK), the bound subquery must come back as an empty relation
// with sane partitioning, not panic or ship data queries.
func TestRunBoundRefinementDropsAllSources(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	sq := &Subquery{
		// Variable predicate: relevant everywhere, so refinement kicks in.
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"o", "p", "s"},
		OptionalGroup: -1, Delayed: true, EstCard: 100,
	}
	fb := newFoundBindings()
	// Candidates that exist at no endpoint: every refinement ASK is false.
	fb.update(relOf([]sparql.Var{"s"}, b("s", "ghost1"), b("s", "ghost2"), b("s", "ghost3")))

	var stats ExecStats
	rel, err := ex.runBound(context.Background(), sq, fb, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 0 {
		t.Errorf("rows = %d, want 0 (all sources refined away)", len(rel.Rows))
	}
	if rel.Partitions < 1 {
		t.Errorf("partitions = %d, want >= 1", rel.Partitions)
	}
	if stats.RefineRequests == 0 {
		t.Error("expected refinement ASKs")
	}
	if stats.Phase2Requests != 0 {
		t.Errorf("phase-2 requests = %d, want 0 after refinement dropped all sources", stats.Phase2Requests)
	}
}

func TestExecutorEmptyPlanYieldsIdentity(t *testing.T) {
	ex := NewExecutor(nil)
	rel, _, err := runDrained(context.Background(), ex, nil, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || len(rel.Rows[0]) != 0 {
		t.Errorf("identity relation = %v", rel.Rows)
	}
}

// TestPhase2WaitsForBindingsOfChainedDelayed: a delayed subquery bound
// only through another delayed one (address via PhDDegreeFrom's ?U)
// must not start while the phase-1 relation feeding that chain is on
// the wire — it would find no bindings and run unbound. Phase 2 picks
// exactly as the serial algorithm does: PhDDegreeFrom bound on the
// advisors' ?P, then address bound on its ?U.
func TestPhase2WaitsForBindingsOfChainedDelayed(t *testing.T) {
	mk := func(text string, proj []sparql.Var, est float64, delayed bool) *Subquery {
		return &Subquery{
			Patterns: sparql.MustParse(text).Where.Patterns,
			Sources:  []int{0, 1}, ProjVars: proj,
			OptionalGroup: -1, EstCard: est, Delayed: delayed,
		}
	}
	sqs := []*Subquery{
		mk(`SELECT * WHERE { ?S <http://ex/takesCourse> ?C }`, []sparql.Var{"S", "C"}, 100, false),
		mk(`SELECT * WHERE { ?S <http://ex/advisor> ?P }`, []sparql.Var{"S", "P"}, 4, false),
		mk(`SELECT * WHERE { ?P <http://ex/PhDDegreeFrom> ?U }`, []sparql.Var{"P", "U"}, 50, true),
		mk(`SELECT * WHERE { ?U <http://ex/address> ?A }`, []sparql.Var{"U", "A"}, 40, true),
	}
	ex := NewExecutor(uniEndpoints())
	rel, stats, err := runDrained(context.Background(), ex, sqs, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BoundBlocks != 2 {
		t.Errorf("BoundBlocks = %d, want 2 (both delayed subqueries bound)", stats.BoundBlocks)
	}
	if len(rel.Rows) == 0 {
		t.Error("empty join result")
	}
}
