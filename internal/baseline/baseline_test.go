// Package baseline_test cross-validates every federated engine —
// FedX, SPLENDID, HiBISCuS, the naive reference, and Lusail — against
// the union-graph oracle, and asserts the relative behaviors the paper
// reports (request-count gaps, pruning, preprocessing cost).
package baseline_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lusail/internal/baseline/fedx"
	"lusail/internal/baseline/hibiscus"
	"lusail/internal/baseline/splendid"
	"lusail/internal/cache"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// allEngines builds every engine over the endpoints.
func allEngines(t *testing.T, eps []endpoint.Endpoint) []federation.Engine {
	t.Helper()
	idx, err := splendid.BuildIndex(eps)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := hibiscus.BuildSummary(eps)
	if err != nil {
		t.Fatal(err)
	}
	return []federation.Engine{
		core.New(eps, core.Config{}),
		fedx.New(eps, fedx.Config{}),
		splendid.New(eps, idx, splendid.Config{}),
		hibiscus.New(eps, sum, fedx.Config{}),
		federation.NewNaive(eps, cache.New[bool](cache.PlanningEntries, 0, nil)),
	}
}

func oracleResult(t *testing.T, locals []*endpoint.Local, query string) []string {
	t.Helper()
	want, err := engine.New(testfed.UnionStore(locals...)).Eval(sparql.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	return testfed.Canon(want)
}

func TestAllEnginesAgreeOnUniversityQueries(t *testing.T) {
	queries := map[string]string{
		"Qa":      testfed.Qa,
		"QaChain": testfed.QaChain,
		"disjoint": `SELECT ?s ?p WHERE {
			?s <http://ex/advisor> ?p . ?s <http://ex/takesCourse> ?c }`,
		"filter": `SELECT ?P ?A WHERE {
			?P <http://ex/PhDDegreeFrom> ?U . ?U <http://ex/address> ?A . FILTER (?A = "XXX") }`,
		"optional": `SELECT ?P ?C WHERE {
			?S <http://ex/advisor> ?P . OPTIONAL { ?P <http://ex/teacherOf> ?C } }`,
		"union": `SELECT ?x ?y WHERE {
			{ ?x <http://ex/teacherOf> ?y } UNION { ?x <http://ex/PhDDegreeFrom> ?y } }`,
		"values": `SELECT ?P ?U WHERE {
			VALUES ?P { <http://ex/Tim> <http://ex/Joy> } ?P <http://ex/PhDDegreeFrom> ?U }`,
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			ep1, ep2 := testfed.Universities()
			locals := []*endpoint.Local{ep1, ep2}
			eps := []endpoint.Endpoint{ep1, ep2}
			want := oracleResult(t, locals, q)
			for _, eng := range allEngines(t, eps) {
				got, err := eng.Execute(context.Background(), q)
				if err != nil {
					t.Errorf("%s: %v", eng.Name(), err)
					continue
				}
				if cg := testfed.Canon(got); !reflect.DeepEqual(cg, want) {
					t.Errorf("%s differs from oracle:\n got %v\nwant %v", eng.Name(), cg, want)
				}
			}
		})
	}
}

func TestFedXExclusiveGroupFormation(t *testing.T) {
	// Give EP1 two exclusive predicates: FedX must send them together.
	ep1, ep2 := testfed.Universities()
	ep1.Store().Add(rdf.T(testfed.IRI("Lee"), testfed.IRI("exclA"), testfed.IRI("X")))
	ep1.Store().Add(rdf.T(testfed.IRI("X"), testfed.IRI("exclB"), rdf.Literal("v")))
	eps := []endpoint.Endpoint{ep1, ep2}
	f := fedx.New(eps, fedx.Config{})
	q := `SELECT * WHERE {
		?s <http://ex/exclA> ?x .
		?x <http://ex/exclB> ?v .
	}`
	endpoint.ResetAll(eps)
	res, err := f.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("rows = %d", res.Len())
	}
	// Source selection: 2 patterns x 2 endpoints = 4 ASKs; execution:
	// one exclusive-group request to EP1 only.
	st := endpoint.TotalStats(eps)
	if st.Requests != 5 {
		t.Errorf("requests = %d, want 5 (4 ASK + 1 exclusive group)", st.Requests)
	}
}

func TestFedXBoundJoinBlocks(t *testing.T) {
	// 40 bindings with block size 15 => ceil(40/15) = 3 bound requests
	// per relevant source.
	st1, st2 := store.New(), store.New()
	for i := 0; i < 40; i++ {
		st1.Add(rdf.T(testfed.IRI(fmt.Sprintf("s%d", i)), testfed.IRI("a"), testfed.IRI(fmt.Sprintf("m%d", i))))
		st2.Add(rdf.T(testfed.IRI(fmt.Sprintf("m%d", i)), testfed.IRI("b"), rdf.Integer(int64(i))))
	}
	ep1 := endpoint.NewLocal("ep1", st1)
	ep2 := endpoint.NewLocal("ep2", st2)
	eps := []endpoint.Endpoint{ep1, ep2}
	f := fedx.New(eps, fedx.Config{BoundBlockSize: 15})
	q := `SELECT * WHERE { ?s <http://ex/a> ?m . ?m <http://ex/b> ?v . }`
	res, err := f.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 40 {
		t.Fatalf("rows = %d, want 40", res.Len())
	}
	// ep2 receives: 1 ASK per pattern (2) + 3 bound-join blocks.
	if got := ep2.Stats().Requests; got != 5 {
		t.Errorf("ep2 requests = %d, want 5 (2 ASK + 3 blocks)", got)
	}
}

func TestLusailBeatsFedXOnRequests(t *testing.T) {
	// The paper's central claim (Fig. 3 / Fig. 12): with similar
	// schemas at every endpoint, FedX degenerates to one pattern at a
	// time with bound joins while Lusail ships whole subqueries.
	st1, st2 := store.New(), store.New()
	for e, st := range []*store.Store{st1, st2} {
		for i := 0; i < 300; i++ {
			s := testfed.IRI(fmt.Sprintf("stu%d_%d", e, i))
			p := testfed.IRI(fmt.Sprintf("prof%d_%d", e, i%7))
			c := testfed.IRI(fmt.Sprintf("course%d_%d", e, i%5))
			st.Add(rdf.T(s, testfed.IRI("advisor"), p))
			st.Add(rdf.T(s, testfed.IRI("takesCourse"), c))
			st.Add(rdf.T(p, testfed.IRI("teacherOf"), c))
		}
	}
	ep1, ep2 := endpoint.NewLocal("ep1", st1), endpoint.NewLocal("ep2", st2)
	eps := []endpoint.Endpoint{ep1, ep2}
	q := `SELECT ?s ?p ?c WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
		?p <http://ex/teacherOf> ?c .
	}`

	endpoint.ResetAll(eps)
	l := core.New(eps, core.Config{})
	resL, err := l.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	lusailReqs := endpoint.TotalStats(eps).Requests

	endpoint.ResetAll(eps)
	f := fedx.New(eps, fedx.Config{})
	resF, err := f.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	fedxReqs := endpoint.TotalStats(eps).Requests

	if !reflect.DeepEqual(testfed.Canon(resL), testfed.Canon(resF)) {
		t.Fatal("lusail and fedx disagree on results")
	}
	if fedxReqs < 3*lusailReqs {
		t.Errorf("expected FedX to need far more requests: lusail=%d fedx=%d", lusailReqs, fedxReqs)
	}
}

func TestSplendidIndexBuild(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	idx, err := splendid.BuildIndex(eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.ByEndpoint) != 2 {
		t.Fatalf("index endpoints = %d", len(idx.ByEndpoint))
	}
	info, ok := idx.ByEndpoint[0]["http://ex/advisor"]
	if !ok || info.Triples != 2 {
		t.Errorf("EP1 advisor info = %+v ok=%v", info, ok)
	}
	total := ep1.Store().Len() + ep2.Store().Len()
	if idx.TriplesScanned != total {
		t.Errorf("scanned = %d, want %d (cost grows with data size)", idx.TriplesScanned, total)
	}
}

func TestSplendidSourceSelectionFromIndex(t *testing.T) {
	// SPLENDID should not send ASK queries for constant-predicate
	// patterns: the index answers them.
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	idx, _ := splendid.BuildIndex(eps)
	s := splendid.New(eps, idx, splendid.Config{})
	endpoint.ResetAll(eps)
	if _, err := s.Execute(context.Background(), `SELECT ?x WHERE { ?x <http://ex/teacherOf> ?c }`); err != nil {
		t.Fatal(err)
	}
	// Only data requests: one per relevant endpoint, no ASK.
	if got := endpoint.TotalStats(eps).Requests; got != 2 {
		t.Errorf("requests = %d, want 2 (index-only source selection)", got)
	}
}

func TestHiBISCuSPrunesByAuthority(t *testing.T) {
	// Two endpoints with distinct authorities; a join whose object
	// authorities only occur at one endpoint must prune the other.
	stA, stB := store.New(), store.New()
	// dbpedia hosts people; geo hosts places. person -> bornIn -> place.
	for i := 0; i < 5; i++ {
		person := rdf.IRI(fmt.Sprintf("http://dbpedia.org/p%d", i))
		place := rdf.IRI(fmt.Sprintf("http://geo.org/city%d", i))
		stA.Add(rdf.T(person, rdf.IRI("http://ex/bornIn"), place))
		stB.Add(rdf.T(place, rdf.IRI("http://ex/population"), rdf.Integer(int64(1000*i))))
	}
	// B also has bornIn triples, but pointing at B-internal entities
	// with no population data elsewhere.
	stB.Add(rdf.T(rdf.IRI("http://other.org/px"), rdf.IRI("http://ex/bornIn"), rdf.IRI("http://nowhere.org/cx")))
	epA, epB := endpoint.NewLocal("A", stA), endpoint.NewLocal("B", stB)
	eps := []endpoint.Endpoint{epA, epB}
	sum, err := hibiscus.BuildSummary(eps)
	if err != nil {
		t.Fatal(err)
	}
	sel := hibiscus.NewSelector(eps, sum)
	q := sparql.MustParse(`SELECT * WHERE {
		?p <http://ex/bornIn> ?c .
		?c <http://ex/population> ?n .
	}`)
	selection, err := sel.SelectPatterns(context.Background(), q.Where.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	// bornIn is ASK-relevant at both endpoints, but B's bornIn objects
	// (nowhere.org) cannot join population subjects (geo.org), so B is
	// pruned for the bornIn pattern.
	if !reflect.DeepEqual(selection.Sources[0], []int{0}) {
		t.Errorf("bornIn sources = %v, want [0] after pruning", selection.Sources[0])
	}
	// The full engine still returns correct results.
	h := hibiscus.New(eps, sum, fedx.Config{})
	res, err := h.Execute(context.Background(), `SELECT * WHERE {
		?p <http://ex/bornIn> ?c . ?c <http://ex/population> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Errorf("rows = %d, want 5", res.Len())
	}
}

// TestQuickAllEnginesAgree is the cross-engine property test: every
// engine returns the oracle answer on random federations and queries.
func TestQuickAllEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(2)
		preds := []string{"p0", "p1", "p2"}
		locals := make([]*endpoint.Local, n)
		for e := 0; e < n; e++ {
			st := store.New()
			for i := 0; i < 10+r.Intn(15); i++ {
				s := testfed.IRI(fmt.Sprintf("e%d_%d", e, r.Intn(6)))
				p := testfed.IRI(preds[r.Intn(len(preds))])
				var o rdf.Term
				if r.Intn(3) == 0 {
					o = testfed.IRI(fmt.Sprintf("e%d_%d", r.Intn(n), r.Intn(6)))
				} else {
					o = testfed.IRI(fmt.Sprintf("e%d_%d", e, r.Intn(6)))
				}
				st.Add(rdf.T(s, p, o))
			}
			locals[e] = endpoint.NewLocal(fmt.Sprintf("ep%d", e), st)
		}
		eps := make([]endpoint.Endpoint, n)
		for i := range locals {
			eps[i] = locals[i]
		}
		vars := []string{"a", "b", "c", "d"}
		np := 2 + r.Intn(2)
		query := "SELECT * WHERE {\n"
		for i := 0; i < np; i++ {
			query += fmt.Sprintf("?%s <http://ex/%s> ?%s .\n",
				vars[r.Intn(i+1)], preds[r.Intn(len(preds))], vars[i+1])
		}
		query += "}"

		want, err := engine.New(testfed.UnionStore(locals...)).Eval(sparql.MustParse(query))
		if err != nil {
			return false
		}
		cw := testfed.Canon(want)

		idx, err := splendid.BuildIndex(eps)
		if err != nil {
			return false
		}
		sum, err := hibiscus.BuildSummary(eps)
		if err != nil {
			return false
		}
		engines := []federation.Engine{
			core.New(eps, core.Config{}),
			fedx.New(eps, fedx.Config{BoundBlockSize: 5}),
			splendid.New(eps, idx, splendid.Config{BindBlockSize: 4}),
			hibiscus.New(eps, sum, fedx.Config{}),
		}
		for _, eng := range engines {
			got, err := eng.Execute(context.Background(), query)
			if err != nil {
				t.Logf("seed %d %s: %v\n%s", seed, eng.Name(), err, query)
				return false
			}
			if cg := testfed.Canon(got); !reflect.DeepEqual(cg, cw) {
				t.Logf("seed %d %s mismatch\n%s\n got %v\nwant %v", seed, eng.Name(), query, cg, cw)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
