package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

func iri(s string) rdf.Term { return rdf.IRI("http://ex/" + s) }

// uniGraph builds a small university-shaped graph echoing the paper's
// running example (Figure 1).
func uniGraph() rdf.Graph {
	var g rdf.Graph
	adv := iri("advisor")
	takes := iri("takesCourse")
	teaches := iri("teacherOf")
	phd := iri("PhDDegreeFrom")
	addr := iri("address")
	typ := rdf.IRI(rdf.RDFType)

	g.Add(iri("Kim"), typ, iri("GraduateStudent"))
	g.Add(iri("Lee"), typ, iri("GraduateStudent"))
	g.Add(iri("Kim"), adv, iri("Joy"))
	g.Add(iri("Kim"), adv, iri("Tim"))
	g.Add(iri("Lee"), adv, iri("Ben"))
	g.Add(iri("Kim"), takes, iri("DB"))
	g.Add(iri("Lee"), takes, iri("OS"))
	g.Add(iri("Joy"), teaches, iri("DB"))
	g.Add(iri("Ben"), teaches, iri("OS"))
	g.Add(iri("Joy"), phd, iri("CMU"))
	g.Add(iri("Tim"), phd, iri("MIT"))
	g.Add(iri("Ben"), phd, iri("MIT"))
	g.Add(iri("CMU"), addr, rdf.Literal("CCCC"))
	g.Add(iri("MIT"), addr, rdf.Literal("XXX"))
	g.Add(iri("Joy"), iri("age"), rdf.Integer(40))
	g.Add(iri("Tim"), iri("age"), rdf.Integer(55))
	g.Add(iri("Ben"), iri("age"), rdf.Integer(35))
	return g
}

func uniEngine() *Engine { return New(store.FromGraph(uniGraph())) }

func eval(t *testing.T, e *Engine, q string) *sparql.Results {
	t.Helper()
	res, err := e.Eval(sparql.MustParse(q))
	if err != nil {
		t.Fatalf("eval %q: %v", q, err)
	}
	return res
}

func TestEvalSinglePattern(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?s ?o WHERE { ?s <http://ex/advisor> ?o }`)
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
}

func TestEvalBGPJoin(t *testing.T) {
	e := uniEngine()
	// Students taking a course taught by their advisor.
	res := eval(t, e, `SELECT ?s ?p WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
		?p <http://ex/teacherOf> ?c .
	}`)
	res.Sort()
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2: %v", res.Len(), res.Rows)
	}
	if res.Rows[0]["s"] != iri("Kim") || res.Rows[0]["p"] != iri("Joy") {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Rows[1]["s"] != iri("Lee") || res.Rows[1]["p"] != iri("Ben") {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
}

func TestEvalQaFullQuery(t *testing.T) {
	// The paper's Qa over the union graph: students with their
	// advisors' alma mater address. Three answers expected (Fig. 2).
	e := uniEngine()
	res := eval(t, e, `SELECT ?s ?p ?u ?a WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
		?p <http://ex/PhDDegreeFrom> ?u .
		?u <http://ex/address> ?a .
	}`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3: %v", res.Len(), res.Rows)
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[string(r["s"].Value)+"/"+r["p"].Value+"/"+r["a"].Value] = true
	}
	for _, want := range []string{
		"http://ex/Kim/http://ex/Joy/CCCC",
		"http://ex/Kim/http://ex/Tim/XXX",
		"http://ex/Lee/http://ex/Ben/XXX",
	} {
		if !seen[want] {
			t.Errorf("missing answer %s in %v", want, seen)
		}
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(iri("a"), iri("knows"), iri("a")))
	st.Add(rdf.T(iri("a"), iri("knows"), iri("b")))
	e := New(st)
	res := eval(t, e, `SELECT ?x WHERE { ?x <http://ex/knows> ?x }`)
	if res.Len() != 1 || res.Rows[0]["x"] != iri("a") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalFilter(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p WHERE {
		?p <http://ex/age> ?a . FILTER (?a > 38 && ?a < 50)
	}`)
	if res.Len() != 1 || res.Rows[0]["p"] != iri("Joy") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalFilterNotExists(t *testing.T) {
	// The shape of Lusail's check query (Fig. 6): advisors that teach
	// no course. Tim has no teacherOf triple.
	e := uniEngine()
	res := eval(t, e, `SELECT ?p WHERE {
		?s <http://ex/advisor> ?p .
		FILTER NOT EXISTS { ?p <http://ex/teacherOf> ?c }
	} LIMIT 1`)
	if res.Len() != 1 || res.Rows[0]["p"] != iri("Tim") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalExists(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT DISTINCT ?p WHERE {
		?s <http://ex/advisor> ?p .
		FILTER EXISTS { ?p <http://ex/teacherOf> ?c }
	}`)
	res.Sort()
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalOptional(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p ?c WHERE {
		?s <http://ex/advisor> ?p .
		OPTIONAL { ?p <http://ex/teacherOf> ?c }
	}`)
	// Kim->Joy(DB), Kim->Tim(unbound), Lee->Ben(OS).
	if res.Len() != 3 {
		t.Fatalf("rows = %d: %v", res.Len(), res.Rows)
	}
	unbound := 0
	for _, r := range res.Rows {
		if _, ok := r["c"]; !ok {
			unbound++
			if r["p"] != iri("Tim") {
				t.Errorf("unexpected unbound row %v", r)
			}
		}
	}
	if unbound != 1 {
		t.Errorf("unbound rows = %d, want 1", unbound)
	}
}

func TestEvalOptionalWithFilterOnOuterVar(t *testing.T) {
	// LeftJoin semantics: the optional's filter sees outer bindings.
	e := uniEngine()
	res := eval(t, e, `SELECT ?p ?a WHERE {
		?s <http://ex/advisor> ?p .
		OPTIONAL { ?p <http://ex/age> ?a . FILTER (?a > 38) }
	}`)
	for _, r := range res.Rows {
		if a, ok := r["a"]; ok {
			if a != rdf.Integer(40) && a != rdf.Integer(55) {
				t.Errorf("filtered optional bound to %v", a)
			}
		} else if r["p"] != iri("Ben") {
			t.Errorf("row %v should have matched the optional", r)
		}
	}
}

func TestEvalUnion(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?x WHERE {
		{ ?x <http://ex/teacherOf> <http://ex/DB> } UNION { ?x <http://ex/teacherOf> <http://ex/OS> }
	}`)
	res.Sort()
	if res.Len() != 2 || res.Rows[0]["x"] != iri("Ben") || res.Rows[1]["x"] != iri("Joy") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalUnionJoinedWithPattern(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?x ?u WHERE {
		?x <http://ex/PhDDegreeFrom> ?u .
		{ ?x <http://ex/teacherOf> <http://ex/DB> } UNION { ?x <http://ex/teacherOf> <http://ex/OS> }
	}`)
	if res.Len() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalValues(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p ?u WHERE {
		VALUES ?p { <http://ex/Tim> <http://ex/Ben> }
		?p <http://ex/PhDDegreeFrom> ?u .
	}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r["u"] != iri("MIT") {
			t.Errorf("row %v", r)
		}
	}
}

func TestEvalValuesWithUndef(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p ?u WHERE {
		VALUES (?p ?u) { (<http://ex/Tim> UNDEF) (UNDEF <http://ex/CMU>) }
		?p <http://ex/PhDDegreeFrom> ?u .
	}`)
	// Tim->MIT matches row 1; Joy->CMU matches row 2.
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalDistinctOrderLimitOffset(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT DISTINCT ?u WHERE { ?p <http://ex/PhDDegreeFrom> ?u } ORDER BY ?u`)
	if res.Len() != 2 || res.Rows[0]["u"] != iri("CMU") || res.Rows[1]["u"] != iri("MIT") {
		t.Fatalf("distinct+order rows = %v", res.Rows)
	}
	res = eval(t, e, `SELECT ?p WHERE { ?p <http://ex/age> ?a } ORDER BY DESC(?a) LIMIT 2`)
	if res.Len() != 2 || res.Rows[0]["p"] != iri("Tim") || res.Rows[1]["p"] != iri("Joy") {
		t.Fatalf("order desc rows = %v", res.Rows)
	}
	res = eval(t, e, `SELECT ?p WHERE { ?p <http://ex/age> ?a } ORDER BY ?a OFFSET 1 LIMIT 1`)
	if res.Len() != 1 || res.Rows[0]["p"] != iri("Joy") {
		t.Fatalf("offset rows = %v", res.Rows)
	}
	res = eval(t, e, `SELECT ?p WHERE { ?p <http://ex/age> ?a } OFFSET 99`)
	if res.Len() != 0 {
		t.Fatalf("large offset rows = %v", res.Rows)
	}
}

func TestEvalCount(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ex/advisor> ?p }`)
	if res.Len() != 1 || res.Rows[0]["c"] != rdf.Integer(3) {
		t.Fatalf("count = %v", res.Rows)
	}
	res = eval(t, e, `SELECT (COUNT(DISTINCT ?p) AS ?c) WHERE { ?s <http://ex/advisor> ?p }`)
	if res.Rows[0]["c"] != rdf.Integer(3) {
		t.Fatalf("count distinct = %v", res.Rows)
	}
	res = eval(t, e, `SELECT (COUNT(DISTINCT ?u) AS ?c) WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`)
	if res.Rows[0]["c"] != rdf.Integer(2) {
		t.Fatalf("count distinct u = %v", res.Rows)
	}
}

func TestEvalCountFastPathEdgeCases(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(iri("a"), iri("knows"), iri("a")))
	st.Add(rdf.T(iri("a"), iri("knows"), iri("b")))
	e := New(st)
	// Repeated variable must bypass the index fast path: only the
	// self-loop matches.
	res := eval(t, e, `SELECT (COUNT(*) AS ?c) WHERE { ?x <http://ex/knows> ?x }`)
	if res.Rows[0]["c"] != rdf.Integer(1) {
		t.Errorf("count = %v, want 1", res.Rows[0]["c"])
	}
	// Constant-only positions still count correctly.
	res = eval(t, e, `SELECT (COUNT(*) AS ?c) WHERE { <http://ex/a> <http://ex/knows> ?o }`)
	if res.Rows[0]["c"] != rdf.Integer(2) {
		t.Errorf("count = %v, want 2", res.Rows[0]["c"])
	}
	// COUNT with a filter must not use the fast path.
	res = eval(t, e, `SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ex/knows> ?o . FILTER (?o = <http://ex/b>) }`)
	if res.Rows[0]["c"] != rdf.Integer(1) {
		t.Errorf("filtered count = %v, want 1", res.Rows[0]["c"])
	}
}

func TestEvalAsk(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `ASK { <http://ex/Tim> <http://ex/PhDDegreeFrom> ?u }`)
	if !res.AskForm || !res.Ask {
		t.Errorf("ask = %+v", res)
	}
	res = eval(t, e, `ASK { <http://ex/Tim> <http://ex/teacherOf> ?c }`)
	if res.Ask {
		t.Error("ask should be false")
	}
}

func TestEvalEmptyBGPWithValues(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?x WHERE { VALUES ?x { <http://ex/1> <http://ex/2> } }`)
	if res.Len() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalProjection(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?s WHERE { ?s <http://ex/advisor> ?p }`)
	if !reflect.DeepEqual(res.Vars, []sparql.Var{"s"}) {
		t.Errorf("vars = %v", res.Vars)
	}
	for _, r := range res.Rows {
		if _, ok := r["p"]; ok {
			t.Error("projection leaked ?p")
		}
	}
}

func TestEvalLimitShortCircuits(t *testing.T) {
	// A large store; LIMIT 1 must not enumerate everything. We cannot
	// observe enumeration directly, but the streaming path plus
	// correctness is covered: exactly one row comes back.
	st := store.New()
	for i := 0; i < 5000; i++ {
		st.Add(rdf.T(iri("s"), iri("p"), rdf.Integer(int64(i))))
	}
	e := New(st)
	res := eval(t, e, `SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o } LIMIT 1`)
	if res.Len() != 1 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestEvalCartesianProduct(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(iri("a"), iri("p"), iri("b")))
	st.Add(rdf.T(iri("c"), iri("q"), iri("d")))
	e := New(st)
	res := eval(t, e, `SELECT * WHERE { ?x <http://ex/p> ?y . ?z <http://ex/q> ?w }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r["x"] != iri("a") || r["z"] != iri("c") {
		t.Errorf("row = %v", r)
	}
}

func TestEvalVariablePredicate(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p WHERE { <http://ex/Tim> ?p ?o }`)
	// Tim: rdf-less; has advisor(no: he's object), PhDDegreeFrom, age.
	if res.Len() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestStoreAccessor(t *testing.T) {
	st := store.New()
	e := New(st)
	if e.Store() != st {
		t.Error("Store() does not return the backing store")
	}
}

func TestEvalUnsupportedForm(t *testing.T) {
	e := uniEngine()
	q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`)
	q.Form = sparql.Form(99)
	if _, err := e.Eval(q); err == nil {
		t.Error("unknown query form accepted")
	}
}

func TestEvalFiltersAppliedToMaterializedGroups(t *testing.T) {
	// Groups with unions force the materialized path, where filters
	// run through applyFilters rather than the streaming BGP join.
	e := uniEngine()
	res := eval(t, e, `SELECT ?x ?y WHERE {
		{ ?x <http://ex/teacherOf> ?y } UNION { ?x <http://ex/PhDDegreeFrom> ?y }
		FILTER (?y != <http://ex/MIT>)
	}`)
	for _, row := range res.Rows {
		if row["y"] == iri("MIT") {
			t.Errorf("filter not applied to union row: %v", row)
		}
	}
	if res.Len() == 0 {
		t.Error("filter removed everything")
	}
	// A type-erroring filter drops the row rather than failing.
	res = eval(t, e, `SELECT ?x WHERE {
		{ ?x <http://ex/teacherOf> ?y } UNION { ?x <http://ex/PhDDegreeFrom> ?y }
		FILTER (?unbound > 3)
	}`)
	if res.Len() != 0 {
		t.Errorf("type-error filter kept %d rows", res.Len())
	}
	// EXISTS filters work on the materialized path too.
	res = eval(t, e, `SELECT ?x ?y WHERE {
		{ ?x <http://ex/teacherOf> ?y } UNION { ?x <http://ex/PhDDegreeFrom> ?y }
		FILTER EXISTS { ?x <http://ex/age> ?a }
	}`)
	if res.Len() == 0 {
		t.Error("EXISTS filter on materialized group removed everything")
	}
	for _, row := range res.Rows {
		if row["x"] == iri("Ann") {
			t.Errorf("Ann has no age; EXISTS should have filtered %v", row)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestIntermediateRowsAllocateNothing: a join that enumerates n rows of
// its first pattern but emits one row allocates the same for n = 1k and
// n = 10k — rows that are not emitted cost no allocation.
func TestIntermediateRowsAllocateNothing(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random, so a
		// pooled run is recompiled an unpredictable number of times.
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := func(n int) float64 {
		st := store.New()
		for i := 0; i < n; i++ {
			st.Add(rdf.T(iri(fmt.Sprintf("a%d", i)), iri("p"), iri(fmt.Sprintf("b%d", i))))
			// More q triples than p triples, so the join starts from p;
			// only b0 has one.
			st.Add(rdf.T(iri(fmt.Sprintf("x%d", i)), iri("q"), iri("c")))
		}
		st.Add(rdf.T(iri("b0"), iri("q"), iri("c")))
		e := New(st)
		q := sparql.MustParse(`SELECT ?a ?c WHERE { ?a <http://ex/p> ?b . ?b <http://ex/q> ?c }`)
		if res, err := e.Eval(q); err != nil || res.Len() != 1 {
			t.Fatalf("n=%d: rows=%v err=%v", n, res, err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := e.Eval(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Errorf("allocs/eval = %v for 1k intermediate rows, %v for 10k", small, large)
	}
}

// TestConcurrentEvalsAgree runs a mix of query shapes from several
// goroutines at once; evaluations share the pool of compiled runs, and
// each must return what it returns alone.
func TestConcurrentEvalsAgree(t *testing.T) {
	e := uniEngine()
	queries := []string{
		`SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p . ?s <http://ex/takesCourse> ?c . ?p <http://ex/teacherOf> ?c }`,
		`SELECT ?p ?u WHERE { VALUES (?p ?u) { (<http://ex/Tim> UNDEF) (UNDEF <http://ex/CMU>) (<http://ex/nobody> UNDEF) } ?p <http://ex/PhDDegreeFrom> ?u }`,
		`SELECT ?p ?c WHERE { ?s <http://ex/advisor> ?p . OPTIONAL { ?p <http://ex/teacherOf> ?c } }`,
		`SELECT DISTINCT ?p WHERE { ?s <http://ex/advisor> ?p . FILTER NOT EXISTS { ?p <http://ex/teacherOf> ?c } }`,
		`SELECT ?x WHERE { { ?x <http://ex/teacherOf> <http://ex/DB> } UNION { ?x <http://ex/teacherOf> <http://ex/OS> } }`,
		`SELECT (COUNT(DISTINCT ?u) AS ?n) WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`,
		`ASK { ?s <http://ex/advisor> ?p }`,
	}
	canon := func(res *sparql.Results) string { return fmt.Sprint(res.Ask, canonRows(res)) }
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = canon(eval(t, e, q))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (w + n) % len(queries)
				res, err := e.Eval(sparql.MustParse(queries[i]))
				if err != nil {
					t.Error(err)
					return
				}
				if got := canon(res); got != want[i] {
					t.Errorf("query %d: got %q, want %q", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
