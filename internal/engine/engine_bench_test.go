package engine

import (
	"fmt"
	"strings"
	"testing"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// benchStore builds a star-schema graph: people with types, ages,
// friendships, and city links.
func benchStore(n int) *store.Store {
	st := store.New()
	typ := rdf.IRI(rdf.RDFType)
	for i := 0; i < n; i++ {
		p := iri(fmt.Sprintf("person%d", i))
		st.Add(rdf.T(p, typ, iri("Person")))
		st.Add(rdf.T(p, iri("age"), rdf.Integer(int64(i%90))))
		st.Add(rdf.T(p, iri("knows"), iri(fmt.Sprintf("person%d", (i*7+1)%n))))
		st.Add(rdf.T(p, iri("livesIn"), iri(fmt.Sprintf("city%d", i%50))))
	}
	return st
}

func benchEval(b *testing.B, n int, query string) {
	e := New(benchStore(n))
	q := sparql.MustParse(query)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalSinglePattern(b *testing.B) {
	benchEval(b, 10000, `SELECT ?p WHERE { ?p <http://ex/livesIn> <http://ex/city7> }`)
}

func BenchmarkEvalChainJoin(b *testing.B) {
	benchEval(b, 5000, `SELECT ?a ?c WHERE {
		?a <http://ex/knows> ?b .
		?b <http://ex/knows> ?c .
		?c <http://ex/livesIn> <http://ex/city3> .
	}`)
}

func BenchmarkEvalStarWithFilter(b *testing.B) {
	benchEval(b, 5000, `SELECT ?p ?age WHERE {
		?p a <http://ex/Person> .
		?p <http://ex/age> ?age .
		?p <http://ex/livesIn> <http://ex/city1> .
		FILTER (?age > 30 && ?age < 40)
	}`)
}

func BenchmarkEvalAsk(b *testing.B) {
	benchEval(b, 10000, `ASK { ?p <http://ex/livesIn> <http://ex/city49> }`)
}

func BenchmarkEvalCount(b *testing.B) {
	benchEval(b, 10000, `SELECT (COUNT(*) AS ?c) WHERE { ?p <http://ex/knows> ?q }`)
}

func BenchmarkEvalNotExists(b *testing.B) {
	// The shape of Lusail's check queries.
	benchEval(b, 5000, `SELECT ?p WHERE {
		?p <http://ex/knows> ?q .
		FILTER NOT EXISTS { ?q <http://ex/livesIn> <http://ex/city0> }
	} LIMIT 1`)
}

// BenchmarkEvalValuesBound is the shape of Lusail's phase-2 bound
// subqueries: one rdf:type pattern joined with a 100-row VALUES block
// over 10k subjects.
func BenchmarkEvalValuesBound(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`SELECT ?p ?c WHERE { ?p a <http://ex/Person> . ?p <http://ex/livesIn> ?c . VALUES ?p {`)
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, " <http://ex/person%d>", i*97)
	}
	sb.WriteString(" } }")
	benchEval(b, 10000, sb.String())
}

// BenchmarkEvalStar6 runs LUBM Q1 — three type patterns and a
// triangle of three links — over one generated university.
func BenchmarkEvalStar6(b *testing.B) {
	st := store.New()
	for _, g := range lubm.Generate(lubm.DefaultConfig(1)) {
		st.AddGraph(g)
	}
	e := New(st)
	q := sparql.MustParse(lubm.Q1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	query := `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT DISTINCT ?x ?y WHERE {
	?x a ub:GraduateStudent .
	?x ub:advisor ?y .
	OPTIONAL { ?y ub:teacherOf ?c }
	FILTER (STRSTARTS(STR(?x), "http://"))
} ORDER BY ?x LIMIT 100`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	q := sparql.MustParse(`SELECT ?x ?y WHERE {
		?x <http://ex/a> ?y .
		OPTIONAL { ?y <http://ex/b> ?z }
		FILTER (?y != <http://ex/nothing>)
	} LIMIT 10`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.String()
	}
}
