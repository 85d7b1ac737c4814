package store

import (
	"fmt"
	"testing"

	"lusail/internal/rdf"
)

func benchGraph(n int) rdf.Graph {
	g := make(rdf.Graph, 0, n)
	for i := 0; i < n; i++ {
		g = append(g, rdf.T(
			iri(fmt.Sprintf("s%d", i%1000)),
			iri(fmt.Sprintf("p%d", i%10)),
			iri(fmt.Sprintf("o%d", i%500)),
		))
	}
	return g
}

func BenchmarkAdd(b *testing.B) {
	g := benchGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		st.AddGraph(g)
	}
	b.ReportMetric(float64(len(g)), "triples/op")
}

func BenchmarkMatchBySubject(b *testing.B) {
	st := FromGraph(benchGraph(100000))
	s := iri("s42")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := st.View()
		si, _ := v.Lookup(s)
		for it := v.Match(si, Any, Any); ; {
			if _, _, _, ok := it.Next(); !ok {
				break
			}
		}
		v.Release()
	}
}

func BenchmarkMatchByPredicate(b *testing.B) {
	st := FromGraph(benchGraph(100000))
	p := iri("p3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.CountMatch(rdf.Term{}, p, rdf.Term{})
	}
}

func BenchmarkContains(b *testing.B) {
	st := FromGraph(benchGraph(100000))
	tr := rdf.T(iri("s1"), iri("p1"), iri("o1"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Contains(tr)
	}
}

func BenchmarkPredicateStats(b *testing.B) {
	st := FromGraph(benchGraph(100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Invalidate so each iteration rebuilds (the preprocessing
		// path SPLENDID pays).
		st.Add(rdf.T(iri(fmt.Sprintf("fresh%d", i)), iri("p0"), iri("o0")))
		st.AllPredicateStats()
	}
}
