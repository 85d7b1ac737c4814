package largerdf

import (
	"context"
	"reflect"
	"testing"

	"lusail/internal/baseline/fedx"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

func federation(t *testing.T) ([]endpoint.Endpoint, []*endpoint.Local) {
	t.Helper()
	graphs := Generate(DefaultConfig())
	eps := make([]endpoint.Endpoint, len(graphs))
	locals := make([]*endpoint.Local, len(graphs))
	for i, g := range graphs {
		l := endpoint.NewLocal(EndpointNames[i], store.FromGraph(g))
		eps[i], locals[i] = l, l
	}
	return eps, locals
}

func TestGenerateShape(t *testing.T) {
	graphs := Generate(DefaultConfig())
	if len(graphs) != 13 {
		t.Fatalf("graphs = %d, want 13", len(graphs))
	}
	// TCGA-M is the largest endpoint, SWDF among the smallest
	// (Table I proportions).
	if len(graphs[TCGAM]) <= len(graphs[SWDF]) {
		t.Error("TCGA-M should dwarf SWDF")
	}
	if len(graphs[TCGAM]) <= len(graphs[TCGAA]) {
		t.Error("TCGA-M should exceed TCGA-A")
	}
	if !reflect.DeepEqual(graphs, Generate(DefaultConfig())) {
		t.Error("generation not deterministic")
	}
}

func TestAllQueriesParse(t *testing.T) {
	total := 0
	for _, cat := range CategoryOrder {
		for _, name := range QueryNames(cat) {
			q, ok := Categories[cat][name]
			if !ok {
				t.Errorf("query %s missing from category %s", name, cat)
				continue
			}
			if _, err := sparql.Parse(q); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			total++
		}
	}
	if total != 29 {
		t.Errorf("total queries = %d, want 29 (14 S + 9 C + 6 B)", total)
	}
}

func TestAllQueriesReturnResults(t *testing.T) {
	_, locals := federation(t)
	oracle := engine.New(testfed.UnionStore(locals...))
	for _, cat := range CategoryOrder {
		for _, name := range QueryNames(cat) {
			res, err := oracle.Eval(sparql.MustParse(Categories[cat][name]))
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if res.Len() == 0 {
				t.Errorf("%s returns no results", name)
			}
		}
	}
}

func TestLargeQueriesAreLarger(t *testing.T) {
	_, locals := federation(t)
	oracle := engine.New(testfed.UnionStore(locals...))
	size := func(cat string) int {
		total := 0
		for _, name := range QueryNames(cat) {
			res, err := oracle.Eval(sparql.MustParse(Categories[cat][name]))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			total += res.Len()
		}
		return total / len(QueryNames(cat))
	}
	s, b := size("S"), size("B")
	if b <= s {
		t.Errorf("B queries (avg %d rows) should exceed S queries (avg %d rows)", b, s)
	}
}

func TestLusailMatchesOracleOnAllQueries(t *testing.T) {
	eps, locals := federation(t)
	oracle := engine.New(testfed.UnionStore(locals...))
	l := core.New(eps, core.Config{})
	for _, cat := range CategoryOrder {
		for _, name := range QueryNames(cat) {
			q := Categories[cat][name]
			want, err := oracle.Eval(sparql.MustParse(q))
			if err != nil {
				t.Fatalf("%s oracle: %v", name, err)
			}
			got, err := l.Execute(context.Background(), q)
			if err != nil {
				t.Errorf("%s lusail: %v", name, err)
				continue
			}
			if !reflect.DeepEqual(testfed.Canon(got), testfed.Canon(want)) {
				t.Errorf("%s: lusail %d rows, oracle %d rows", name, got.Len(), want.Len())
			}
		}
	}
}

func TestFedXMatchesOracleOnSimpleQueries(t *testing.T) {
	// FedX on every S query (C/B through FedX run long; covered by the
	// benchmark harness).
	eps, locals := federation(t)
	oracle := engine.New(testfed.UnionStore(locals...))
	f := fedx.New(eps, fedx.Config{})
	for _, name := range QueryNames("S") {
		q := SimpleQueries[name]
		want, err := oracle.Eval(sparql.MustParse(q))
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		got, err := f.Execute(context.Background(), q)
		if err != nil {
			t.Errorf("%s fedx: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(testfed.Canon(got), testfed.Canon(want)) {
			t.Errorf("%s: fedx %d rows, oracle %d rows", name, got.Len(), want.Len())
		}
	}
}

func TestScaleGrowsAllDatasets(t *testing.T) {
	small := Generate(Config{Scale: 1, Seed: 11})
	big := Generate(Config{Scale: 2, Seed: 11})
	for i := range small {
		if len(big[i]) <= len(small[i]) {
			t.Errorf("%s did not grow with scale", EndpointNames[i])
		}
	}
}

func TestInterlinksResolveAcrossDatasets(t *testing.T) {
	graphs := Generate(DefaultConfig())
	stores := make([]*store.Store, len(graphs))
	for i, g := range graphs {
		stores[i] = store.FromGraph(g)
	}
	cases := []struct {
		name    string
		fromIdx int
		pred    string
		toIdx   int
	}{
		{"DBPedia->GeoNames", DBPedia, rdf.OWLSameAs, GeoNames},
		{"KEGG->ChEBI", KEGG, NSKEGG + "chebiId", ChEBI},
		{"DrugBank->KEGG", DrugBank, NSDrugB + "keggCompoundId", KEGG},
		{"Jamendo->GeoNames", Jamendo, NSJam + "basedNear", GeoNames},
		{"NYT->DBPedia", NYTimes, rdf.OWLSameAs, DBPedia},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			found := 0
			for _, tr := range graphs[c.fromIdx] {
				if tr.P.Value != c.pred {
					continue
				}
				if stores[c.toIdx].CountMatch(tr.O, rdf.Term{}, rdf.Term{}) > 0 {
					found++
				}
			}
			if found == 0 {
				t.Errorf("no resolvable %s interlinks", c.name)
			}
		})
	}
}
