package qfed

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

func smallFederation(t *testing.T) ([]endpoint.Endpoint, []*endpoint.Local) {
	t.Helper()
	graphs := Generate(Config{Drugs: 60, BigLiteralBytes: 256, Seed: 7})
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
	if len(graphs) != 4 {
		t.Fatalf("graphs = %d, want 4", len(graphs))
	}
	// DrugBank is the largest dataset, Diseasome among the smallest —
	// matching QFed's Table I proportions.
	if len(graphs[0]) <= len(graphs[1]) {
		t.Errorf("DrugBank (%d) should exceed Diseasome (%d)", len(graphs[0]), len(graphs[1]))
	}
	// Determinism.
	again := Generate(DefaultConfig())
	if !reflect.DeepEqual(graphs, again) {
		t.Error("generation not deterministic")
	}
}

func TestInterlinksResolve(t *testing.T) {
	graphs := Generate(Config{Drugs: 50, BigLiteralBytes: 128, Seed: 7})
	drugbank := store.FromGraph(graphs[0])
	count := 0
	for _, g := range graphs[1:] {
		for _, tr := range g {
			if tr.P == PredPossibleDrug || tr.P == PredGenericDrug || tr.P == PredSiderDrug {
				count++
				if drugbank.CountMatch(tr.O, rdf.IRI(rdf.RDFType), ClassDrug) != 1 {
					t.Fatalf("interlink %v does not resolve in DrugBank", tr.O)
				}
			}
		}
	}
	if count == 0 {
		t.Error("no interlinks generated")
	}
}

func TestBigLiteralSize(t *testing.T) {
	graphs := Generate(Config{Drugs: 5, BigLiteralBytes: 4096, Seed: 7})
	for _, tr := range graphs[0] {
		if tr.P == PredDescription && len(tr.O.Value) < 4096 {
			t.Errorf("description only %d bytes", len(tr.O.Value))
		}
	}
}

func TestQueriesParse(t *testing.T) {
	if len(Queries) != len(QueryOrder) {
		t.Errorf("QueryOrder lists %d, Queries has %d", len(QueryOrder), len(Queries))
	}
	for name, q := range Queries {
		if _, err := sparql.Parse(q); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range QueryOrder {
		if _, ok := Queries[name]; !ok {
			t.Errorf("QueryOrder references unknown query %s", name)
		}
	}
}

func TestQueriesReturnResults(t *testing.T) {
	_, locals := smallFederation(t)
	oracle := engine.New(testfed.UnionStore(locals...))
	for name, q := range Queries {
		res, err := oracle.Eval(sparql.MustParse(q))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Len() == 0 {
			t.Errorf("%s returns no results", name)
		}
	}
	// Filter variants are strictly more selective than their base.
	baseRes, _ := oracle.Eval(sparql.MustParse(Queries["C2P2"]))
	fRes, _ := oracle.Eval(sparql.MustParse(Queries["C2P2F"]))
	if fRes.Len() >= baseRes.Len() {
		t.Errorf("C2P2F (%d) should be more selective than C2P2 (%d)", fRes.Len(), baseRes.Len())
	}
}

func TestEnginesAgreeOnQFed(t *testing.T) {
	eps, locals := smallFederation(t)
	oracle := engine.New(testfed.UnionStore(locals...))
	for name, q := range Queries {
		want, err := oracle.Eval(sparql.MustParse(q))
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		cw := testfed.Canon(want)
		l := core.New(eps, core.Config{})
		got, err := l.Execute(context.Background(), q)
		if err != nil {
			t.Errorf("%s lusail: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(testfed.Canon(got), cw) {
			t.Errorf("%s: lusail differs from oracle (%d vs %d rows)", name, got.Len(), want.Len())
		}
		f := fedx.New(eps, fedx.Config{})
		got, err = f.Execute(context.Background(), q)
		if err != nil {
			t.Errorf("%s fedx: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(testfed.Canon(got), cw) {
			t.Errorf("%s: fedx differs from oracle (%d vs %d rows)", name, got.Len(), want.Len())
		}
	}
}
