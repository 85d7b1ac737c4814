package lusail

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"lusail/internal/rdf"
)

const ep1Data = `<http://ex/Lee> <http://ex/advisor> <http://ex/Ben> .
<http://ex/Ben> <http://ex/PhDDegreeFrom> <http://ex/MIT> .
<http://ex/MIT> <http://ex/address> "XXX" .
`

const ep2Data = `<http://ex/Kim> <http://ex/advisor> <http://ex/Tim> .
<http://ex/Tim> <http://ex/PhDDegreeFrom> <http://ex/MIT> .
`

const crossQuery = `SELECT ?s ?a WHERE {
	?s <http://ex/advisor> ?p .
	?p <http://ex/PhDDegreeFrom> ?u .
	?u <http://ex/address> ?a .
}`

func twoEndpoints(t *testing.T) (*MemoryEndpoint, *MemoryEndpoint) {
	t.Helper()
	ep1, err := LoadEndpoint("ep1", strings.NewReader(ep1Data))
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := LoadEndpoint("ep2", strings.NewReader(ep2Data))
	if err != nil {
		t.Fatal(err)
	}
	return ep1, ep2
}

func TestFederationQueryAcrossEndpoints(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2})
	res, err := fed.Query(context.Background(), crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Lee (local chain at ep1) and Kim (Tim's MIT address lives at
	// ep1: the interlink).
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2: %v", res.Len(), res.Rows)
	}
	m := fed.Metrics()
	if m.Subqueries == 0 || m.Total() <= 0 {
		t.Errorf("metrics incomplete: %+v", m)
	}
	if len(fed.Endpoints()) != 2 {
		t.Error("Endpoints() wrong")
	}
}

func TestOptionsApply(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2},
		WithDelayPolicy(DelayMu2Sigma),
		WithBindBlockSize(5),
		WithWorkers(2),
		WithCaching(CachingOff),
	)
	if _, err := fed.Query(context.Background(), crossQuery); err != nil {
		t.Fatal(err)
	}
}

func TestLoadEndpointErrors(t *testing.T) {
	if _, err := LoadEndpoint("bad", strings.NewReader("not ntriples")); err == nil {
		t.Error("bad N-Triples accepted")
	}
}

func TestNewEndpointAndStore(t *testing.T) {
	ep := NewEndpoint("fresh")
	ep.Store().Add(rdf.T(rdf.IRI("http://ex/a"), rdf.IRI("http://ex/p"), rdf.Literal("v")))
	res, err := ep.Query(context.Background(), `ASK { ?s <http://ex/p> "v" }`)
	if err != nil || !res.Ask {
		t.Errorf("ask = %+v err=%v", res, err)
	}
}

func TestServeAndConnectHTTP(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	srv1 := httptest.NewServer(Serve(ep1))
	defer srv1.Close()
	srv2 := httptest.NewServer(Serve(ep2))
	defer srv2.Close()

	fed := New([]Endpoint{
		ConnectHTTP("ep1", srv1.URL),
		ConnectHTTP("ep2", srv2.URL),
	})
	res, err := fed.Query(context.Background(), crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows over HTTP = %d, want 2", res.Len())
	}
}

func TestNewBaseline(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	eps := []Endpoint{ep1, ep2}
	for _, name := range []string{"fedx", "splendid", "hibiscus", "naive"} {
		eng, err := NewBaseline(name, eps)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		res, err := eng.Execute(context.Background(), crossQuery)
		if err != nil {
			t.Errorf("%s execute: %v", name, err)
			continue
		}
		if res.Len() != 2 {
			t.Errorf("%s rows = %d, want 2", name, res.Len())
		}
	}
	if _, err := NewBaseline("nope", eps); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestAskThroughPublicAPI(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2})
	res, err := fed.Query(context.Background(), `ASK { <http://ex/Tim> <http://ex/PhDDegreeFrom> ?u }`)
	if err != nil || !res.AskForm || !res.Ask {
		t.Errorf("ask = %+v err = %v", res, err)
	}
}

func TestExplainThroughPublicAPI(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2})
	plan, err := fed.Explain(context.Background(), crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subqueries) < 2 {
		t.Errorf("plan subqueries = %d, want >= 2", len(plan.Subqueries))
	}
	if !strings.Contains(plan.String(), "subquery") {
		t.Errorf("plan text = %q", plan.String())
	}
}

func TestQueryBatchThroughPublicAPI(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2})
	batch := fed.QueryBatch(context.Background(), []string{crossQuery, crossQuery})
	if len(batch) != 2 {
		t.Fatalf("batch = %d results", len(batch))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Errorf("batch %d: %v", i, br.Err)
			continue
		}
		if br.Results.Len() != 2 {
			t.Errorf("batch %d rows = %d, want 2", i, br.Results.Len())
		}
	}
	if fed.Metrics().SharedSubqueries == 0 {
		t.Error("identical batch queries should share subquery executions")
	}
}

func TestObservabilityThroughPublicAPI(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2}, WithInstrumentation())
	ctx := context.Background()

	res, m, err := fed.QueryMetrics(ctx, crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || m.RemoteRequests() == 0 {
		t.Errorf("rows = %d, requests = %d", res.Len(), m.RemoteRequests())
	}

	res, m, tr, err := fed.QueryTraced(ctx, crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || m.Total() <= 0 {
		t.Errorf("traced rows = %d, total = %s", res.Len(), m.Total())
	}
	if tr == nil || !strings.Contains(tr.String(), "phase1") {
		t.Fatalf("trace missing phase1 span:\n%s", tr.String())
	}

	an, err := fed.ExplainAnalyze(ctx, crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an.String(), "→ actual") {
		t.Errorf("analysis text missing actuals:\n%s", an.String())
	}

	stats := fed.EndpointStats()
	if len(stats) != 2 {
		t.Fatalf("endpoint stats = %d entries, want 2", len(stats))
	}
	for _, es := range stats {
		if es.Stats.Latency.Count() == 0 {
			t.Errorf("%s: no latency observations despite WithInstrumentation", es.Name)
		}
	}
}
