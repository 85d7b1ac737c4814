package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// collectStream accumulates a streamed execution's chunks, checking
// the header stays identical across calls.
type collectStream struct {
	t      *testing.T
	vars   []sparql.Var
	rows   []sparql.Binding
	chunks int
}

func (c *collectStream) sink(vars []sparql.Var, rows []sparql.Binding) error {
	c.t.Helper()
	if c.chunks == 0 {
		c.vars = append([]sparql.Var(nil), vars...)
	} else if !reflect.DeepEqual(c.vars, vars) {
		c.t.Errorf("chunk %d header = %v, want stable %v", c.chunks, vars, c.vars)
	}
	c.rows = append(c.rows, rows...)
	c.chunks++
	return nil
}

func (c *collectStream) results() *sparql.Results {
	return &sparql.Results{Vars: c.vars, Rows: c.rows}
}

// TestExecuteStreamMatchesExecute: the streamed row multiset must be
// identical to the drained result's over a spread of query shapes
// (pure streaming, bound phase-2, OPTIONAL, FILTER, UNION).
func TestExecuteStreamMatchesExecute(t *testing.T) {
	queries := []struct {
		name, q string
	}{
		{"disjoint-single-subquery", `SELECT ?s ?p ?c WHERE {
			?s <http://ex/advisor> ?p .
			?s <http://ex/takesCourse> ?c .
		}`},
		{"qa", testfed.Qa},
		{"qa-chain", testfed.QaChain},
		{"filter", `SELECT ?S ?A WHERE {
			?S <http://ex/advisor> ?P .
			?P <http://ex/PhDDegreeFrom> ?U .
			?U <http://ex/address> ?A .
			FILTER (?A = "XXX")
		}`},
		{"optional", `SELECT ?S ?P ?C WHERE {
			?S <http://ex/advisor> ?P .
			OPTIONAL { ?P <http://ex/teacherOf> ?C }
		}`},
		{"union", `SELECT ?x WHERE {
			{ ?x <http://ex/teacherOf> ?c } UNION { ?x <http://ex/PhDDegreeFrom> ?u }
		}`},
		{"star", `SELECT * WHERE {
			?s <http://ex/advisor> ?p .
		}`},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			l, _ := newUniLusail(Config{})
			want, err := l.Execute(context.Background(), tc.q)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			c := &collectStream{t: t}
			res, _, err := l.ExecuteStream(context.Background(), tc.q, c.sink)
			if err != nil {
				t.Fatalf("ExecuteStream: %v", err)
			}
			cg, cw := testfed.Canon(c.results()), testfed.Canon(want)
			if !reflect.DeepEqual(cg, cw) {
				t.Errorf("streamed rows differ from materialized.\n got: %v\nwant: %v", cg, cw)
			}
			if res.Len() != want.Len() {
				t.Errorf("summary Len() = %d, want %d", res.Len(), want.Len())
			}
			if res.Streamed != len(c.rows) {
				t.Errorf("Streamed = %d, delivered %d", res.Streamed, len(c.rows))
			}
		})
	}
}

// TestExecuteStreamLimitStopsEarly: LIMIT truncates the stream at
// exactly the requested row count and reports success.
func TestExecuteStreamLimitStopsEarly(t *testing.T) {
	l, _ := newUniLusail(Config{})
	q := `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p } LIMIT 2`
	c := &collectStream{t: t}
	res, _, err := l.ExecuteStream(context.Background(), q, c.sink)
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	if len(c.rows) != 2 || res.Len() != 2 {
		t.Errorf("delivered %d rows (Len %d), want 2", len(c.rows), res.Len())
	}
	// Every delivered row must appear in the unlimited result.
	full, err := l.Execute(context.Background(), `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	valid := map[string]bool{}
	for _, k := range testfed.Canon(full) {
		valid[k] = true
	}
	for _, k := range testfed.Canon(c.results()) {
		if !valid[k] {
			t.Errorf("streamed row %q not in the full result", k)
		}
	}
}

// TestExecuteStreamOffset: OFFSET skips rows before delivery.
func TestExecuteStreamOffset(t *testing.T) {
	l, _ := newUniLusail(Config{})
	q := `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p } OFFSET 1`
	c := &collectStream{t: t}
	res, _, err := l.ExecuteStream(context.Background(), q, c.sink)
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	if res.Len() != 3 { // 4 advisor edges in the fixture
		t.Errorf("Len = %d, want 3 (4 rows, offset 1)", res.Len())
	}
}

// TestExecuteStreamFallbackModifiers: DISTINCT / ORDER BY / ASK drain
// and finalize the stream; SELECT results arrive as one chunk.
func TestExecuteStreamFallbackModifiers(t *testing.T) {
	l, _ := newUniLusail(Config{})
	q := `SELECT DISTINCT ?p WHERE { ?s <http://ex/advisor> ?p }`
	want, err := l.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	c := &collectStream{t: t}
	res, _, err := l.ExecuteStream(context.Background(), q, c.sink)
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	if c.chunks != 1 {
		t.Errorf("chunks = %d, want 1 (drained and finalized)", c.chunks)
	}
	if !reflect.DeepEqual(testfed.Canon(c.results()), testfed.Canon(want)) {
		t.Errorf("fallback rows differ from Execute")
	}
	if res.Len() != want.Len() {
		t.Errorf("Len = %d, want %d", res.Len(), want.Len())
	}

	// ASK: no chunks, boolean result.
	ask := `ASK { ?s <http://ex/advisor> ?p }`
	c2 := &collectStream{t: t}
	ares, _, err := l.ExecuteStream(context.Background(), ask, c2.sink)
	if err != nil {
		t.Fatalf("ExecuteStream(ASK): %v", err)
	}
	if c2.chunks != 0 {
		t.Errorf("ASK delivered %d chunks, want 0", c2.chunks)
	}
	if !ares.AskForm || !ares.Ask {
		t.Errorf("ASK result = %+v, want true", ares)
	}
}

// TestExecuteStreamSinkAbort: a sink error cancels the query and
// surfaces unchanged.
func TestExecuteStreamSinkAbort(t *testing.T) {
	l, _ := newUniLusail(Config{})
	boom := context.DeadlineExceeded
	_, _, err := l.ExecuteStream(context.Background(),
		`SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`,
		func(vars []sparql.Var, rows []sparql.Binding) error { return boom })
	if err != boom {
		t.Errorf("err = %v, want the sink's own error", err)
	}
}

// TestExecuteStreamDegradeDrop: a dead endpoint under skip-endpoint
// degradation drops its contribution mid-stream; the surviving rows
// flow and the summary reports incompleteness — PR-4 semantics hold
// per-chunk.
func TestExecuteStreamDegradeDrop(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	dead := endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true})
	l := New([]endpoint.Endpoint{ep1, dead}, Config{Degradation: endpoint.DegradeSkipEndpoint})

	q := `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`
	want, err := l.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	c := &collectStream{t: t}
	res, m, err := l.ExecuteStream(context.Background(), q, c.sink)
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	if !reflect.DeepEqual(testfed.Canon(c.results()), testfed.Canon(want)) {
		t.Errorf("degraded streamed rows differ from degraded Execute")
	}
	if res.Completeness == nil || res.Completeness.Complete {
		t.Errorf("Completeness = %+v, want incomplete", res.Completeness)
	}
	if m.DroppedEndpoints == 0 {
		t.Error("DroppedEndpoints = 0, want > 0")
	}
}

// TestRunBudgetExpiredDropsDelayed: with a BestEffort budget already
// expired, the executor skips the remaining delayed subqueries
// (annotating them as dropped) but still streams the tail.
func TestRunBudgetExpiredDropsDelayed(t *testing.T) {
	ex := NewExecutor(accountingFederation(2))
	tail := &Subquery{
		Patterns: []sparql.TriplePattern{{
			S: sparql.V("s"), P: sparql.C(testfed.IRI("p")), O: sparql.V("o"),
		}},
		Sources:  []int{0, 1},
		ProjVars: []sparql.Var{"s", "o"},
	}
	delayed := &Subquery{
		ID: 1,
		Patterns: []sparql.TriplePattern{{
			S: sparql.V("x"), P: sparql.C(testfed.IRI("q")), O: sparql.V("y"),
		}},
		Sources:  []int{0, 1},
		ProjVars: []sparql.Var{"x", "y"},
		Delayed:  true,
	}
	// Expired budget: deadline in the past.
	dg := endpoint.NewDegrade(endpoint.DegradeBestEffort, time.Now().Add(-time.Second))
	ctx := endpoint.WithDegrade(context.Background(), dg)

	delivered := 0
	stats, err := ex.Run(ctx, []*Subquery{tail, delayed}, nil, nil, nil, nil,
		func(vars []sparql.Var, rows []sparql.Binding) error {
			delivered += len(rows)
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Phase2Requests != 0 {
		t.Errorf("Phase2Requests = %d, want 0 (budget expired before phase 2)", stats.Phase2Requests)
	}
	if stats.Dropped == 0 {
		t.Error("Dropped = 0, want the delayed subquery annotated as dropped")
	}
	// The patterns here match nothing (accountingFederation stores
	// <http://ex/p> triples, which IS the tail pattern), so the tail
	// still streams its rows.
	if delivered == 0 {
		t.Error("tail delivered no rows despite expired budget")
	}
}
