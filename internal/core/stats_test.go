package core

import (
	"context"
	"reflect"
	"testing"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/stats"
	"lusail/internal/testfed"
)

// TestStatisticsWarmPlanningNeedsNoProbes is the tentpole acceptance
// check at engine scope: with harvested summaries, the very first
// execution of a query plans without a single ASK, check, or COUNT
// request — and returns exactly the answers the probe-based plan does.
func TestStatisticsWarmPlanningNeedsNoProbes(t *testing.T) {
	ctx := context.Background()

	// Ground truth from a probe-based engine over its own fixture copy.
	g1, g2 := testfed.Universities()
	plain := New([]endpoint.Endpoint{g1, g2}, Config{})
	want, err := plain.Execute(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}

	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Statistics: &stats.Config{}})
	if err := l.RefreshStats(ctx); err != nil {
		t.Fatalf("refresh stats: %v", err)
	}
	if st := l.StatsSnapshot(); st.Summaries != 2 {
		t.Fatalf("Summaries = %d, want 2", st.Summaries)
	}

	res, m, err := l.ExecuteMetrics(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(res), testfed.Canon(want)) {
		t.Errorf("summary-planned results differ:\n got %v\nwant %v",
			testfed.Canon(res), testfed.Canon(want))
	}
	if m.AskRequests != 0 || m.CheckQueries != 0 || m.CountQueries != 0 {
		t.Errorf("plan-time requests = ask %d / check %d / count %d, want 0/0/0",
			m.AskRequests, m.CheckQueries, m.CountQueries)
	}
	if m.SummaryHits == 0 {
		t.Error("no plan questions answered from summaries")
	}
}

// TestStatisticsChurnRestoresProbes: churn on one endpoint must fence
// exactly that endpoint's summary — the next query probes it again
// (and still answers correctly), while the quiet endpoint keeps
// answering from its summary.
func TestStatisticsChurnRestoresProbes(t *testing.T) {
	ctx := context.Background()
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Statistics: &stats.Config{}})
	if err := l.RefreshStats(ctx); err != nil {
		t.Fatal(err)
	}
	want, m1, err := l.ExecuteMetrics(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if got := m1.AskRequests + m1.CheckQueries + m1.CountQueries; got != 0 {
		t.Fatalf("warm plan requests = %d, want 0", got)
	}

	// Churn EP2 with a predicate Qa never touches: the answers must not
	// change, but the coherence fence must still drop EP2's summary.
	ep2.ApplyChurn(rdf.Graph{
		rdf.T(testfed.IRI("Tim"), testfed.IRI("mentor"), testfed.IRI("Kim")),
	}, nil)

	res, m2, err := l.ExecuteMetrics(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(res), testfed.Canon(want)) {
		t.Error("post-churn results differ")
	}
	if m2.AskRequests == 0 {
		t.Error("churned endpoint was not re-probed")
	}
	if m2.SummaryHits == 0 {
		t.Error("quiet endpoint's summary stopped answering")
	}
	if st := l.StatsSnapshot(); st.Summaries != 1 {
		t.Errorf("Summaries after churn = %d, want 1 (EP2 dropped)", st.Summaries)
	}
}

// TestStatisticsCalibrationObserves: with calibration on, executions
// feed estimated-vs-actual cardinalities into the correction factors.
func TestStatisticsCalibrationObserves(t *testing.T) {
	ctx := context.Background()
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Statistics: &stats.Config{Calibrate: true}})
	if err := l.RefreshStats(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Execute(ctx, testfed.Qa); err != nil {
		t.Fatal(err)
	}
	// On this tiny fixture the summary estimates can be exact, in which
	// case no factor moves — but the observations must flow regardless.
	// Factor-update mechanics are covered by the stats package tests.
	if st := l.StatsSnapshot(); st.Observations == 0 {
		t.Error("no calibration observations after an execution")
	}
}

// TestStatisticsCalibrationObservesStreaming: the pipelined executor
// must feed the calibrator too — the server's default JSON path
// streams, and a silent calibration gap there would leave production
// estimates untuned.
func TestStatisticsCalibrationObservesStreaming(t *testing.T) {
	ctx := context.Background()
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Statistics: &stats.Config{Calibrate: true}})
	if err := l.RefreshStats(ctx); err != nil {
		t.Fatal(err)
	}
	_, _, err := l.ExecuteStream(ctx, testfed.Qa, func(vars []sparql.Var, rows []sparql.Binding) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st := l.StatsSnapshot(); st.Observations == 0 {
		t.Error("no calibration observations after a streamed execution")
	}
}

// TestReplanPromotesDelayed drives the mid-query replan hook at the
// executor level: a phase-1 overshoot patches the estimate, the delay
// partition is recomputed, and the formerly-delayed subquery runs
// unbound instead of bound.
func TestReplanPromotesDelayed(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	ex.ReplanOvershoot = 2
	ex.DelayPolicy = DelayAll
	var observedEst []float64
	ex.Observe = func(sq *Subquery, actual int) {
		observedEst = append(observedEst, sq.EstCard)
	}

	sqA := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"s", "p"},
		OptionalGroup: -1, EstCard: 1,
	}
	sqB := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"p", "u"},
		OptionalGroup: -1, EstCard: 1, Delayed: true,
	}
	rel, stats, err := runDrained(context.Background(), ex, []*Subquery{sqA, sqB}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// advisor yields 4 rows against an estimate of 1: overshoot. Under
	// DelayAll the recomputed partition keeps only the cheapest subquery
	// eager — now sqB (card 1 vs the corrected 4) — so it is promoted.
	if stats.Replans != 1 {
		t.Fatalf("Replans = %d, want 1", stats.Replans)
	}
	if stats.BoundBlocks != 0 {
		t.Errorf("BoundBlocks = %d, want 0 (promoted subquery must run unbound)", stats.BoundBlocks)
	}
	if sqA.EstCard != 4 {
		t.Errorf("sqA.EstCard = %v, want patched to 4", sqA.EstCard)
	}
	// The observation must see the estimate the plan was made with, not
	// the patched value.
	if len(observedEst) != 1 || observedEst[0] != 1 {
		t.Errorf("observed estimates = %v, want [1]", observedEst)
	}
	if len(rel.Rows) != 4 {
		t.Errorf("joined rows = %d, want 4", len(rel.Rows))
	}
}

// TestReplanDisabledKeepsDelayed: without an overshoot factor the
// executor never replans, and the delayed subquery runs bound.
func TestReplanDisabledKeepsDelayed(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	sqA := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"s", "p"},
		OptionalGroup: -1, EstCard: 1,
	}
	sqB := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"p", "u"},
		OptionalGroup: -1, EstCard: 1, Delayed: true,
	}
	rel, stats, err := runDrained(context.Background(), ex, []*Subquery{sqA, sqB}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replans != 0 {
		t.Fatalf("Replans = %d, want 0", stats.Replans)
	}
	if stats.BoundBlocks == 0 {
		t.Error("delayed subquery did not run bound")
	}
	if len(rel.Rows) != 4 {
		t.Errorf("joined rows = %d, want 4", len(rel.Rows))
	}
}

// TestReplanPromotesDelayedBesideStreamedTail: re-planning must not
// depend on the plan's shape. Here a tail (takesCourse, sharing no
// variable with the delayed subquery) streams while the advisor
// subquery overshoots its estimate; the delayed PhDDegreeFrom subquery
// must still be promoted and run unbound. The pipelined executor used
// to skip the replan hook whenever it elected a tail.
func TestReplanPromotesDelayedBesideStreamedTail(t *testing.T) {
	plan := func() []*Subquery {
		mk := func(text string, proj []sparql.Var, est float64, delayed bool) *Subquery {
			return &Subquery{
				Patterns: sparql.MustParse(text).Where.Patterns,
				Sources:  []int{0, 1}, ProjVars: proj,
				OptionalGroup: -1, EstCard: est, Delayed: delayed,
			}
		}
		return []*Subquery{
			mk(`SELECT * WHERE { ?s <http://ex/takesCourse> ?c }`, []sparql.Var{"s", "c"}, 10, false),
			mk(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`, []sparql.Var{"s", "p"}, 1, false),
			mk(`SELECT * WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`, []sparql.Var{"p", "u"}, 1, true),
		}
	}
	if tail := pickStreamTail(plan()[:2], plan()[2:]); tail == nil || tail.Patterns[0].P.Term != testfed.IRI("takesCourse") {
		t.Fatalf("fixture must elect the takesCourse tail, got %v", tail)
	}

	ex := NewExecutor(uniEndpoints())
	ex.ReplanOvershoot = 2
	ex.DelayPolicy = DelayAll
	got, stats, err := runDrained(context.Background(), ex, plan(), nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replans != 1 {
		t.Errorf("Replans = %d, want 1", stats.Replans)
	}
	if stats.BoundBlocks != 0 {
		t.Errorf("BoundBlocks = %d, want 0 (promoted subquery must run unbound)", stats.BoundBlocks)
	}

	want, wantStats, err := runDrained(context.Background(), NewExecutor(uniEndpoints()), plan(), nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.BoundBlocks == 0 {
		t.Fatal("control run without replan did not bind the delayed subquery")
	}
	canon := func(r *Relation) []string { return testfed.Canon(&sparql.Results{Vars: r.Vars, Rows: r.Rows}) }
	if len(got.Rows) == 0 || !reflect.DeepEqual(canon(got), canon(want)) {
		t.Errorf("replanned rows differ from the bound plan's.\n got: %v\nwant: %v", canon(got), canon(want))
	}
}
