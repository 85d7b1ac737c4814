package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// versionedStub is a minimal endpoint with a controllable data
// version and probe failure switch.
type versionedStub struct {
	name string
	v    uint64
	fail bool
}

func (s *versionedStub) Name() string { return s.name }
func (s *versionedStub) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return &sparql.Results{}, nil
}
func (s *versionedStub) DataVersion(ctx context.Context) (uint64, error) {
	if s.fail {
		return 0, errors.New("probe refused")
	}
	return s.v, nil
}

func TestCoherenceRefreshDetectsChange(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	var invalidated []string
	c := cache.NewCoherence([]endpoint.Endpoint{ep1, ep2}, 0, cache.Enforce,
		func(name string) { invalidated = append(invalidated, name) })

	// First probe establishes the baseline; nothing has "changed" yet.
	c.Refresh(context.Background())
	if len(invalidated) != 0 {
		t.Fatalf("baseline probe invalidated %v", invalidated)
	}
	st := c.Stats()
	if st.Probes != 2 || st.Changes != 0 {
		t.Fatalf("baseline stats = %+v", st)
	}

	// A churn batch on one endpoint: exactly that endpoint invalidates.
	ep1.ApplyChurn(rdf.Graph{rdf.T(testfed.IRI("new"), testfed.IRI("p"), rdf.Literal("v"))}, nil)
	c.Refresh(context.Background())
	if !reflect.DeepEqual(invalidated, []string{ep1.Name()}) {
		t.Errorf("invalidated %v, want [%s]", invalidated, ep1.Name())
	}
	if st := c.Stats(); st.Changes != 1 {
		t.Errorf("changes = %d, want 1", st.Changes)
	}

	// Unchanged versions on later refreshes fire nothing.
	c.Refresh(context.Background())
	if len(invalidated) != 1 {
		t.Errorf("steady-state refresh re-invalidated: %v", invalidated)
	}
}

// Observe mode tracks and counts version changes but never invalidates.
func TestCoherenceObserveNeverInvalidates(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	fired := 0
	c := cache.NewCoherence([]endpoint.Endpoint{ep1, ep2}, 0, cache.Observe,
		func(string) { fired++ })
	c.Refresh(context.Background())
	ep1.BumpDataVersion()
	c.Refresh(context.Background())
	if fired != 0 {
		t.Errorf("observe mode invalidated %d times", fired)
	}
	if st := c.Stats(); st.Changes != 1 {
		t.Errorf("observe mode must still count changes: %+v", st)
	}
	if c.Enforcing() {
		t.Error("observe mode reports Enforcing")
	}
}

// A probe failure is conservative: the endpoint keeps its last tracked
// version (entries stamped with it stay servable), the error is
// counted, and no invalidation fires.
func TestCoherenceProbeErrorKeepsVersion(t *testing.T) {
	stub := &versionedStub{name: "s", v: 7}
	fired := 0
	c := cache.NewCoherence([]endpoint.Endpoint{stub}, 0, cache.Enforce, func(string) { fired++ })
	c.Refresh(context.Background())
	if got, _ := c.Version("s"); got != 7 {
		t.Fatalf("tracked version = %v, want 7", got)
	}

	stub.fail = true
	stub.v = 8 // the bump is invisible while probes fail
	c.Refresh(context.Background())
	if got, _ := c.Version("s"); got != 7 {
		t.Errorf("failed probe moved the tracked version: %v", got)
	}
	st := c.Stats()
	if st.ProbeErrors != 1 || fired != 0 {
		t.Errorf("probeErrors = %d fired = %d, want 1 and 0", st.ProbeErrors, fired)
	}

	// Recovery sees the accumulated change and invalidates.
	stub.fail = false
	c.Refresh(context.Background())
	if fired != 1 {
		t.Errorf("post-recovery refresh fired %d invalidations, want 1", fired)
	}
	if got, _ := c.Version("s"); got != 8 {
		t.Errorf("post-recovery version = %v, want 8", got)
	}
}

func TestCoherenceStaleSources(t *testing.T) {
	versioned := &versionedStub{name: "v", v: 3}
	c := cache.NewCoherence([]endpoint.Endpoint{versioned}, 0, cache.Enforce, nil)
	c.Refresh(context.Background())

	// Matching stamp: coherent.
	if s := c.StaleSources([]string{"v"}, []cache.Stamp{{Version: 3, OK: true}}); s != nil {
		t.Errorf("matching stamp reported stale: %v", s)
	}
	// Older stamp: stale.
	if s := c.StaleSources([]string{"v"}, []cache.Stamp{{Version: 2, OK: true}}); len(s) != 1 {
		t.Errorf("older stamp not reported: %v", s)
	}
	// Missing stamp on a versioned endpoint: the entry predates
	// tracking and cannot be verified — treated as stale.
	if s := c.StaleSources([]string{"v"}, nil); len(s) != 1 {
		t.Errorf("missing stamp not reported: %v", s)
	}
	// Unknown/unversioned endpoints are unverifiable, never stale.
	if s := c.StaleSources([]string{"unknown"}, nil); s != nil {
		t.Errorf("untracked endpoint reported stale: %v", s)
	}
}

func TestCoherenceVerdict(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}

	enforce := cache.NewCoherence(eps, 0, cache.Enforce, nil)
	if v := enforce.Verdict(); v != cache.StalenessUnverified {
		t.Errorf("unprobed fence verdict = %q, want %q (nothing tracked yet)", v, cache.StalenessUnverified)
	}
	enforce.Refresh(context.Background())
	if v := enforce.Verdict(); v != cache.StalenessFresh {
		t.Errorf("window-0 verdict = %q, want %q", v, cache.StalenessFresh)
	}

	windowed := cache.NewCoherence(eps, time.Minute, cache.Enforce, nil)
	windowed.Refresh(context.Background())
	if v := windowed.Verdict(); v != cache.StalenessBounded {
		t.Errorf("windowed verdict = %q, want %q", v, cache.StalenessBounded)
	}

	// One version-less endpoint downgrades the verdict.
	mixed := cache.NewCoherence([]endpoint.Endpoint{ep1, opaqueCoherenceEndpoint{}}, 0, cache.Enforce, nil)
	mixed.Refresh(context.Background())
	if v := mixed.Verdict(); v != cache.StalenessUnverified {
		t.Errorf("mixed verdict = %q, want %q", v, cache.StalenessUnverified)
	}

	observe := cache.NewCoherence(eps, 0, cache.Observe, nil)
	observe.Refresh(context.Background())
	if v := observe.Verdict(); v != cache.StalenessUnfenced {
		t.Errorf("observe verdict = %q, want %q", v, cache.StalenessUnfenced)
	}

	var nilFence *cache.Coherence
	if v := nilFence.Verdict(); v != cache.StalenessUnfenced {
		t.Errorf("nil fence verdict = %q, want %q", v, cache.StalenessUnfenced)
	}
}

// opaqueCoherenceEndpoint exposes no data version.
type opaqueCoherenceEndpoint struct{}

func (opaqueCoherenceEndpoint) Name() string { return "opaque" }
func (opaqueCoherenceEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return &sparql.Results{}, nil
}

// Every method must be safe on a nil fence — the engine runs without
// one (Caching Unfenced or Off) by passing nil around.
func TestCoherenceNilSafety(t *testing.T) {
	var c *cache.Coherence
	c.Refresh(context.Background())
	if c.Stamps([]string{"a"}) != nil {
		t.Error("nil fence returned versions")
	}
	if c.StaleSources([]string{"a"}, nil) != nil {
		t.Error("nil fence reported staleness")
	}
	if c.Enforcing() {
		t.Error("nil fence enforces")
	}
	if st := c.Stats(); st.Probes != 0 {
		t.Errorf("nil fence stats = %+v", st)
	}
}

// Engine-level churn coherence, enforce mode: after a churn batch on
// one endpoint, the next execution must match the fresh ground truth —
// the version change detected at query start invalidates the stale
// cached state — and the query's staleness verdict stays "fresh".
func TestEngineChurnInvalidatesEnforce(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})

	if _, err := l.Execute(context.Background(), testfed.QaChain); err != nil {
		t.Fatal(err)
	}
	// Drop MIT's address on EP1. The address subquery is the one the
	// plan retains in the cross-query cache, so without invalidation
	// the cached rows would keep resolving the dead address.
	ep1.ApplyChurn(nil, rdf.Graph{rdf.T(testfed.IRI("MIT"), testfed.IRI("address"), rdf.Literal("XXX"))})

	res := assertMatchesUnion(t, l, []*endpoint.Local{ep1, ep2}, testfed.QaChain)
	if res.Len() != 1 {
		t.Errorf("post-churn rows = %d, want 1 (every MIT row dropped)", res.Len())
	}
	m := l.LastMetrics()
	if m.Staleness != cache.StalenessFresh {
		t.Errorf("staleness verdict = %q, want %q", m.Staleness, cache.StalenessFresh)
	}
	if st := l.CoherenceStats(); st.Changes == 0 {
		t.Error("churn went undetected by the fence")
	}
}

// Engine-level churn, observe mode: the same churn is detected and
// counted but NOT fenced — the repeat serves the pre-churn rows from
// cache, the verdict says so, and the stale service is counted. This
// is the control behavior the chaos harness's negative pass relies on.
func TestEngineChurnServesStaleObserve(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64, Caching: cache.Observe})

	before, err := l.Execute(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	ep1.ApplyChurn(nil, rdf.Graph{rdf.T(testfed.IRI("MIT"), testfed.IRI("address"), rdf.Literal("XXX"))})

	after, m, err := l.ExecuteMetrics(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(after), testfed.Canon(before)) {
		t.Errorf("observe mode did not serve the stale cached rows.\n got: %v\nwant: %v",
			testfed.Canon(after), testfed.Canon(before))
	}
	if m.Staleness != cache.StalenessUnfenced {
		t.Errorf("staleness verdict = %q, want %q", m.Staleness, cache.StalenessUnfenced)
	}
	if st := l.CoherenceStats(); st.StaleServed == 0 {
		t.Error("stale service went uncounted")
	}
}

// Observe mode stamps and checks every cache, not only subquery
// results: a stale ASK verdict served after churn is counted, although
// (being a planning verdict) it is not charged to Completeness.
func TestObserveCountsStalePlanningServes(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	newPred := testfed.IRI("newPred")
	ep2.ApplyChurn(rdf.Graph{rdf.T(testfed.IRI("a"), newPred, testfed.IRI("b"))}, nil)
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Caching: cache.Observe})
	q := `SELECT ?x ?y WHERE { ?x <http://ex/newPred> ?y }`

	if _, err := l.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ep1.ApplyChurn(rdf.Graph{rdf.T(testfed.IRI("c"), newPred, testfed.IRI("d"))}, nil)
	if _, err := l.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if st := l.CoherenceStats(); st.StaleServed == 0 {
		t.Errorf("stale ASK verdict served uncounted: %+v", st)
	}
}
