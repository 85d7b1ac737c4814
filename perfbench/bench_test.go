package main

import (
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// The tracing decorator must not change what the engine does: on
// geo-churn (churn barriers, coherence fence, caches) the per-kind
// request counts, staleness verdicts and endpoint request totals of a
// fixed-seed run are identical with and without it.
func TestTracingDecoratorIsTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs geo-churn queries over simulated WAN links")
	}
	if err := checkTransparency(geoChurn, 7, transparencyQueries); err != nil {
		t.Fatal(err)
	}
}

// Decorator-chain walks reach the wrapped endpoint: data-version probes,
// churn mutations scheduled on an outer decorator, and request counters.
func TestTracingDecoratorForwardsChain(t *testing.T) {
	l := endpoint.NewLocal("e", store.FromGraph(rdf.Graph{{S: rdf.IRI("http://ex/s"), P: rdf.IRI("http://ex/p"), O: rdf.IRI("http://ex/o")}}))
	rec := newRecorder()
	wrapped := traced(rec)(l)
	if inner := wrapped.(interface{ Inner() endpoint.Endpoint }).Inner(); inner != l {
		t.Fatalf("Inner() = %v, want the wrapped endpoint", inner)
	}
	add := rdf.Graph{{S: rdf.IRI("http://ex/s2"), P: rdf.IRI("http://ex/p"), O: rdf.IRI("http://ex/o")}}
	f := endpoint.NewFaulty(wrapped, endpoint.FaultConfig{Mutations: []endpoint.Mutation{{AtTick: 1, Insert: add}}})
	f.Tick(1)
	if v, ok, err := endpoint.DataVersionOf(context.Background(), f); err != nil || !ok || v != 2 {
		t.Fatalf("DataVersionOf through decorators = %d, %v, %v; want 2 after one churn batch", v, ok, err)
	}
	if _, err := wrapped.Query(context.Background(), "SELECT ?s WHERE { ?s <http://ex/p> ?o }"); err != nil {
		t.Fatal(err)
	}
	if got := endpoint.TotalStats([]endpoint.Endpoint{wrapped}); got.Requests != 1 || got.Rows != 2 {
		t.Fatalf("forwarded stats = %+v, want 1 request and 2 rows", got)
	}
	if _, calls := rec.snapshot(); len(calls) != 1 || calls[0].Rows != 2 {
		t.Fatalf("recorded calls = %+v, want one call with 2 rows", calls)
	}
}

// One corrupted answer is caught by the oracle, counts as a failed
// query, and makes the command's exit code non-zero.
func TestOracleCatchesCorruptedResult(t *testing.T) {
	spec := inprocLUBM
	spec.scale = 1
	f, err := buildFederation(spec, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	const corrupt = 5
	var mismatch error
	l := &loop{seconds: 1, batch: 16}
	l.issue = func(ctx context.Context, idx int) outcome {
		if idx != corrupt {
			o, _ := f.issue(ctx, idx, nil)
			return o
		}
		q := f.seq(idx)
		res, err := f.fed.Query(ctx, q.text)
		if err != nil {
			return outcome{err: err}
		}
		res.Rows = append(res.Rows, res.Rows[0]) // one duplicated row
		mismatch = f.oracle.check(q.text, res)
		return outcome{err: mismatch}
	}
	res, err := l.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(mismatch, errMismatch) {
		t.Fatalf("oracle verdict on the corrupted result: %v", mismatch)
	}
	if res.attempted <= corrupt || res.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want the one corrupted query failed", res.attempted, res.failed)
	}
	rep := reportOf(res, nil)
	if rep.Failed != 1 || rep.Correct || exitCode(rep) == 0 {
		t.Fatalf("report %+v exits %d; want a failed, non-zero result", rep, exitCode(rep))
	}
}

// The same seed gives the same query sequence, template constants and
// churn schedule; another seed gives another.
func TestSeedDeterminesInputs(t *testing.T) {
	data := lubm.Generate(lubm.DefaultConfig(geoChurn.universities))
	seqOf := func(seed int64) []string {
		var out []string
		geo := geoSequence(seed, data)
		lubmSeq := inprocLUBM.sequence(seed, nil)
		httpSeq := httpSequence(seed)
		for i := 0; i < 200; i++ {
			h := httpSeq(i)
			out = append(out, geo(i).text, lubmSeq(i).template, h.template+strconv.FormatBool(h.csv))
		}
		return out
	}
	churnOf := func(seed int64) []string {
		var locals []*endpoint.Local
		for i, g := range data {
			locals = append(locals, endpoint.NewLocal(strconv.Itoa(i), store.FromGraph(g)))
		}
		c := newChurner(seed, locals)
		var out []string
		for i := 0; i < 20; i++ {
			ep, del := c.apply()
			out = append(out, strconv.Itoa(ep)+del[0].S.Value+del[len(del)-1].O.Value)
		}
		return out
	}
	if !slices.Equal(seqOf(1), seqOf(1)) || !slices.Equal(churnOf(1), churnOf(1)) {
		t.Fatal("the same seed gave different inputs")
	}
	if slices.Equal(seqOf(1), seqOf(2)) || slices.Equal(churnOf(1), churnOf(2)) {
		t.Fatal("different seeds gave the same inputs")
	}
	distinct := map[string]bool{}
	for i, q := range seqOf(1) {
		if i%3 == 0 {
			distinct[q] = true
		}
	}
	if len(distinct) <= geoChurnSubqueryCache {
		t.Fatalf("geo-churn drew %d distinct queries in 200, want more than the %d-entry subquery cache", len(distinct), geoChurnSubqueryCache)
	}
}

// buildBinaries builds the endpoint and datagen commands into dir.
func buildBinaries(t *testing.T, dir string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", dir+"/", "../cmd/endpoint", "../cmd/datagen")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
}

// childrenOf lists the live processes whose parent is pid.
func childrenOf(t *testing.T, pid int) []string {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	var out []string
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited meanwhile
		}
		s := string(b)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) > 1 && fields[1] == strconv.Itoa(pid) {
			out = append(out, e.Name()+" "+s[:strings.LastIndexByte(s, ')')+1])
		}
	}
	return out
}

// A run whose server dies during start-up fails fast and leaves none of
// the endpoint processes it had started running.
func TestFailedHTTPRunLeavesNoChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts endpoint processes")
	}
	bin := t.TempDir()
	buildBinaries(t, bin)
	// A server that exits at once, after the endpoints are up.
	if err := os.WriteFile(filepath.Join(bin, "lusail-server"), []byte("#!/bin/sh\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	opts := options{seed: 1, binDir: bin, workDir: t.TempDir()}
	start := time.Now()
	c, err := startCluster(context.Background(), opts, nil)
	if err == nil {
		c.close()
		t.Fatal("cluster started with a server that exits")
	}
	if !strings.Contains(err.Error(), "exited") {
		t.Fatalf("error %q does not report the server's exit", err)
	}
	if d := time.Since(start); d > readyTimeout {
		t.Fatalf("failure took %v; the exited server should be noticed at once", d)
	}
	if left := childrenOf(t, os.Getpid()); len(left) > 0 {
		t.Fatalf("children outlived the failed run: %v", left)
	}
}

// The first-row marker is found across read boundaries.
func TestMarkerReaderSplitsAcrossReads(t *testing.T) {
	body := `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"http://ex/a"}}]}}`
	m := &markerReader{r: &oneByteReader{s: body}, marker: []byte(`"bindings":[{`)}
	res, err := sparql.DecodeJSONStream(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || m.found.IsZero() || m.firstByte.IsZero() {
		t.Fatalf("rows=%d found=%v firstByte=%v", res.Len(), m.found, m.firstByte)
	}
}

type oneByteReader struct{ s string }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.s == "" {
		return 0, io.EOF
	}
	p[0] = r.s[0]
	r.s = r.s[1:]
	return 1, nil
}

func TestTraceparentRoundTrip(t *testing.T) {
	for _, id := range []int64{1, 42, 1 << 40} {
		if got := queryOfTraceparent(traceparent(id)); got != id {
			t.Fatalf("query id %d came back as %d", id, got)
		}
	}
	if got := queryOfTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"); got != 0 {
		t.Fatalf("foreign trace id mapped to query %d", got)
	}
}

// A second run of a loop continues its sequence: across the untraced
// and traced quarters of a traced run, no position is issued twice.
func TestLoopContinuesSequence(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	l := &loop{seconds: 0.05, batch: 4, clients: 2, issue: func(ctx context.Context, idx int) outcome {
		mu.Lock()
		seen[idx]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return outcome{template: "t"}
	}}
	a, err := l.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	all := merge(a, b)
	if all.attempted != a.attempted+b.attempted || len(all.latencyMs) != all.attempted {
		t.Fatalf("merged %d attempts from %d and %d", all.attempted, a.attempted, b.attempted)
	}
	for i := 0; i < all.attempted; i++ {
		if seen[i] != 1 {
			t.Fatalf("position %d issued %d times (%d positions in all)", i, seen[i], all.attempted)
		}
	}
}

// blocking merges overlapping calls into rounds and subtracts their
// union from the query's wall time.
func TestBlockingSelfTimeAndRounds(t *testing.T) {
	q := span{ID: 1, Start: 0, End: 100}
	calls := []span{
		{Query: 1, Start: 10, End: 30},
		{Query: 1, Start: 20, End: 40}, // overlaps the first: same round
		{Query: 1, Start: 60, End: 70},
		{Query: 2, Start: 0, End: 100}, // another query's call
	}
	self, rounds := blocking([]span{q}, calls)
	if rounds != 2 || self != ms(time.Duration(100-30-10)) {
		t.Fatalf("self=%v rounds=%v, want %v and 2", self, rounds, ms(60))
	}
}

// A run split into windows files every completed query in exactly one
// window, and a window slowed from outside moves no windowed median.
func TestLoopWindows(t *testing.T) {
	l := &loop{seconds: 0.2, batch: 8, window: 50 * time.Millisecond, issue: func(ctx context.Context, idx int) outcome {
		time.Sleep(time.Millisecond)
		return outcome{latency: time.Millisecond, template: "t"}
	}}
	res, err := l.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.windows) != 4 {
		t.Fatalf("%d windows, want 4", len(res.windows))
	}
	n := 0
	var length time.Duration
	for _, w := range res.windows {
		n += len(w.latencyMs)
		length += w.length
	}
	if n != len(res.latencyMs) || length != res.measured {
		t.Fatalf("windows hold %d queries over %v; the run %d over %v", n, length, len(res.latencyMs), res.measured)
	}

	r := &loopResult{windows: []window{
		{latencyMs: []float64{10, 10}, length: time.Second},
		{latencyMs: []float64{11, 11}, length: time.Second},
		{latencyMs: []float64{90, 90}, length: time.Second}, // a burst of outside load
		{}, // no query completed
	}}
	if got := r.windowMedian(func(w window) float64 { return quantile(w.latencyMs, 0.5) }); got != 11 {
		t.Fatalf("windowed median = %v, want 11", got)
	}
}
