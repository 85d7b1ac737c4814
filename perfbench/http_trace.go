package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"
)

// proxy is a loopback HTTP proxy in front of one endpoint process,
// used only by traced runs: it records an endpoint.Query span per
// SPARQL request it forwards, attributed to the query whose traceparent
// the server propagated.
type proxy struct {
	url    string
	target string
	rec    *recorder
	srv    *http.Server
	client *http.Client
	done   chan struct{}
}

func newProxy(target string, rec *recorder) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{
		url:    "http://" + ln.Addr().String(),
		target: target,
		rec:    rec,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}},
		done:   make(chan struct{}),
	}
	p.srv = &http.Server{Handler: p}
	go func() {
		defer close(p.done)
		_ = p.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return p, nil
}

func (p *proxy) close() {
	_ = p.srv.Close()
	<-p.done
	p.client.CloseIdleConnections()
}

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	start := time.Now()
	out, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := p.client.Do(out)
	var n int64
	status := http.StatusBadGateway
	if err != nil {
		http.Error(w, err.Error(), status)
	} else {
		for k, vs := range resp.Header {
			w.Header()[k] = vs
		}
		status = resp.StatusCode
		w.WriteHeader(status)
		n, _ = io.Copy(w, resp.Body) // a failed copy shows as a short or failed reply to the server
		resp.Body.Close()
		for k, vs := range resp.Trailer {
			w.Header()[http.TrailerPrefix+k] = vs
		}
	}
	end := time.Now()
	if r.Method == http.MethodHead || !p.rec.on.Load() {
		return // coherence probes are counted by the server, not as calls
	}
	qid := queryOfTraceparent(r.Header.Get("traceparent"))
	s := span{
		ID: p.rec.nextID(), Parent: qid, Query: qid, Name: "endpoint.Query",
		Start: p.rec.at(start), End: p.rec.at(end), Endpoint: p.url, Bytes: n, Err: status >= 400,
	}
	if qid > 0 && qid <= replayQueries {
		s.text = requestQuery(r, body)
	}
	p.rec.add(s)
}

// requestQuery extracts the SPARQL text of a protocol request.
func requestQuery(r *http.Request, body []byte) string {
	if q := r.URL.Query().Get("query"); q != "" {
		return q
	}
	if r.Header.Get("Content-Type") == "application/sparql-query" {
		return string(body)
	}
	form, err := url.ParseQuery(string(body))
	if err != nil {
		return ""
	}
	return form.Get("query")
}

// clusterSnap is a traced run's view of the deployment's counters.
type clusterSnap struct {
	server    promText
	endpoints promText // summed over the endpoint processes
	serverCPU time.Duration
	epCPU     time.Duration
	rt        runtimeSnap
}

func (c *cluster) snap() (clusterSnap, error) {
	s := clusterSnap{endpoints: promText{}}
	var err error
	if s.server, err = scrape(c.serverURL); err != nil {
		return s, err
	}
	for _, u := range c.epURLs {
		page, err := scrape(u)
		if err != nil {
			return s, err
		}
		for k, v := range page {
			s.endpoints[k] += v
		}
	}
	if s.serverCPU, err = procCPU(c.server.pid()); err != nil {
		return s, err
	}
	for _, e := range c.endpoints {
		cpu, err := procCPU(e.pid())
		if err != nil {
			return s, err
		}
		s.epCPU += cpu
	}
	s.rt = takeRuntime()
	return s, nil
}

// remoteKinds are the server's lusail_remote_requests_total kinds.
var remoteKinds = []string{"ask", "check", "count", "phase1", "phase2", "refine"}

// sequentialKinds runs the first n queries of the sequence on one
// client and returns the server's per-kind remote request counts and
// its endpoint request total for them.
func (c *cluster) sequentialKinds(ctx context.Context, seq func(int) query, n int) (map[string]float64, error) {
	before, err := scrape(c.serverURL)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if o := c.do(ctx, seq(i), 0); o.err != nil {
			return nil, fmt.Errorf("query %d: %w", i, o.err)
		}
	}
	after, err := scrape(c.serverURL)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"endpoint_requests": after.delta(before, "lusail_endpoint_requests_total", "")}
	for _, k := range remoteKinds {
		out[k] = after.delta(before, "lusail_remote_requests_total", `kind="`+k+`"`)
	}
	return out, nil
}

// httpHook collects the traced quarters' client-side query timings.
type httpHook struct {
	rec    *recorder
	mu     sync.Mutex
	timing []httpTiming
}

func (h *httpHook) observe(tm httpTiming, qid int64, o outcome) {
	h.rec.endQuery(qid, tm.start, tm.firstRow, tm.last, o.err)
	if o.err == nil {
		h.mu.Lock()
		h.timing = append(h.timing, tm)
		h.mu.Unlock()
	}
}

// runHTTPTraced is http-lubm's traced run on two deployments of the
// same seed: a plain one, and one whose endpoints sit behind recording
// proxies and expose -metrics. After a transparency check on both, it
// runs untraced and traced quarters (abba); per-layer metrics come from
// the proxies' spans, /metrics and /debug/queries scrapes, /proc and
// client timings of the traced quarters.
func runHTTPTraced(ctx context.Context, opts options) (*report, error) {
	seq := httpSequence(opts.seed)
	plain, err := startCluster(ctx, opts, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	rec := newRecorder()
	rec.on.Store(false)
	c, err := startCluster(ctx, opts, rec)
	if err != nil {
		return nil, err
	}
	defer c.close()

	plainKinds, err := plain.sequentialKinds(ctx, seq, transparencyQueries)
	if err != nil {
		return nil, err
	}
	tracedKinds, err := c.sequentialKinds(ctx, seq, transparencyQueries)
	if err != nil {
		return nil, err
	}
	var transparent error
	for k, v := range plainKinds {
		if tracedKinds[k] != v {
			transparent = fmt.Errorf("%s requests: untraced %v, traced %v", k, v, tracedKinds[k])
			fmt.Fprintln(os.Stderr, "perfbench: tracing proxy is not transparent:", transparent)
			break
		}
	}

	hook := &httpHook{rec: rec}
	var s0, s1 clusterSnap
	var recent []serverQuery
	start := func() (err error) {
		s0, err = c.snap()
		rec.on.Store(true)
		return err
	}
	stop := func() (err error) {
		rec.on.Store(false)
		if s1, err = c.snap(); err != nil {
			return err
		}
		recent, err = serverQueryLog(c.serverURL)
		return err
	}
	quarter := opts.seconds / 4
	base, res, err := abba(ctx, plain.loop(quarter, seq, nil), c.loop(quarter, seq, hook.observe), start, stop)
	if err != nil {
		return nil, err
	}

	n := len(hook.timing)
	q := float64(n)
	queries, calls := rec.snapshot()
	out := runtimeLayer(s0.rt, s1.rt, n)
	for k, v := range callLayer(calls, n) {
		out[k] = v
	}
	for k, v := range replayLayer(rec, calls, c.stores) {
		out[k] = v
	}
	self, rounds := blocking(queries, calls)
	out["core.self_ms_per_query"] = metric{self, "ms"}
	out["core.rounds_per_query"] = metric{rounds, "count"}

	sv := func(name, label string) float64 { return s1.server.delta(s0.server, name, label) }
	kind := func(k string) metric {
		return metric{ratio(sv("lusail_remote_requests_total", `kind="`+k+`"`), q), "count"}
	}
	out["federation.ask_requests_per_query"] = kind("ask")
	out["core.check_requests_per_query"] = kind("check")
	out["core.count_requests_per_query"] = kind("count")
	out["core.phase1_requests_per_query"] = kind("phase1")
	out["core.phase2_requests_per_query"] = kind("phase2")
	// The server exports no bound-block or delayed-subquery counter.
	out["core.bound_blocks_per_query"] = metric{0, "count"}
	out["core.delayed_subqueries_per_query"] = metric{0, "count"}
	var sel, ana, exe []float64
	for _, r := range recent {
		sel = append(sel, r.SourceSelMs)
		ana = append(ana, r.AnalysisMs)
		exe = append(exe, r.ExecutionMs)
	}
	out["federation.source_selection_ms_p50"] = metric{quantile(sel, 0.5), "ms"}
	out["core.analysis_ms_p50"] = metric{quantile(ana, 0.5), "ms"}
	out["core.execution_ms_p50"] = metric{quantile(exe, 0.5), "ms"}
	for _, phase := range []string{"source_selection", "analysis", "execution"} {
		out["server.phase_ms_per_query."+phase] = metric{ratio(1000*sv("lusail_query_phase_seconds_total", `phase="`+phase+`"`), q), "ms"}
	}

	for _, cache := range []string{"ask", "check", "count", "subquery"} {
		label := `cache="` + cache + `"`
		hits, misses := sv("lusail_cache_hits_total", label), sv("lusail_cache_misses_total", label)
		out["cache."+cache+"_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	}
	out["cache.subquery_evictions_per_query"] = metric{ratio(sv("lusail_cache_evictions_total", `cache="subquery"`), q), "count"}
	out["cache.fenced_per_query"] = metric{ratio(sv("lusail_cache_fenced_total", ""), q), "count"}
	out["coherence.probes_per_query"] = metric{ratio(sv("lusail_coherence_probes_total", ""), q), "count"}
	out["coherence.changes_per_query"] = metric{ratio(sv("lusail_coherence_changes_total", ""), q), "count"}

	reqs := sv("lusail_endpoint_requests_total", "")
	out["endpoint.rows_per_call"] = metric{ratio(sv("lusail_endpoint_rows_total", ""), reqs), "count"}
	out["endpoint.errors_per_query"] = metric{ratio(sv("lusail_endpoint_errors_total", ""), q), "count"}
	remote := ratio(1000*sv("lusail_endpoint_latency_seconds_sum", ""), sv("lusail_endpoint_latency_seconds_count", ""))
	handler := ratio(1000*s1.endpoints.delta(s0.endpoints, "endpoint_http_request_duration_seconds_sum", ""),
		s1.endpoints.delta(s0.endpoints, "endpoint_http_request_duration_seconds_count", ""))
	out["endpoint.remote_call_ms_mean"] = metric{remote, "ms"}
	out["endpoint.handler_ms_mean"] = metric{handler, "ms"}
	out["endpoint.transport_ms_mean"] = metric{remote - handler, "ms"}
	out["endpoint.cpu_ms_per_query"] = metric{ratio(ms(s1.epCPU-s0.epCPU), q), "ms"}

	var ttfb, stream []float64
	for _, tm := range hook.timing {
		ttfb = append(ttfb, ms(tm.headers.Sub(tm.start)))
		stream = append(stream, ms(tm.last.Sub(tm.firstByte)))
	}
	out["server.ttfb_ms_p50"] = metric{quantile(ttfb, 0.5), "ms"}
	out["server.stream_ms_p50"] = metric{quantile(stream, 0.5), "ms"}
	out["server.cpu_ms_per_query"] = metric{ratio(ms(s1.serverCPU-s0.serverCPU), q), "ms"}
	leaders, collapsed := sv("lusail_server_singleflight_leaders_total", ""), sv("lusail_server_singleflight_collapsed_total", "")
	out["server.singleflight_collapsed_ratio"] = metric{ratio(collapsed, leaders+collapsed), "ratio"}
	out["server.shed_ratio"] = metric{ratio(sv("lusail_shed_requests_total", ""), float64(res.attempted)), "ratio"}
	addOverhead(out, base, res)

	if err := rec.dump(spanDumpPath(opts, "http-lubm")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	failed := res.failed + base.failed
	return &report{
		Correct:   failed == 0 && transparent == nil,
		Attempted: res.attempted + base.attempted,
		Failed:    failed,
		Metrics:   out,
	}, nil
}
