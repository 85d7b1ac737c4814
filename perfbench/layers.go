package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lusail"
	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// runtimeSnap is the bench process's allocation, GC and CPU counters.
type runtimeSnap struct {
	alloc, gcs, pauseNs uint64
	cpu                 time.Duration
}

func takeRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSnap{alloc: m.TotalAlloc, gcs: uint64(m.NumGC), pauseNs: m.PauseTotalNs, cpu: selfCPU()}
}

// runtimeLayer reports the runtime metrics between two snapshots.
func runtimeLayer(a, b runtimeSnap, queries int) map[string]metric {
	q := float64(queries)
	return map[string]metric{
		"runtime.alloc_mb_per_query":    {ratio(float64(b.alloc-a.alloc)/(1<<20), q), "MB"},
		"runtime.gc_cycles_per_query":   {ratio(float64(b.gcs-a.gcs), q), "count"},
		"runtime.gc_pause_ms_per_query": {ratio(float64(b.pauseNs-a.pauseNs)/1e6, q), "ms"},
		"runtime.cpu_ms_per_query":      {ratio(ms(b.cpu-a.cpu), q), "ms"},
	}
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc; pid "self" reads the bench process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func selfPeakRSSMB() float64 {
	mb, err := peakRSSMB("self")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return mb
}

// replayLayer replays the captured endpoint request texts through
// sparql.Parse, Query.String and engine.Eval over the endpoint's store,
// recording a span per replayed step, and reports the per-query costs
// over the replayed sample.
func replayLayer(rec *recorder, calls []span, stores map[string]*store.Store) map[string]metric {
	type job struct {
		call span
		q    *sparql.Query
	}
	var jobs []job
	queries := map[int64]bool{}
	step := func(name string, c span, f func()) time.Duration {
		start := time.Now()
		f()
		end := time.Now()
		rec.add(span{ID: rec.nextID(), Parent: c.ID, Query: c.Query, Name: name, Start: rec.at(start), End: rec.at(end), Endpoint: c.Endpoint})
		return end.Sub(start)
	}
	var parse, serialize, eval time.Duration
	for _, c := range calls {
		if c.text == "" || stores[c.Endpoint] == nil {
			continue
		}
		queries[c.Query] = true
		var q *sparql.Query
		var err error
		parse += step("replay.parse", c, func() { q, err = sparql.Parse(c.text) })
		if err != nil {
			continue
		}
		jobs = append(jobs, job{c, q})
	}
	for _, j := range jobs {
		serialize += step("replay.serialize", j.call, func() { _ = j.q.String() })
	}
	before := takeRuntime()
	for _, j := range jobs {
		eng := engine.New(stores[j.call.Endpoint])
		eval += step("replay.eval", j.call, func() { _, _ = eng.Eval(j.q) })
	}
	after := takeRuntime()
	n := float64(len(queries))
	return map[string]metric{
		"sparql.parse_ms_per_query":      {ratio(ms(parse), n), "ms"},
		"sparql.serialize_ms_per_query":  {ratio(ms(serialize), n), "ms"},
		"engine.eval_ms_per_query":       {ratio(ms(eval), n), "ms"},
		"engine.eval_alloc_kb_per_query": {ratio(float64(after.alloc-before.alloc)/1024, n), "KB"},
	}
}

// inprocHook records query spans and each query's engine Metrics.
type inprocHook struct {
	rec     *recorder
	mu      sync.Mutex
	metrics []lusail.Metrics
}

func (h *inprocHook) begin(ctx context.Context) (context.Context, int64) { return h.rec.begin(ctx) }

func (h *inprocHook) end(qid int64, start, first, last time.Time, m lusail.Metrics, err error) {
	h.rec.endQuery(qid, start, first, last, err)
	if err == nil {
		h.mu.Lock()
		h.metrics = append(h.metrics, m)
		h.mu.Unlock()
	}
}

// cacheCounters sums hits and misses per cache name.
func cacheCounters(f *lusail.Federation) map[string]lusail.CacheStats {
	out := map[string]lusail.CacheStats{}
	for _, e := range f.CacheStats() {
		out[e.Name] = e.Stats
	}
	return out
}

func hitRatio(a, b lusail.CacheStats) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	return ratio(float64(hits), float64(hits+misses))
}

// transparencyQueries is the length of the tracing transparency check:
// two geo-churn batches, so the check crosses a churn barrier.
const transparencyQueries = 20

// abba runs an untraced and a traced loop for a quarter of the run
// each, in the order untraced, traced, traced, untraced, so that a drift
// of the machine's speed during the run weighs on both sides alike.
// start and stop bracket the two traced quarters.
func abba(ctx context.Context, untraced, traced *loop, start, stop func() error) (base, res *loopResult, err error) {
	var runs [4]*loopResult
	for i, l := range []*loop{untraced, traced, traced, untraced} {
		if i == 1 {
			if err := start(); err != nil {
				return nil, nil, err
			}
		}
		if runs[i], err = l.run(ctx); err != nil {
			return nil, nil, err
		}
		if i == 2 {
			if err := stop(); err != nil {
				return nil, nil, err
			}
		}
	}
	return merge(runs[0], runs[3]), merge(runs[1], runs[2]), nil
}

// runInprocTraced is the traced run of an in-process workload: first a
// transparency check of the tracing decorator, then untraced and traced
// quarters (abba) on two federations of the same seed. The per-layer
// metrics come from the traced quarters; the difference between the
// two sides is the tracing overhead.
func runInprocTraced(spec inprocSpec, opts options) (*report, error) {
	transparent := checkTransparency(spec, opts.seed, transparencyQueries)
	if transparent != nil {
		fmt.Fprintln(os.Stderr, "perfbench: tracing decorator is not transparent:", transparent)
	}
	plain, err := buildFederation(spec, opts.seed, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	rec.on.Store(false) // set-up and warm-up are not traced
	f, err := buildFederation(spec, opts.seed, traced(rec))
	if err != nil {
		return nil, err
	}
	hook := &inprocHook{rec: rec}
	var (
		caches0, caches1 map[string]lusail.CacheStats
		coh0, coh1       lusail.CoherenceStats
		ep0, ep1         endpoint.Stats
		rt0, rt1         runtimeSnap
	)
	start := func() error {
		caches0, coh0, ep0, rt0 = cacheCounters(f.fed), f.fed.CoherenceStats(), endpoint.TotalStats(f.eps), takeRuntime()
		rec.on.Store(true)
		return nil
	}
	stop := func() error {
		rec.on.Store(false)
		caches1, coh1, ep1, rt1 = cacheCounters(f.fed), f.fed.CoherenceStats(), endpoint.TotalStats(f.eps), takeRuntime()
		return nil
	}
	quarter := opts.seconds / 4
	base, res, err := abba(context.Background(), plain.loop(quarter, nil), f.loop(quarter, hook), start, stop)
	if err != nil {
		return nil, err
	}

	queries, calls := rec.snapshot()
	n := len(hook.metrics)
	out := runtimeLayer(rt0, rt1, n)
	for k, v := range callLayer(calls, n) {
		out[k] = v
	}
	stores := map[string]*store.Store{}
	for _, l := range f.locals {
		stores[l.Name()] = l.Store()
	}
	for k, v := range replayLayer(rec, calls, stores) {
		out[k] = v
	}
	for k, v := range engineLayer(hook.metrics) {
		out[k] = v
	}
	self, rounds := blocking(queries, calls)
	out["core.self_ms_per_query"] = metric{self, "ms"}
	out["core.rounds_per_query"] = metric{rounds, "count"}
	for _, c := range []string{"ask", "check", "count", "subquery"} {
		out["cache."+c+"_hit_ratio"] = metric{hitRatio(caches0[c], caches1[c]), "ratio"}
	}
	q := float64(n)
	out["cache.subquery_evictions_per_query"] = metric{ratio(float64(caches1["subquery"].Evictions-caches0["subquery"].Evictions), q), "count"}
	out["cache.fenced_per_query"] = metric{ratio(float64(coh1.Fenced-coh0.Fenced), q), "count"}
	out["coherence.probes_per_query"] = metric{ratio(float64(coh1.Probes-coh0.Probes), q), "count"}
	out["coherence.changes_per_query"] = metric{ratio(float64(coh1.Changes-coh0.Changes), q), "count"}

	// The endpoint-side share of a call: Local times parse+eval as its
	// handler; the rest of the call is the (simulated) link.
	handler := ep1.QueryTime - ep0.QueryTime
	reqs := float64(ep1.Requests - ep0.Requests)
	out["endpoint.handler_ms_mean"] = metric{ratio(ms(handler), reqs), "ms"}
	out["endpoint.transport_ms_mean"] = metric{out["endpoint.remote_call_ms_mean"].Value - out["endpoint.handler_ms_mean"].Value, "ms"}
	out["endpoint.cpu_ms_per_query"] = metric{ratio(ms(handler), q), "ms"}
	out["endpoint.rows_per_call"] = metric{ratio(float64(ep1.Rows-ep0.Rows), reqs), "count"}

	// In process, the facade call plays the server's part.
	var ttfb, stream []float64
	for _, s := range queries {
		ttfb = append(ttfb, ms(time.Duration(s.First-s.Start)))
		stream = append(stream, ms(time.Duration(s.End-s.First)))
	}
	out["server.ttfb_ms_p50"] = metric{quantile(ttfb, 0.5), "ms"}
	out["server.stream_ms_p50"] = metric{quantile(stream, 0.5), "ms"}
	out["server.cpu_ms_per_query"] = out["runtime.cpu_ms_per_query"]
	out["server.singleflight_collapsed_ratio"] = metric{0, "ratio"}
	out["server.shed_ratio"] = metric{0, "ratio"}
	addOverhead(out, base, res)

	if err := rec.dump(spanDumpPath(opts, spec.name)); err != nil {
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

// engineLayer reports the core and federation metrics the engine's
// per-query Metrics carry.
func engineLayer(all []lusail.Metrics) map[string]metric {
	var sel, ana, exe []float64
	var sum lusail.Metrics
	var selT, anaT, exeT time.Duration
	for _, m := range all {
		sel = append(sel, ms(m.SourceSelection))
		ana = append(ana, ms(m.Analysis))
		exe = append(exe, ms(m.Execution))
		selT += m.SourceSelection
		anaT += m.Analysis
		exeT += m.Execution
		sum.AskRequests += m.AskRequests
		sum.CheckQueries += m.CheckQueries
		sum.CountQueries += m.CountQueries
		sum.Phase1Requests += m.Phase1Requests
		sum.Phase2Requests += m.Phase2Requests
		sum.BoundBlocks += m.BoundBlocks
		sum.Delayed += m.Delayed
	}
	q := float64(len(all))
	per := func(v int) float64 { return ratio(float64(v), q) }
	return map[string]metric{
		"federation.source_selection_ms_p50":         {quantile(sel, 0.5), "ms"},
		"core.analysis_ms_p50":                       {quantile(ana, 0.5), "ms"},
		"core.execution_ms_p50":                      {quantile(exe, 0.5), "ms"},
		"federation.ask_requests_per_query":          {per(sum.AskRequests), "count"},
		"core.check_requests_per_query":              {per(sum.CheckQueries), "count"},
		"core.count_requests_per_query":              {per(sum.CountQueries), "count"},
		"core.phase1_requests_per_query":             {per(sum.Phase1Requests), "count"},
		"core.phase2_requests_per_query":             {per(sum.Phase2Requests), "count"},
		"core.bound_blocks_per_query":                {per(sum.BoundBlocks), "count"},
		"core.delayed_subqueries_per_query":          {per(sum.Delayed), "count"},
		"server.phase_ms_per_query.source_selection": {ratio(ms(selT), q), "ms"},
		"server.phase_ms_per_query.analysis":         {ratio(ms(anaT), q), "ms"},
		"server.phase_ms_per_query.execution":        {ratio(ms(exeT), q), "ms"},
	}
}

// addOverhead states the tracing overhead: the traced side's p50
// latency and throughput relative to the untraced side's.
func addOverhead(out map[string]metric, base, traced *loopResult) {
	p50 := quantile(base.latencyMs, 0.5)
	out["trace.overhead_latency_p50_pct"] = metric{100 * (quantile(traced.latencyMs, 0.5) - p50) / p50, "%"}
	out["trace.overhead_throughput_pct"] = metric{100 * (traced.throughput() - base.throughput()) / base.throughput(), "%"}
	fmt.Fprintf(os.Stderr, "perfbench: tracing overhead: p50 %.3f ms untraced vs %.3f ms traced; %.2f vs %.2f queries/s\n",
		p50, quantile(traced.latencyMs, 0.5), base.throughput(), traced.throughput())
}

// kindCounts is one query run's endpoint requests by kind, as the
// engine's Metrics report them, plus its coherence verdict.
type kindCounts struct {
	ask, check, count, phase1, phase2, refine int
	staleness                                 string
}

func countsOf(m lusail.Metrics) kindCounts {
	return kindCounts{m.AskRequests, m.CheckQueries, m.CountQueries, m.Phase1Requests, m.Phase2Requests, m.RefineRequests, m.Staleness}
}

// sequentialCounts runs the first n queries of the workload's sequence
// on one client, with the workload's barriers, and returns each query's
// per-kind request counts and staleness verdict, and the endpoints'
// total request counter.
func sequentialCounts(spec inprocSpec, seed int64, n int, wrap func(endpoint.Endpoint) endpoint.Endpoint, hook *inprocHook) ([]kindCounts, int64, error) {
	f, err := buildFederation(spec, seed, wrap)
	if err != nil {
		return nil, 0, err
	}
	before := endpoint.TotalStats(f.eps)
	var out []kindCounts
	for i := 0; i < n; i++ {
		if i > 0 && i%spec.batch == 0 && f.churn != nil {
			f.barrier()
		}
		o, m := f.issue(context.Background(), i, hook)
		if o.err != nil {
			return nil, 0, fmt.Errorf("query %d: %w", i, o.err)
		}
		out = append(out, countsOf(m))
	}
	return out, endpoint.TotalStats(f.eps).Requests - before.Requests, nil
}

// checkTransparency runs the same n queries without and with the
// tracing decorator and requires identical per-kind request counts,
// staleness verdicts and endpoint request totals.
func checkTransparency(spec inprocSpec, seed int64, n int) error {
	plain, plainReqs, err := sequentialCounts(spec, seed, n, nil, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	tracedRun, tracedReqs, err := sequentialCounts(spec, seed, n, traced(rec), &inprocHook{rec: rec})
	if err != nil {
		return err
	}
	for i := range plain {
		if plain[i] != tracedRun[i] {
			return fmt.Errorf("query %d: untraced %+v, traced %+v", i, plain[i], tracedRun[i])
		}
	}
	if plainReqs != tracedReqs {
		return fmt.Errorf("endpoint requests: untraced %d, traced %d", plainReqs, tracedReqs)
	}
	_, calls := rec.snapshot()
	var queryCalls int64
	for _, c := range calls {
		if c.Query > 0 { // warm-up calls run outside any query
			queryCalls++
		}
	}
	if queryCalls != tracedReqs {
		return fmt.Errorf("traced %d calls, endpoints counted %d requests", queryCalls, tracedReqs)
	}
	return nil
}
