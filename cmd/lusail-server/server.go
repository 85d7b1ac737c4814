package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"lusail"
	"lusail/internal/sparql"
)

// serverConfig tunes the daemon.
type serverConfig struct {
	// Logger receives the structured query log and server events (nil
	// = slog.Default).
	Logger *slog.Logger
	// SlowThreshold marks queries at or above this duration as slow
	// (captured with span trees in /debug/queries).
	SlowThreshold time.Duration
	// RingSize bounds the recent/slow query rings.
	RingSize int
	// QueryTimeout bounds each federated query (0 = no limit).
	QueryTimeout time.Duration
	// MaxRequestBytes caps SPARQL protocol POST bodies; oversized
	// requests get 413. 0 selects the endpoint package's default cap;
	// negative disables the cap.
	MaxRequestBytes int64
	// Resilience, when non-nil, enables the endpoint fault-tolerance
	// layer (retries + circuit breakers).
	Resilience *lusail.ResilienceConfig
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// MaxConcurrent bounds concurrently executing queries (0 = no
	// limit). Excess requests wait in a bounded queue and are shed
	// with 503 + Retry-After when the queue is full or QueueWait
	// expires.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a query slot (default 64).
	MaxQueue int
	// QueueWait bounds how long a request may wait for a slot
	// (default 2s).
	QueueWait time.Duration
	// StrictReady restores the historical readiness rule: /readyz
	// reports 503 while ANY endpoint's circuit breaker is open. The
	// default treats a partially degraded federation as ready and only
	// reports 503 while probing, while every endpoint's breaker is
	// open, or under sustained admission saturation.
	StrictReady bool

	// Degradation selects the federation's degraded-execution policy.
	Degradation lusail.DegradePolicy
	// QueryBudget is the per-query wall-clock budget (0 = none).
	QueryBudget time.Duration
	// Hedge enables hedged backup requests for phase-1 subqueries.
	Hedge bool

	// SubqueryCacheSize enables the persistent cross-query subquery
	// result cache with at most this many entries (0 disables it).
	SubqueryCacheSize int
	// SubqueryCacheTTL bounds cached subquery staleness (0 = forever).
	// Only meaningful with SubqueryCacheSize > 0.
	SubqueryCacheTTL time.Duration
	// Singleflight collapses concurrent identical queries into one
	// engine execution, replaying the result to every caller.
	Singleflight bool

	// CoherenceWindow is how long a data-version probe stays trusted
	// (0 = every query re-probes its endpoints).
	CoherenceWindow time.Duration
	// Caching selects the cache-coherence mode (-coherence enforce |
	// observe | off map to CachingEnforce, CachingObserve and
	// CachingUnfenced).
	Caching lusail.CachingMode

	// Statistics enables the offline statistics service: summaries are
	// harvested at startup (and every StatsRefresh thereafter) so
	// warmed queries plan without endpoint probes.
	Statistics bool
	// StatsRefresh is the background re-harvest interval (0 = harvest
	// once at startup only). Only meaningful with Statistics.
	StatsRefresh time.Duration
	// StatsCalibrate arms the self-tuning calibration loop feeding
	// estimated-vs-actual cardinalities back into the cost model.
	StatsCalibrate bool
	// ReplanOvershoot arms mid-query re-planning at this overshoot
	// factor (0 disables).
	ReplanOvershoot float64

	// OTLPEndpoint, when non-empty, enables distributed trace export:
	// every query records a W3C-identified span tree, tail-sampled
	// (slow/errored/degraded always kept) and shipped to this OTLP/HTTP
	// collector base URL in batches.
	OTLPEndpoint string
	// ServiceName is the resource service.name stamped on exported
	// spans (default "lusail-server").
	ServiceName string
	// TraceSample, when non-nil, is the head-sampling ratio for
	// locally-rooted traces (nil = sample all; 0 leaves retention to
	// the tail rules). Inbound traceparent requests keep the caller's
	// sampled flag.
	TraceSample *float64
	// TraceSlowThreshold marks traces at or above this duration as
	// always-kept by the tail sampler (0 = fall back to SlowThreshold).
	TraceSlowThreshold time.Duration

	// SLO tunes the in-process SLO engine (zero values select the
	// defaults: 99% availability, 99% of queries under 1s, 5m/1h
	// windows, burn threshold 1).
	SLO lusail.SLOConfig
	// SLOReady degrades /readyz to 503 while any SLO objective burns
	// past the threshold in both windows, so load balancers shed
	// traffic from an instance that is eating its error budget.
	SLOReady bool
}

// server is the lusail-server daemon: a federation plus its
// operational surface (SPARQL protocol, metrics, health, readiness,
// query-log debug).
type server struct {
	fed    *lusail.Federation
	reg    *lusail.MetricsRegistry
	qlog   *lusail.QueryLog
	logger *slog.Logger
	cfg    serverConfig

	slo      *lusail.SLO
	exporter *lusail.SpanExporter // nil without -otlp-endpoint
	sink     lusail.TraceSink     // tail sampler → exporter; nil without export

	mux *http.ServeMux
	adm *admission
	sf  *singleflight // nil when collapsing is disabled
	// policyKey folds the server's execution policy into singleflight
	// keys, so deployments proxying multiple policy tiers never share.
	policyKey string
	probed    atomic.Bool // initial source probing complete
}

// newServer wires the observability stack around a federation over
// eps and builds the HTTP surface.
func newServer(eps []lusail.Endpoint, cfg serverConfig) *server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	reg := lusail.NewMetricsRegistry()
	qlog := lusail.NewQueryLog(lusail.QueryLogConfig{
		Logger:        logger,
		SlowThreshold: cfg.SlowThreshold,
		RingSize:      cfg.RingSize,
		Registry:      reg,
	})
	opts := []lusail.Option{lusail.WithObservability(qlog)}
	if cfg.Resilience != nil {
		opts = append(opts, lusail.WithResilience(*cfg.Resilience))
	}
	if cfg.Degradation != lusail.DegradeFail {
		opts = append(opts, lusail.WithDegradation(cfg.Degradation))
	}
	if cfg.QueryBudget > 0 {
		opts = append(opts, lusail.WithQueryBudget(cfg.QueryBudget))
	}
	if cfg.Hedge {
		opts = append(opts, lusail.WithHedging(lusail.DefaultHedge()))
	}
	if cfg.SubqueryCacheSize > 0 {
		opts = append(opts, lusail.WithSubqueryCache(cfg.SubqueryCacheSize, cfg.SubqueryCacheTTL))
	}
	if cfg.CoherenceWindow > 0 {
		opts = append(opts, lusail.WithCoherenceWindow(cfg.CoherenceWindow))
	}
	if cfg.Caching != lusail.CachingEnforce {
		opts = append(opts, lusail.WithCaching(cfg.Caching))
	}
	if cfg.Statistics {
		if cfg.StatsCalibrate {
			opts = append(opts, lusail.WithCalibration(lusail.StatisticsConfig{}))
		} else {
			opts = append(opts, lusail.WithStatistics(lusail.StatisticsConfig{}))
		}
	}
	if cfg.ReplanOvershoot > 0 {
		opts = append(opts, lusail.WithReplanOvershoot(cfg.ReplanOvershoot))
	}
	if cfg.TraceSample != nil {
		opts = append(opts, lusail.WithTraceSampling(*cfg.TraceSample))
	}
	fed := lusail.New(eps, opts...)
	fed.RegisterMetrics(reg)

	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 64
	}
	queueWait := cfg.QueueWait
	if queueWait <= 0 {
		queueWait = 2 * time.Second
	}
	adm := newAdmission(cfg.MaxConcurrent, maxQueue, queueWait)
	adm.register(reg)

	s := &server{fed: fed, reg: reg, qlog: qlog, logger: logger, cfg: cfg, adm: adm}

	// SLO engine: always on (a mutex and two adds per query); the
	// /debug/slo route and lusail_slo_* families read it at scrape time.
	s.slo = lusail.NewSLO(cfg.SLO)
	s.slo.Register(reg)

	// Trace export chain: tail sampler in front of the OTLP exporter.
	// Slow, errored, and degraded traces are always kept; head-sampled
	// traces (WithTraceSampling) flow through as usual.
	if cfg.OTLPEndpoint != "" {
		service := cfg.ServiceName
		if service == "" {
			service = "lusail-server"
		}
		s.exporter = lusail.NewSpanExporter(lusail.ExporterConfig{
			Endpoint: cfg.OTLPEndpoint,
			Service:  service,
			Logger:   logger,
		})
		s.exporter.Register(reg)
		slowTrace := cfg.TraceSlowThreshold
		if slowTrace <= 0 {
			slowTrace = cfg.SlowThreshold
		}
		sampler := lusail.NewTraceSampler(lusail.SamplerConfig{
			SlowThreshold: slowTrace,
			KeepErrors:    true,
			KeepDegraded:  true,
			Next:          s.exporter,
		})
		sampler.Register(reg)
		s.sink = sampler
	}

	if cfg.Singleflight {
		s.sf = newSingleflight()
		s.sf.register(reg)
	}
	s.policyKey = fmt.Sprintf("degrade=%d;budget=%s;timeout=%s",
		cfg.Degradation, cfg.QueryBudget, cfg.QueryTimeout)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/sparql", s.handleQuery)
	s.mux.Handle("/metrics", reg.Handler())
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.Handle("/debug/queries", qlog.DebugHandler())
	s.mux.Handle("/debug/slo", s.slo.Handler())
	s.mux.HandleFunc("/debug/invalidate", s.handleInvalidate)
	s.mux.HandleFunc("/debug/stats", s.handleStats)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// probe runs the initial source probing: one ASK against every
// endpoint, in parallel, to warm connections and surface dead
// endpoints at startup. /readyz reports 503 until probing completes
// (probe failures are logged but do not block readiness forever — the
// breakers own steady-state health).
func (s *server) probe(ctx context.Context) {
	eps := s.fed.Endpoints()
	done := make(chan struct{}, len(eps))
	for _, ep := range eps {
		ep := ep
		go func() {
			defer func() { done <- struct{}{} }()
			pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if _, err := ep.Query(pctx, "ASK { ?s ?p ?o }"); err != nil {
				s.logger.Warn("startup probe failed", "endpoint", ep.Name(), "err", err)
				return
			}
			s.logger.Info("startup probe ok", "endpoint", ep.Name())
		}()
	}
	for range eps {
		<-done
	}
	s.probed.Store(true)
	s.logger.Info("initial source probing complete", "endpoints", len(eps))
}

// handleHealth is the liveness probe: the process is up and serving.
// The body carries per-endpoint detail (breaker state per endpoint)
// as JSON, so a partially degraded federation is visible here while
// /readyz keeps routing traffic to the survivors.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	type epHealth struct {
		Name    string `json:"name"`
		Breaker string `json:"breaker,omitempty"`
	}
	states := s.fed.BreakerStates()
	out := struct {
		Status    string     `json:"status"`
		Probed    bool       `json:"probed"`
		Endpoints []epHealth `json:"endpoints"`
	}{Status: "ok", Probed: s.probed.Load()}
	byName := map[string]lusail.BreakerState{}
	for _, b := range states {
		byName[b.Name] = b.State
	}
	for _, ep := range s.fed.Endpoints() {
		h := epHealth{Name: ep.Name()}
		if st, ok := byName[ep.Name()]; ok {
			h.Breaker = breakerName(st)
		}
		out.Endpoints = append(out.Endpoints, h)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

func breakerName(st lusail.BreakerState) string {
	switch st {
	case lusail.BreakerOpen:
		return "open"
	case lusail.BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// handleReady is the readiness probe. By default a partially degraded
// federation stays ready: 503 only while initial source probing is
// incomplete, while EVERY endpoint's circuit breaker is open (nothing
// left to answer from), or under sustained admission saturation. With
// StrictReady, any single open breaker reports 503 (the historical
// rule, for deployments that would rather fail over than degrade).
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.probed.Load() {
		http.Error(w, "not ready: initial source probing incomplete", http.StatusServiceUnavailable)
		return
	}
	if s.adm.saturated() {
		http.Error(w, "not ready: admission queue saturated", http.StatusServiceUnavailable)
		return
	}
	if s.cfg.SLOReady && s.slo.Degraded() {
		// Multiwindow burn: an objective is over its burn threshold in
		// BOTH the fast and slow windows — a sustained incident, not a
		// blip. Shed traffic so the balancer routes around this instance.
		http.Error(w, "not ready: SLO error budget burning", http.StatusServiceUnavailable)
		return
	}
	states := s.fed.BreakerStates()
	open := 0
	firstOpen := ""
	for _, b := range states {
		if b.State == lusail.BreakerOpen {
			open++
			if firstOpen == "" {
				firstOpen = b.Name
			}
		}
	}
	if s.cfg.StrictReady && open > 0 {
		http.Error(w, fmt.Sprintf("not ready: circuit breaker open for endpoint %s", firstOpen),
			http.StatusServiceUnavailable)
		return
	}
	if len(states) > 0 && open == len(states) {
		http.Error(w, "not ready: all endpoint circuit breakers open", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleQuery serves the SPARQL protocol for federated queries: GET
// with ?query=, POST with a form-encoded query parameter, or POST
// with an application/sparql-query body. Results are encoded per the
// Accept header (JSON default; XML, CSV, TSV supported).
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Cap the request body before anything reads it: an unbounded
	// io.ReadAll over an attacker-sized body is a trivial memory DoS.
	if r.Method == http.MethodPost {
		max := s.cfg.MaxRequestBytes
		if max == 0 {
			max = lusail.DefaultMaxRequestBytes
		}
		if max > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, max)
		}
	}
	query, err := extractQuery(r)
	if err != nil {
		if errors.Is(err, errMethod) {
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, err.Error(), http.StatusMethodNotAllowed)
			return
		}
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}

	// A syntactically invalid query is the client's fault: reject it
	// with 400 before it reaches the engine (mirroring the SPARQL
	// protocol's MalformedQuery distinction). The parsed form doubles
	// as the singleflight canonicalization below.
	q, perr := sparql.Parse(query)
	if perr != nil {
		http.Error(w, perr.Error(), http.StatusBadRequest)
		return
	}

	// Admission control: take a query slot (waiting briefly in the
	// bounded queue) or shed the request so overload turns into fast
	// 503s instead of unbounded queueing.
	release, ok := s.adm.acquire(r.Context())
	if !ok {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
		return
	}
	defer release()

	// r.Context() so a client disconnect cancels the federated query:
	// the engine's streaming executor aborts its in-flight subqueries
	// and the admission slot frees as soon as the handler returns.
	// An inbound W3C traceparent joins the caller's distributed trace:
	// this query's spans carry the caller's trace ID and the federation
	// produces one stitched trace across processes.
	ctx := lusail.ExtractTraceContext(r.Context(), r.Header)
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	// The JSON default streams solution rows as they land; the other
	// formats keep the buffered path (their encoders need the full
	// result anyway, and XML's head carries no row-independent state
	// worth splitting).
	accept := r.Header.Get("Accept")
	buffered := strings.Contains(accept, "application/sparql-results+xml") ||
		strings.Contains(accept, "text/csv") ||
		strings.Contains(accept, "text/tab-separated-values")

	if s.sf == nil {
		s.runQuery(w, ctx, query, accept, buffered, nil)
		return
	}

	// Singleflight: collapse identical concurrent queries onto one
	// engine execution. The key is the canonicalized query text (two
	// spellings of one query collapse) plus the policy context.
	key := q.String() + "\x00" + s.policyKey
	f, follower := s.sf.join(key)
	if follower {
		select {
		case <-ctx.Done():
			return
		case <-f.done:
		}
		if f.err == nil {
			s.writeResult(w, f.res, accept)
			return
		}
		// The leader's failure (possibly its own client hanging up and
		// cancelling its context) is not this request's failure: run
		// the query independently.
		s.runQuery(w, ctx, query, accept, buffered, nil)
		return
	}
	// Leader: execute normally — streaming to this client as usual —
	// while materializing the result for the followers.
	s.runQuery(w, ctx, query, accept, buffered, func(res *lusail.Results, err error) {
		s.sf.finish(key, f, res, err)
	})
}

// finishQuery closes out one traced execution: the terminal error is
// stamped on the root span (the tail sampler's always-keep rule for
// errored traces reads it), the outcome feeds the SLO engine's rolling
// windows, and the trace is handed to the export chain.
func (s *server) finishQuery(tr *lusail.Trace, dur time.Duration, err error) {
	if err != nil && tr != nil {
		tr.Root.Set("error", err.Error())
	}
	s.slo.Record(dur, err != nil)
	if s.sink != nil && tr != nil {
		s.sink.ExportTrace(tr)
	}
}

// runQuery executes one query and writes the response. publish, when
// non-nil, receives the materialized result (or the terminal error)
// exactly once, for singleflight replay to collapsed followers.
func (s *server) runQuery(w http.ResponseWriter, ctx context.Context, query, accept string, buffered bool, publish func(*lusail.Results, error)) {
	if !buffered {
		res, err := s.streamQuery(w, ctx, query, publish != nil)
		if publish != nil {
			publish(res, err)
		}
		return
	}
	// Traced execution so slow queries carry their span tree into the
	// query log's ring buffer and the export chain ships it.
	start := time.Now()
	res, _, tr, err := s.fed.QueryTraced(ctx, query)
	s.finishQuery(tr, time.Since(start), err)
	if err != nil {
		if publish != nil {
			publish(nil, err)
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if publish != nil {
		publish(res, nil)
	}
	if tr != nil {
		w.Header().Set("X-Lusail-Trace-Id", tr.ID().String())
	}
	s.writeResult(w, res, accept)
}

// writeResult encodes a materialized result per the Accept header —
// the buffered formats' response path, and the replay path for
// singleflight followers (each follower re-encodes for its own
// Accept).
func (s *server) writeResult(w http.ResponseWriter, res *lusail.Results, accept string) {
	if c := res.Completeness; c != nil && !c.Complete {
		w.Header().Set("X-Lusail-Partial-Results", "true")
	}
	var err error
	switch {
	case strings.Contains(accept, "application/sparql-results+xml"):
		w.Header().Set("Content-Type", "application/sparql-results+xml")
		err = res.EncodeXML(w)
	case strings.Contains(accept, "text/csv"):
		w.Header().Set("Content-Type", "text/csv")
		err = res.EncodeCSV(w)
	case strings.Contains(accept, "text/tab-separated-values"):
		w.Header().Set("Content-Type", "text/tab-separated-values")
		err = res.EncodeTSV(w)
	default:
		w.Header().Set("Content-Type", "application/sparql-results+json")
		err = res.EncodeJSON(w)
	}
	if err != nil {
		s.logger.Debug("result encoding failed mid-stream", "err", err)
	}
}

// handleInvalidate is the admin cache-invalidation hook: POST with an
// optional form/query parameter endpoint=<name> drops the cached
// planning decisions and subquery results depending on that endpoint;
// without it, every engine cache is cleared. In-flight computations
// complete for their waiters but are not re-stored.
func (s *server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	target := r.Form.Get("endpoint")
	scope := "all"
	if target == "" {
		s.fed.InvalidateCaches()
	} else {
		found := false
		for _, ep := range s.fed.Endpoints() {
			if ep.Name() == target {
				found = true
				break
			}
		}
		if !found {
			http.Error(w, fmt.Sprintf("unknown endpoint %q", target), http.StatusNotFound)
			return
		}
		s.fed.InvalidateEndpointCaches(target)
		scope = target
	}
	s.logger.Info("caches invalidated", "scope", scope)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Invalidated string `json:"invalidated"`
	}{Invalidated: scope})
}

// handleStats is the statistics service's debug surface: GET returns
// the counter snapshot as JSON; POST re-harvests every endpoint's
// summary first (the admin hook after a known bulk load), then returns
// the fresh snapshot.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		if !s.cfg.Statistics {
			http.Error(w, "statistics service disabled (start with -stats)", http.StatusConflict)
			return
		}
		if err := s.fed.RefreshStatistics(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Enabled     bool                   `json:"enabled"`
		Calibrating bool                   `json:"calibrating"`
		Stats       lusail.StatisticsStats `json:"stats"`
	}{Enabled: s.cfg.Statistics, Calibrating: s.cfg.StatsCalibrate, Stats: s.fed.StatisticsStats()})
}

// refreshStats runs the statistics service's background harvest loop:
// one harvest at startup (so the first queries already plan from
// summaries), then one every StatsRefresh until shutdown. Harvest
// failures are logged and retried at the next tick — the engine just
// keeps probing endpoints for whatever summaries are missing.
func (s *server) refreshStats(ctx context.Context) {
	harvest := func() {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		defer cancel()
		if err := s.fed.RefreshStatistics(hctx); err != nil {
			s.logger.Warn("statistics harvest failed", "err", err)
			return
		}
		st := s.fed.StatisticsStats()
		s.logger.Info("statistics harvested",
			"summaries", st.Summaries, "harvest_queries", st.HarvestQueries)
	}
	harvest()
	if s.cfg.StatsRefresh <= 0 {
		return
	}
	t := time.NewTicker(s.cfg.StatsRefresh)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			harvest()
		}
	}
}

// streamQuery serves the SPARQL JSON path with chunked transfer: each
// result chunk is encoded and flushed as the engine produces it, so
// clients see first solutions while phase-2 subqueries are still in
// flight. Because the status line is gone after the first flush,
// end-of-stream conditions travel as HTTP trailers: X-Lusail-Partial-
// Results marks degraded completeness, X-Lusail-Error carries a
// mid-stream failure on a truncated document.
//
// With materialize set (singleflight leaders), the streamed rows are
// additionally buffered and the returned Results carries them, so
// collapsed followers can replay the full result; otherwise the
// returned Results is the engine's summary (row count only).
func (s *server) streamQuery(w http.ResponseWriter, ctx context.Context, query string, materialize bool) (*lusail.Results, error) {
	// Trailers must be declared before the first byte of the body. The
	// trace ID travels as a trailer too: it is minted inside the traced
	// execution, after the status line is gone.
	w.Header().Set("Trailer", "X-Lusail-Partial-Results, X-Lusail-Error, X-Lusail-Trace-Id")
	w.Header().Set("Content-Type", "application/sparql-results+json")

	flusher, canFlush := w.(http.Flusher)
	enc := sparql.NewJSONRowEncoder(w)
	var kept []lusail.Binding
	start := time.Now()
	res, _, tr, err := s.fed.QueryStreamTraced(ctx, query,
		func(vars []lusail.Var, rows []lusail.Binding) error {
			if materialize {
				kept = append(kept, rows...)
			}
			if err := enc.Rows(vars, rows); err != nil {
				return err
			}
			if canFlush {
				flusher.Flush()
			}
			return nil
		})
	s.finishQuery(tr, time.Since(start), err)
	if tr != nil {
		w.Header().Set("X-Lusail-Trace-Id", tr.ID().String())
	}
	if err != nil {
		if !enc.Started() {
			// Nothing written yet: a clean HTTP error is still possible.
			w.Header().Del("Trailer")
			w.Header().Del("Content-Type")
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return nil, err
		}
		w.Header().Set("X-Lusail-Error", err.Error())
		s.logger.Debug("stream failed mid-response", "err", err)
		return nil, err
	}
	if res.AskForm {
		// ASK never streams; the boolean document goes out whole.
		w.Header().Del("Trailer")
		_ = res.EncodeJSON(w)
		return res, nil
	}
	// Close writes a valid empty document when no chunk ever arrived.
	if err := enc.Close(res.Vars); err != nil {
		s.logger.Debug("stream close failed", "err", err)
		// The result itself is complete; only this client's connection
		// failed. Followers can still replay it.
	}
	// Trailer values are picked up from the header map after the body.
	if c := res.Completeness; c != nil && !c.Complete {
		w.Header().Set("X-Lusail-Partial-Results", "true")
	}
	if materialize {
		full := *res
		full.Rows = kept
		full.Streamed = 0
		return &full, nil
	}
	return res, nil
}

var errMethod = errors.New("method not allowed")

// extractQuery pulls the SPARQL query text out of a protocol request.
func extractQuery(r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query parameter")
		}
		return q, nil
	case http.MethodPost:
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/sparql-query") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return "", err
			}
			return string(body), nil
		}
		if err := r.ParseForm(); err != nil {
			return "", err
		}
		q := r.PostForm.Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query parameter")
		}
		return q, nil
	default:
		return "", fmt.Errorf("%w: %s", errMethod, r.Method)
	}
}

// listen opens the daemon's listener.
func (s *server) listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// serve runs the HTTP server on ln until ctx is cancelled, then
// gracefully drains in-flight queries for up to drain before closing.
// The server is configured with read-header/read/idle timeouts so a
// slowloris client cannot pin connections open.
func (s *server) serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(s.logger.Handler(), slog.LevelWarn),
	}
	go s.probe(ctx)
	if s.cfg.Statistics {
		go s.refreshStats(ctx)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	s.logger.Info("lusail-server listening", "addr", ln.Addr().String(),
		"endpoints", len(s.fed.Endpoints()))

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.logger.Info("shutting down: draining in-flight queries", "drain", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		s.logger.Warn("drain incomplete, closing", "err", err)
		return err
	}
	if s.exporter != nil {
		// Ship whatever the trace queue still holds inside the remaining
		// drain budget; dropped batches are already accounted in the
		// lusail_trace_export_* counters.
		if err := s.exporter.Shutdown(dctx); err != nil {
			s.logger.Warn("trace exporter drain incomplete", "err", err)
		}
	}
	s.logger.Info("shutdown complete")
	return nil
}
