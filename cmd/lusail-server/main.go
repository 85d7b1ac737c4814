// Command lusail-server is the long-running federation daemon: it
// loads (or points at) a federation of SPARQL endpoints and serves
// federated queries over the SPARQL protocol, together with the
// operational surface a production deployment needs:
//
//	/sparql         SPARQL protocol (GET ?query=, POST form, POST application/sparql-query)
//	/metrics        Prometheus text-format exposition (queries, phases, per-endpoint stats, breakers)
//	/healthz        liveness (process up) with per-endpoint breaker detail as JSON
//	/readyz         readiness (503 while probing, while ALL breakers are open, or under
//	                sustained admission saturation; -strict-ready restores the historical
//	                any-open-breaker rule)
//	/debug/queries  recent + slow queries (slow ones with rendered span trees and trace IDs), JSON
//	/debug/slo      SLO burn-rate snapshot (availability + latency objectives, fast/slow windows), JSON
//	/debug/invalidate  POST drops the engine caches (endpoint=<name> scopes to one endpoint)
//	/debug/stats    statistics-service snapshot as JSON (POST re-harvests; with -stats)
//	/debug/pprof/   net/http/pprof (with -pprof)
//
// With -otlp-endpoint, every query records a W3C-identified span tree:
// inbound traceparent headers are joined (one stitched trace across a
// federation of lusail processes), outgoing endpoint requests propagate
// the context, and completed traces are tail-sampled (slow, errored,
// and degraded traces always kept) and shipped to the collector in
// batches.
//
// Endpoints are given as repeated -endpoint flags, each either an
// http(s):// SPARQL endpoint URL or a path to a local N-Triples file
// (loaded in process):
//
//	lusail-server -addr :8080 -endpoint http://host1:8001 -endpoint data/univ1.nt
//
// SIGINT/SIGTERM drain in-flight queries (bounded by -drain) before
// exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lusail"
)

type endpointFlags []string

func (e *endpointFlags) String() string { return strings.Join(*e, ",") }
func (e *endpointFlags) Set(v string) error {
	*e = append(*e, v)
	return nil
}

func main() {
	var endpoints endpointFlags
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		slow         = flag.Duration("slow", 500*time.Millisecond, "slow-query threshold (0 disables slow-query capture)")
		ringSize     = flag.Int("ring", 128, "recent/slow query ring-buffer size")
		queryTimeout = flag.Duration("query-timeout", 5*time.Minute, "per-query timeout")
		maxReqBytes  = flag.Int64("max-request-bytes", 0, "cap on POST request bodies; oversized requests get 413 (0 = default 4MiB, negative = unlimited)")
		drain        = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight queries")
		resilience   = flag.Bool("resilience", true, "enable endpoint retries and circuit breakers")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel     = flag.String("log-level", "info", "log level: debug | info | warn | error")

		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrently executing queries (0 = unlimited)")
		maxQueue      = flag.Int("max-queue", 64, "max requests waiting for a query slot")
		queueWait     = flag.Duration("queue-wait", 2*time.Second, "max time a request waits for a query slot")
		strictReady   = flag.Bool("strict-ready", false, "report /readyz 503 while ANY breaker is open (historical rule)")
		degrade       = flag.String("degrade", "fail", "degradation policy: fail | skip-endpoint | best-effort")
		queryBudget   = flag.Duration("query-budget", 0, "per-query wall-clock budget (0 = none; best-effort returns partial results)")
		hedge         = flag.Bool("hedge", false, "hedge slow phase-1 subqueries with one backup request")

		sqCache      = flag.Int("subquery-cache", 0, "persistent cross-query subquery-result cache entries (0 disables)")
		sqCacheTTL   = flag.Duration("subquery-cache-ttl", time.Minute, "TTL of cached subquery results (0 = no expiry)")
		singleflight = flag.Bool("singleflight", true, "collapse concurrent identical queries into one execution")

		coherenceWindow = flag.Duration("coherence-window", 0, "how long a data-version probe stays trusted (0 = probe every query)")
		coherenceMode   = flag.String("coherence", "enforce", "cache-coherence fence mode: enforce | observe | off")

		statsOn        = flag.Bool("stats", false, "harvest per-endpoint statistics summaries so warmed queries plan without endpoint probes")
		statsRefresh   = flag.Duration("stats-refresh", 15*time.Minute, "background statistics re-harvest interval (0 = harvest once at startup)")
		statsCalibrate = flag.Bool("stats-calibrate", false, "self-tune cardinality estimates from estimated-vs-actual feedback (implies -stats)")
		replanFactor   = flag.Float64("replan-overshoot", 0, "re-plan mid-query when a phase-1 result exceeds its estimate by this factor (0 disables)")

		otlpEndpoint = flag.String("otlp-endpoint", "", "OTLP/HTTP collector base URL for trace export (empty disables)")
		serviceName  = flag.String("service-name", "lusail-server", "service.name stamped on exported spans")
		traceSample  = flag.Float64("trace-sample", 1, "head-sampling ratio for locally-rooted traces (0..1; slow/errored/degraded traces are always kept)")
		traceSlow    = flag.Duration("trace-slow", 0, "tail sampler's always-keep latency threshold (0 = use -slow)")

		sloAvail        = flag.Float64("slo-availability", 0.99, "availability objective: fraction of queries that must succeed")
		sloLatTarget    = flag.Float64("slo-latency-target", 0.99, "latency objective: fraction of queries that must finish under -slo-latency-threshold")
		sloLatThreshold = flag.Duration("slo-latency-threshold", time.Second, "latency objective's cut-off")
		sloFastWindow   = flag.Duration("slo-fast-window", 5*time.Minute, "fast burn-rate evaluation window")
		sloSlowWindow   = flag.Duration("slo-slow-window", time.Hour, "slow burn-rate evaluation window")
		sloBurn         = flag.Float64("slo-burn-threshold", 1, "burn rate at which an objective counts as burning (both windows must exceed it)")
		sloReady        = flag.Bool("slo-ready", false, "report /readyz 503 while any SLO objective burns past the threshold in both windows")
	)
	flag.Var(&endpoints, "endpoint", "endpoint URL or N-Triples file (repeatable)")
	flag.Parse()

	logger, err := buildLogger(*logJSON, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(endpoints) == 0 {
		fmt.Fprintln(os.Stderr, "at least one -endpoint is required")
		flag.Usage()
		os.Exit(2)
	}

	eps, err := loadEndpoints(endpoints)
	if err != nil {
		logger.Error("loading endpoints", "err", err)
		os.Exit(1)
	}

	policy, err := lusail.ParseDegradePolicy(*degrade)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var caching lusail.CachingMode
	switch *coherenceMode {
	case "enforce":
		caching = lusail.CachingEnforce
	case "observe":
		caching = lusail.CachingObserve
	case "off":
		caching = lusail.CachingUnfenced
	default:
		fmt.Fprintf(os.Stderr, "invalid -coherence mode %q (want enforce | observe | off)\n", *coherenceMode)
		os.Exit(2)
	}

	cfg := serverConfig{
		Logger:          logger,
		SlowThreshold:   *slow,
		RingSize:        *ringSize,
		QueryTimeout:    *queryTimeout,
		MaxRequestBytes: *maxReqBytes,
		EnablePprof:     *pprofOn,
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		QueueWait:       *queueWait,
		StrictReady:     *strictReady,
		Degradation:     policy,
		QueryBudget:     *queryBudget,
		Hedge:           *hedge,

		SubqueryCacheSize: *sqCache,
		SubqueryCacheTTL:  *sqCacheTTL,
		Singleflight:      *singleflight,

		CoherenceWindow: *coherenceWindow,
		Caching:         caching,

		Statistics:      *statsOn || *statsCalibrate,
		StatsRefresh:    *statsRefresh,
		StatsCalibrate:  *statsCalibrate,
		ReplanOvershoot: *replanFactor,

		OTLPEndpoint:       *otlpEndpoint,
		ServiceName:        *serviceName,
		TraceSlowThreshold: *traceSlow,
		SLO: lusail.SLOConfig{
			AvailabilityTarget: *sloAvail,
			LatencyTarget:      *sloLatTarget,
			LatencyThreshold:   *sloLatThreshold,
			FastWindow:         *sloFastWindow,
			SlowWindow:         *sloSlowWindow,
			DegradeThreshold:   *sloBurn,
		},
		SLOReady: *sloReady,
	}
	if *traceSample < 1 {
		cfg.TraceSample = traceSample
	}
	if *resilience {
		rc := lusail.DefaultResilience()
		cfg.Resilience = &rc
	}
	s := newServer(eps, cfg)

	ln, err := s.listen(*addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.serve(ctx, ln, *drain); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

// loadEndpoints resolves each -endpoint spec: URLs become HTTP
// clients, paths are loaded as in-process N-Triples endpoints.
func loadEndpoints(specs []string) ([]lusail.Endpoint, error) {
	var eps []lusail.Endpoint
	for _, spec := range specs {
		if strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
			eps = append(eps, lusail.ConnectHTTP(spec, spec))
			continue
		}
		f, err := os.Open(spec)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(spec), filepath.Ext(spec))
		ep, err := lusail.LoadEndpoint(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	return eps, nil
}

func buildLogger(jsonOut bool, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}
