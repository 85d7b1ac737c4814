package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/stats"
	"lusail/internal/trace"
)

// Config tunes Lusail.
type Config struct {
	// DelayPolicy selects the delayed-subquery threshold; the paper's
	// default is mu+sigma (Fig. 9).
	DelayPolicy DelayPolicy
	// BindBlockSize is the VALUES block size for bound subqueries.
	BindBlockSize int
	// Workers bounds join parallelism (0 = GOMAXPROCS).
	Workers int
	// Caching selects how planning verdicts (ASK, check, COUNT) and
	// subquery results are cached and fenced against endpoint data
	// changes: cache.Enforce (the default), Observe, Unfenced, or Off,
	// which builds no caches at all.
	Caching cache.Mode
	// AssumeAllGlobal disables locality check queries, treating every
	// shared variable as global (LADE ablation: pure schema-based
	// decomposition, one pattern at a time when schemas overlap).
	AssumeAllGlobal bool
	// TraversalDecomposer switches to the paper's literal Algorithm 2
	// (query-tree branching + merging) instead of the default fixpoint
	// merger; both produce valid decompositions (§IV-C notes the
	// result is traversal-order dependent).
	TraversalDecomposer bool
	// Resilience, when non-nil, wraps every endpoint in a resilient
	// decorator: per-request timeout, bounded retries with jittered
	// exponential backoff on transient faults, and a per-endpoint
	// circuit breaker. nil (the default) disables the layer: the first
	// endpoint error surfaces immediately, as an all-or-nothing
	// federation. See endpoint.DefaultResilience for tuned defaults.
	Resilience *endpoint.ResilienceConfig
	// Instrument wraps every endpoint in an instrumented decorator
	// recording per-endpoint latency histograms and request/error
	// counters, readable via EndpointStats. The decorator wraps
	// outside the resilient layer, so its latencies cover whole
	// logical calls including retries and backoff.
	Instrument bool
	// Degradation selects how the engine responds to an endpoint whose
	// retries exhaust (or whose breaker is open) mid-query. The default
	// DegradeFail keeps today's all-or-nothing behavior; SkipEndpoint
	// and BestEffort drop the failing endpoint's contribution, keep
	// joining what remains, and annotate the result with a Completeness
	// report.
	Degradation endpoint.DegradePolicy
	// QueryBudget, when > 0, bounds each query's wall-clock time. Under
	// BestEffort an expired budget skips the remaining delayed
	// subqueries and returns the (annotated) partial answer; under the
	// other policies it fails the query like a deadline.
	QueryBudget time.Duration
	// Hedge, when non-nil, wraps every endpoint in a hedged decorator:
	// phase-1 subqueries whose latency exceeds the endpoint's observed
	// quantile get one backup attempt, first result wins. It layers
	// outside Resilience (each attempt retries independently) and
	// inside Instrument.
	Hedge *endpoint.HedgeConfig
	// BoundBlockBytes caps the approximate serialized size of one
	// VALUES block in bound (phase-2) subqueries, on top of the
	// BindBlockSize row cap (0 = 64 KiB). Oversized or rejected blocks
	// are recursively bisected and retried.
	BoundBlockBytes int
	// SubqueryCacheSize, when > 0, retains phase-1 subquery results in
	// a persistent cross-query cache of at most this many entries (LRU
	// eviction past the bound), keyed on (canonicalized subquery text,
	// stable endpoint names). Every execution path — Execute,
	// ExecuteBatch, ExecuteStream — shares the one cache, so repeat
	// traffic reuses earlier queries' subquery results. 0 (the default)
	// keeps subquery reuse batch-scoped as before.
	SubqueryCacheSize int
	// SubqueryCacheTTL bounds the staleness of a persistent cached
	// subquery result (0 = no expiry). Only meaningful with
	// SubqueryCacheSize > 0.
	SubqueryCacheTTL time.Duration
	// CoherenceWindow amortizes the cache-coherence fence's data-version
	// probes: an endpoint's version is re-probed at most once per window
	// per query start, so a cached entry can be served at most one
	// window past a data change. 0 (the default) probes at every query
	// start — the strictest setting; probes are free on local endpoints
	// and one HEAD request on HTTP ones. Only meaningful when Caching
	// is Enforce or Observe.
	CoherenceWindow time.Duration
	// QueryLog, when non-nil, receives a lifecycle event pair for
	// every query execution (Execute, ExecuteMetrics, ExecuteTraced,
	// and each ExecuteBatch member): QueryStarted assigns the query's
	// correlation ID, and QueryFinished reports its metrics, row
	// count, error, and — for traced executions — the root span. The
	// correlation ID is also threaded into the trace as the root
	// span's "qid" attribute.
	QueryLog QueryLogger
	// Statistics, when non-nil, enables the offline statistics service:
	// harvested per-endpoint summaries (predicate cardinalities, class
	// counts, predicate-pair join summaries) answer plan-time ASK /
	// locality-check / COUNT questions without contacting endpoints,
	// falling back to probes on summary miss. Summaries are fenced
	// against endpoint data versions like every other cache. Harvest
	// via RefreshStats (or the server's background refresher).
	Statistics *stats.Config
	// ReplanOvershoot, when > 0, arms the mid-query re-planning hook:
	// if a phase-1 subquery's actual row count exceeds its estimate by
	// more than this factor, delay marks are recomputed with the
	// observed cardinalities and formerly-delayed subqueries that are
	// no longer outliers are promoted to concurrent execution. 0
	// disables re-planning.
	ReplanOvershoot float64
	// TraceSampling, when non-nil, is the head-sampling ratio applied to
	// locally-rooted traces (deterministic on the trace ID, so one
	// query's spans are kept or dropped as a unit across processes).
	// nil samples everything; 0.0 marks every locally-rooted trace
	// unsampled, leaving retention entirely to tail rules (slow,
	// errored, degraded). Traces joined from a remote parent honor the
	// caller's sampled flag instead — the head decision belongs to the
	// trace's root.
	TraceSampling *float64
}

// QueryLogger receives query lifecycle events. Implementations must be
// safe for concurrent use: batch members report concurrently.
// internal/obs provides the standard implementation (structured slog
// output, slow-query ring buffer, metric counters); core only defines
// the interface so it never depends on the observability layer.
type QueryLogger interface {
	// QueryStarted is called before execution and returns the query's
	// correlation ID.
	QueryStarted(query string) (id string)
	// QueryFinished is called exactly once per started query, after
	// the metrics are final. rows is -1 when the query failed before
	// producing results; root is the execution's root span (nil for
	// untraced executions).
	QueryFinished(id, query string, m Metrics, rows int, err error, root *trace.Span)
}

// Metrics profiles one query execution through Lusail's three phases
// (Fig. 10) and its remote traffic.
type Metrics struct {
	SourceSelection time.Duration
	Analysis        time.Duration
	Execution       time.Duration

	AskRequests    int // source selection probes sent
	CheckQueries   int // LADE locality probes sent
	CountQueries   int // SAPE statistics probes sent
	Phase1Requests int // non-delayed subquery evaluations
	Phase2Requests int // bound (delayed) subquery evaluations
	RefineRequests int
	BoundBlocks    int
	// SummaryHits counts plan-time questions (ASK relevance, LADE
	// locality, COUNT cardinality) answered from the offline
	// statistics summaries instead of endpoint probes.
	SummaryHits int
	// Replans counts mid-query re-planning rounds triggered by a
	// phase-1 result overshooting its estimate (Config.ReplanOvershoot).
	Replans int

	Subqueries int
	Delayed    int
	GJVs       int
	// Retries and BreakerOpens count the fault-recovery events of this
	// query (non-zero only with Config.Resilience set). They are
	// tracked per call via context-attached counters, so concurrent
	// executions (ExecuteBatch) do not double-count each other; a
	// subquery shared through the batch cache attributes its events to
	// the query that actually issued the requests.
	Retries      int
	BreakerOpens int
	// Hedges counts the backup attempts launched for this query's
	// phase-1 requests (non-zero only with Config.Hedge set).
	Hedges int
	// SharedSubqueries counts this query's phase-1 subquery
	// evaluations reused through the subquery cache (a retained result
	// or another query's in-flight one) instead of sent to endpoints.
	SharedSubqueries int
	// ChunkSplits counts the VALUES-block bisections phase-2 performed
	// after an endpoint rejected or timed out on a block.
	ChunkSplits int
	// DroppedEndpoints counts the contributions a degraded execution
	// dropped, and Completeness details them (nil unless a degradation
	// policy or query budget was configured). Like Retries they are
	// tracked per call, so concurrent executions do not cross-attribute.
	DroppedEndpoints int
	Completeness     *sparql.Completeness
	// Staleness is the query's coherence verdict: what guarantee its
	// cached reuse carried ("fresh", "bounded", "unverified",
	// "unfenced"). See the cache.Staleness* constants.
	Staleness string
}

// Total returns the total response time.
func (m Metrics) Total() time.Duration {
	return m.SourceSelection + m.Analysis + m.Execution
}

// RemoteRequests totals every request Lusail sent for the query.
func (m Metrics) RemoteRequests() int {
	return m.AskRequests + m.CheckQueries + m.CountQueries +
		m.Phase1Requests + m.Phase2Requests + m.RefineRequests
}

// Lusail is the federated query engine of the paper: locality-aware
// decomposition at compile time, selectivity-aware parallel execution
// at run time.
type Lusail struct {
	eps []endpoint.Endpoint
	cfg Config

	// Every cache is nil under cache.Off; sqCache also unless
	// Config.SubqueryCacheSize > 0.
	askCache   *cache.Cache[bool]
	checkCache *cache.Cache[bool]
	countCache *cache.Cache[float64]
	sqCache    *cache.Cache[*Relation]
	coherence  *cache.Coherence // nil unless Caching is Enforce or Observe
	stats      *stats.Service   // nil unless Config.Statistics

	selector   *federation.Selector
	decomposer *Decomposer
	cost       *CostModel
	executor   *Executor

	mu   sync.Mutex
	last Metrics
}

// New builds a Lusail engine over the endpoints.
func New(eps []endpoint.Endpoint, cfg Config) *Lusail {
	if cfg.BindBlockSize == 0 {
		cfg.BindBlockSize = 100
	}
	if cfg.Resilience != nil {
		// Every internal consumer (selector, decomposer, cost model,
		// executor) sees the decorated endpoints, so ASK probes, check
		// queries, COUNT probes, and subquery evaluations all retry.
		eps = endpoint.WrapResilient(eps, *cfg.Resilience)
	}
	if cfg.Hedge != nil {
		// Outside the resilient layer so each hedge attempt gets its own
		// retry/breaker handling; inside instrumentation so per-endpoint
		// latencies observe the merged hedged call.
		eps = endpoint.WrapHedged(eps, *cfg.Hedge)
	}
	if cfg.Instrument {
		eps = endpoint.WrapInstrumented(eps)
	}
	l := &Lusail{eps: eps, cfg: cfg}
	if cfg.Caching == cache.Enforce || cfg.Caching == cache.Observe {
		// onChange fences a bumped endpoint: per-endpoint invalidation
		// advances every cache's generation, so stores by queries already
		// in flight (which may have read pre-change data) are refused.
		l.coherence = cache.NewCoherence(eps, cfg.CoherenceWindow, cfg.Caching, l.InvalidateEndpointCaches)
	}
	if cfg.Caching != cache.Off {
		l.askCache = cache.New[bool](cache.PlanningEntries, 0, l.coherence)
		l.checkCache = cache.New[bool](cache.PlanningEntries, 0, l.coherence)
		l.countCache = cache.New[float64](cache.PlanningEntries, 0, l.coherence)
		if cfg.SubqueryCacheSize > 0 {
			l.sqCache = cache.New[*Relation](cfg.SubqueryCacheSize, cfg.SubqueryCacheTTL, l.coherence)
		}
	}
	l.selector = federation.NewSelector(eps, l.askCache)
	l.decomposer = NewDecomposer(eps, l.checkCache)
	l.decomposer.AssumeAllGlobal = cfg.AssumeAllGlobal
	l.cost = NewCostModel(eps, l.countCache)
	l.executor = NewExecutor(eps)
	l.executor.BindBlockSize = cfg.BindBlockSize
	l.executor.BoundBlockBytes = cfg.BoundBlockBytes
	l.executor.Workers = cfg.Workers
	l.executor.DelayPolicy = cfg.DelayPolicy
	l.executor.ReplanOvershoot = cfg.ReplanOvershoot
	if cfg.Statistics != nil {
		l.wireStats(*cfg.Statistics)
	}
	return l
}

// wireStats builds the statistics service over the (decorated)
// endpoints and threads its summary oracles into the planner: source
// selection, LADE locality checks, and cardinality estimation each
// consult the summary first and probe only on miss. With calibration
// enabled, the executor additionally feeds phase-1 actual row counts
// back into the correction factors.
func (l *Lusail) wireStats(cfg stats.Config) {
	l.stats = stats.New(l.eps, cfg)
	l.selector.Presence = func(epName string, tp sparql.TriplePattern) (bool, bool) {
		cur, curOK := l.statsVersion(epName)
		return l.stats.Relevant(epName, cur, curOK, tp)
	}
	l.decomposer.Oracle = func(epName string, v sparql.Var, tpFrom, tpTo sparql.TriplePattern, typ rdf.Term) (bool, bool) {
		cur, curOK := l.statsVersion(epName)
		return l.stats.CheckNonEmpty(epName, cur, curOK, v, tpFrom, tpTo, typ)
	}
	l.cost.PatternCard = func(ei int, tp sparql.TriplePattern) (float64, bool) {
		name := l.eps[ei].Name()
		cur, curOK := l.statsVersion(name)
		return l.stats.PatternCard(name, cur, curOK, tp)
	}
	l.cost.PairCard = func(ei int, v sparql.Var, a, b sparql.TriplePattern) (float64, bool) {
		name := l.eps[ei].Name()
		cur, curOK := l.statsVersion(name)
		return l.stats.PairCard(name, cur, curOK, v, a, b)
	}
	if cfg.Calibrate {
		l.cost.Calibration = func(ei int, tp sparql.TriplePattern) float64 {
			return l.stats.Factor(l.eps[ei].Name(), predKeyOf(tp))
		}
		l.executor.Observe = func(sq *Subquery, actual int) {
			names := make([]string, 0, len(sq.Sources))
			for _, ei := range sq.Sources {
				names = append(names, l.eps[ei].Name())
			}
			preds := make([]string, 0, len(sq.Patterns))
			for _, tp := range sq.Patterns {
				preds = append(preds, predKeyOf(tp))
			}
			l.stats.Observe(names, preds, sq.EstCard, float64(actual))
		}
	}
}

// statsVersion reports the endpoint's current data version as tracked
// by the coherence fence; ok=false when the fence is disabled or the
// endpoint is unversioned (summaries are then served unverified, the
// coherence layer's own policy for unverifiable endpoints).
func (l *Lusail) statsVersion(name string) (uint64, bool) {
	return l.coherence.Version(name)
}

// predKeyOf is the calibration key of a pattern's predicate position;
// variable predicates share the "?" bucket.
func predKeyOf(tp sparql.TriplePattern) string {
	if tp.P.IsVar() {
		return "?"
	}
	return tp.P.Term.Value
}

// Name implements federation.Engine.
func (l *Lusail) Name() string { return "lusail" }

// InvalidateCaches is the explicit cross-query invalidation hook:
// callers that know federation data changed drop every retained
// planning decision (source selection, LADE locality, COUNT
// statistics), subquery result, and statistics summary. In-flight
// computations complete for their waiters but are not re-stored.
func (l *Lusail) InvalidateCaches() {
	l.askCache.Clear()
	l.checkCache.Clear()
	l.countCache.Clear()
	l.sqCache.Clear()
	l.stats.Clear()
}

// InvalidateEndpointCaches drops the cached state that depends on one
// endpoint (by name): its ASK selections, locality checks, COUNT
// statistics, statistics summary, and every cached subquery result
// whose source set includes it. Entries for other endpoints survive.
func (l *Lusail) InvalidateEndpointCaches(name string) {
	l.askCache.InvalidateEndpoint(name)
	l.checkCache.InvalidateEndpoint(name)
	l.countCache.InvalidateEndpoint(name)
	l.sqCache.InvalidateEndpoint(name)
	l.stats.InvalidateEndpoint(name)
}

// CacheStats snapshots one engine cache's counters.
type CacheStats = cache.Stats

// CacheExemplar links a cache counter to a recent traced query.
type CacheExemplar = cache.Exemplar

// CoherenceStats snapshots the coherence fence for metrics export.
type CoherenceStats = cache.CoherenceStats

// CacheStatEntry names one engine cache alongside its counters and —
// for caches probed on the traced query path — the most recent traced
// hit and miss, so metric exposition can attach exemplars.
type CacheStatEntry struct {
	Name  string
	Stats CacheStats
	// HitExemplar/MissExemplar are the latest sampled traced queries
	// that hit or missed this cache (nil where untracked or none yet).
	HitExemplar  *CacheExemplar
	MissExemplar *CacheExemplar
}

// CacheStats snapshots every engine cache's hit/miss/evict/expire
// counters and current size, for metrics export and the workload
// experiment.
func (l *Lusail) CacheStats() []CacheStatEntry {
	sqHit, sqMiss := l.sqCache.Exemplars()
	return []CacheStatEntry{
		{Name: "ask", Stats: l.askCache.Stats()},
		{Name: "check", Stats: l.checkCache.Stats()},
		{Name: "count", Stats: l.countCache.Stats()},
		{Name: "subquery", Stats: l.sqCache.Stats(),
			HitExemplar: sqHit, MissExemplar: sqMiss},
	}
}

// StatsService exposes the offline statistics service (nil unless
// Config.Statistics is set).
func (l *Lusail) StatsService() *stats.Service { return l.stats }

// RefreshStats harvests (or re-harvests) every endpoint's statistics
// summary. A no-op without Config.Statistics.
func (l *Lusail) RefreshStats(ctx context.Context) error {
	return l.stats.Refresh(ctx)
}

// StatsSnapshot snapshots the statistics service's counters (zero
// value when the service is disabled).
func (l *Lusail) StatsSnapshot() stats.ServiceStats {
	return l.stats.Stats()
}

// CoherenceStats snapshots the fence: per-endpoint tracked data
// versions plus probe/change/stale counters (zero value without a
// fence: Caching Unfenced or Off).
func (l *Lusail) CoherenceStats() CoherenceStats {
	return l.coherence.Stats()
}

// LastMetrics returns the metrics of the most recent Execute call.
// It is a convenience for sequential use only: concurrent Execute
// calls on one Lusail instance overwrite each other's slot, so
// concurrent callers must use ExecuteMetrics (or ExecuteTraced) and
// read the per-call Metrics it returns.
func (l *Lusail) LastMetrics() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// EndpointStats snapshots per-endpoint traffic, error, and latency
// statistics (latency histograms require Config.Instrument).
func (l *Lusail) EndpointStats() []endpoint.EndpointStat {
	return endpoint.PerEndpointStats(l.eps)
}

// BreakerStates reports the circuit-breaker state of every endpoint,
// sorted by name (empty without Config.Resilience: there are no
// breakers). Readiness probes treat any open breaker as not-ready.
func (l *Lusail) BreakerStates() []endpoint.BreakerStatus {
	return endpoint.BreakerStatuses(l.eps)
}

// InFlight reports the number of remote requests currently on the wire
// across the engine's request handlers (source selection, locality
// checks, COUNT probes, and subquery execution) — the live federation
// pool depth.
func (l *Lusail) InFlight() int64 {
	return l.selector.Handler.InFlight() +
		l.decomposer.Handler.InFlight() +
		l.cost.Handler.InFlight() +
		l.executor.Handler.InFlight()
}

// Execute runs a federated SPARQL query.
func (l *Lusail) Execute(ctx context.Context, query string) (*sparql.Results, error) {
	res, _, err := l.execute(ctx, query, nil, nil)
	return res, err
}

// ExecuteMetrics runs a federated SPARQL query and returns the
// execution's own Metrics. Unlike LastMetrics, the returned value is
// private to this call, so concurrent executions on one Lusail
// instance each observe exactly their own profile.
func (l *Lusail) ExecuteMetrics(ctx context.Context, query string) (*sparql.Results, Metrics, error) {
	return l.execute(ctx, query, nil, nil)
}

// ExecuteTraced runs a federated SPARQL query while recording a span
// tree: one span per pipeline stage (source selection, GJV checks,
// COUNT estimation, phase-1 subqueries, bound phase-2 subqueries,
// joins), each with wall-clock duration, request/row counts, and
// retry/breaker attribution. The trace, like the Metrics, is private
// to the call. The trace is returned (partially filled) even when the
// query errors out, so failures can be diagnosed from it.
func (l *Lusail) ExecuteTraced(ctx context.Context, query string) (*sparql.Results, Metrics, *trace.Trace, error) {
	return l.traced(ctx, func(ctx context.Context) (*sparql.Results, Metrics, error) {
		return l.execute(ctx, query, nil, nil)
	})
}

// traced runs one execution under the query's trace and stamps the
// root span with the execution's totals.
func (l *Lusail) traced(ctx context.Context, run func(context.Context) (*sparql.Results, Metrics, error)) (*sparql.Results, Metrics, *trace.Trace, error) {
	tr := l.newQueryTrace(ctx)
	res, m, err := run(trace.WithSpan(ctx, tr.Root))
	tr.Root.End()
	tr.Root.Set("requests", int64(m.RemoteRequests()))
	if res != nil {
		tr.Root.Set("rows", int64(res.Len()))
	}
	if m.Retries > 0 {
		tr.Root.Set("retries", int64(m.Retries))
	}
	if m.BreakerOpens > 0 {
		tr.Root.Set("breaker_opens", int64(m.BreakerOpens))
	}
	if m.Hedges > 0 {
		tr.Root.Set("hedges", int64(m.Hedges))
	}
	if m.DroppedEndpoints > 0 {
		tr.Root.Set("dropped", int64(m.DroppedEndpoints))
		tr.Root.Set("completeness", m.Completeness.String())
	}
	return res, m, tr, err
}

// newQueryTrace starts the query's trace: joined to an inbound remote
// parent when ctx carries one (W3C trace context extracted upstream),
// fresh otherwise. Head sampling (Config.TraceSampling) applies only to
// locally-rooted traces — a joined trace keeps the caller's sampled
// flag so the federation-wide trace is retained or dropped as a unit.
func (l *Lusail) newQueryTrace(ctx context.Context) *trace.Trace {
	tr := trace.NewFromContext(ctx, "query")
	if _, remote := trace.RemoteParentFrom(ctx); !remote && l.cfg.TraceSampling != nil {
		tr.Root.SetSampled(trace.SampleRatio(tr.ID(), *l.cfg.TraceSampling))
	}
	return tr
}

// errStreamStop is the sentinel a streaming row sink returns once the
// query's LIMIT is satisfied; the executor unwinds and treats it as
// successful completion.
var errStreamStop = errors.New("stream: limit satisfied")

// Streamable reports whether a parsed query can deliver its rows as
// the executor produces them: a SELECT whose solution modifiers
// commute with chunked delivery. DISTINCT, COUNT, and ORDER BY all
// need the whole result before the first row can be emitted;
// LIMIT/OFFSET stream fine (the sink skips and truncates).
func streamable(q *sparql.Query) bool {
	return q.Form == sparql.SelectForm && !q.Distinct && !q.Count && len(q.OrderBy) == 0
}

// ExecuteStream runs a federated SPARQL query, delivering result rows
// through onChunk in bounded chunks as the executor produces them —
// the first chunk typically arrives while slower endpoints are still
// answering, instead of after the last join. onChunk receives the
// projected header (identical on every call) and a chunk of rows;
// returning an error aborts the query. The returned Results summary
// has empty Rows and Streamed set to the number of rows delivered
// (Len() reports it), so metrics and logging see the true row count.
//
// Queries whose solution modifiers need the whole result first
// (DISTINCT, COUNT, ORDER BY) and ASK queries drain the stream and
// finalize it; SELECT results are then delivered as one chunk, so
// callers stream uniformly either way.
func (l *Lusail) ExecuteStream(ctx context.Context, query string, onChunk StreamSink) (*sparql.Results, Metrics, error) {
	return l.execute(ctx, query, nil, onChunk)
}

// ExecuteStreamTraced is ExecuteStream recording a span tree, so
// streamed executions are as diagnosable as drained ones.
func (l *Lusail) ExecuteStreamTraced(ctx context.Context, query string, onChunk StreamSink) (*sparql.Results, Metrics, *trace.Trace, error) {
	return l.traced(ctx, func(ctx context.Context) (*sparql.Results, Metrics, error) {
		return l.execute(ctx, query, nil, onChunk)
	})
}

// execute is the one query lifecycle: query log, fault counters,
// degradation state and query budget, the coherence fence, and
// metrics attribution, wrapped around the streaming executor. With
// onChunk nil (or a query that is not streamable) the stream is
// drained and finalized (DISTINCT, ORDER BY, COUNT, ASK, projection,
// LIMIT/OFFSET); otherwise rows are projected and LIMIT/OFFSET applied
// per chunk. sqCache is the subquery-result cache to share (nil = the
// engine's persistent one, if configured). The returned Metrics are
// the call's own; the LastMetrics slot is additionally updated for
// sequential callers.
func (l *Lusail) execute(ctx context.Context, query string, sqCache *cache.Cache[*Relation], onChunk StreamSink) (res *sparql.Results, m Metrics, err error) {
	if sqCache == nil {
		sqCache = l.sqCache
	}
	if l.cfg.QueryLog != nil {
		id := l.cfg.QueryLog.QueryStarted(query)
		root := trace.SpanFrom(ctx)
		// Thread the correlation ID through the trace context so the
		// rendered span tree and the log stream can be joined on it.
		root.Set("qid", id)
		// Registered before the fault-counter defer below so it runs
		// after it (LIFO): the logged Metrics include the final retry
		// and breaker attribution.
		defer func() {
			rows := -1
			if res != nil {
				rows = res.Len()
			}
			root.End() // freeze the duration so a captured span tree renders it
			l.cfg.QueryLog.QueryFinished(id, query, m, rows, err, root)
		}()
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, m, err
	}
	// Attribute the whole query's fault-recovery events (source
	// selection, analysis, and execution alike) to its metrics, and
	// record metrics even when the query errors out, so experiments
	// can report what a failed query cost. Counters ride the context
	// rather than diffing the shared endpoint totals, so concurrent
	// executions (ExecuteBatch) do not double-count each other.
	fc := endpoint.NewFaultCounters(endpoint.FaultCountersFrom(ctx))
	ctx = endpoint.WithFaultCounters(ctx, fc)
	// Degraded execution: the policy and the budget deadline ride the
	// context like the fault counters, so every phase records dropped
	// contributions against exactly this query.
	var dg *endpoint.Degrade
	if l.cfg.Degradation != endpoint.DegradeFail || l.cfg.QueryBudget > 0 {
		var deadline time.Time
		if l.cfg.QueryBudget > 0 {
			deadline = time.Now().Add(l.cfg.QueryBudget)
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		dg = endpoint.NewDegrade(l.cfg.Degradation, deadline)
		ctx = endpoint.WithDegrade(ctx, dg)
	}
	defer func() {
		m.Retries = int(fc.Retries())
		m.BreakerOpens = int(fc.BreakerOpens())
		m.Hedges = int(fc.Hedges())
		if dg != nil {
			m.DroppedEndpoints = dg.DropCount()
			m.Completeness = dg.Completeness()
		}
		l.mu.Lock()
		l.last = m
		l.mu.Unlock()
	}()
	if l.cfg.Caching == cache.Off {
		m.Staleness = cache.StalenessFresh // nothing is cached to be reused
	} else {
		// Fence before planning: version changes detected here
		// invalidate the changed endpoints' cached state, so this
		// query's reuse is coherent up to the configured window.
		l.coherence.Refresh(ctx)
		m.Staleness = l.coherence.Verdict()
	}

	if onChunk != nil && streamable(q) {
		res, err = l.stream(ctx, q, &m, sqCache, onChunk)
	} else {
		res, err = l.drain(ctx, q, &m, sqCache)
		if err == nil && onChunk != nil && !res.AskForm && len(res.Rows) > 0 {
			err = onChunk(res.Vars, res.Rows)
		}
	}
	if err != nil {
		return nil, m, err
	}
	// Annotate last so every result form carries the report.
	res.Completeness = dg.Completeness()
	return res, m, nil
}

// drain collects the query's whole solution stream and finalizes it:
// DISTINCT, ORDER BY, COUNT, projection and LIMIT/OFFSET, or the ASK
// verdict.
func (l *Lusail) drain(ctx context.Context, q *sparql.Query, m *Metrics, sqCache *cache.Cache[*Relation]) (*sparql.Results, error) {
	needed := q.ProjectedVars()
	for _, k := range q.OrderBy {
		needed = append(needed, k.Var)
	}
	if q.Count && q.CountArg != "" {
		needed = append(needed, q.CountArg)
	}
	rows, _, err := l.evalGroup(ctx, q.Where, needed, m, sqCache)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	sp := trace.SpanFrom(ctx).StartChild("finalize")
	res := engine.Finalize(q, rows)
	if q.Form == sparql.AskForm {
		res = sparql.NewAskResult(len(rows) > 0)
	}
	sp.Set("rows", int64(res.Len()))
	sp.End()
	m.Execution += time.Since(t)
	return res, nil
}

// stream delivers a streamable query's rows to onChunk as the executor
// produces them, projecting each row and applying OFFSET and LIMIT per
// chunk; a satisfied LIMIT stops the execution early.
func (l *Lusail) stream(ctx context.Context, q *sparql.Query, m *Metrics, sqCache *cache.Cache[*Relation], onChunk StreamSink) (*sparql.Results, error) {
	proj := q.ProjectedVars()
	emitted := 0
	offset := q.Offset
	sink := func(vars []sparql.Var, rows []sparql.Binding) error {
		// Project each row to the query's header (copying, as the
		// joined rows are shared with the executor's hash tables).
		out := make([]sparql.Binding, 0, len(rows))
		for _, row := range rows {
			b := make(sparql.Binding, len(proj))
			for _, v := range proj {
				if t, ok := row[v]; ok {
					b[v] = t
				}
			}
			out = append(out, b)
		}
		if offset > 0 {
			if len(out) <= offset {
				offset -= len(out)
				return nil
			}
			out = out[offset:]
			offset = 0
		}
		if q.Limit >= 0 && emitted+len(out) > q.Limit {
			out = out[:q.Limit-emitted]
		}
		if len(out) == 0 {
			return nil
		}
		emitted += len(out)
		if cerr := onChunk(proj, out); cerr != nil {
			return cerr
		}
		if q.Limit >= 0 && emitted >= q.Limit {
			return errStreamStop
		}
		return nil
	}
	if _, err := l.runGroup(ctx, q.Where, proj, m, sqCache, sink); err != nil && !errors.Is(err, errStreamStop) {
		return nil, err
	}
	// Finalization proper (projection, LIMIT/OFFSET) already happened
	// per chunk in the sink; the span keeps the trace contract — every
	// query tree ends with a finalize node carrying the row count.
	sp := trace.SpanFrom(ctx).StartChild("finalize")
	sp.Set("rows", int64(emitted))
	sp.End()
	return &sparql.Results{Vars: proj, Streamed: emitted}, nil
}

// startPhase opens a traced phase span with its own fault-counter
// frame, so retry/breaker events of requests issued under the
// returned context are attributed to the span (and, via the parent
// chain, to every enclosing span and the query's Metrics). With no
// span attached to ctx it is free: ctx is returned unchanged.
func startPhase(ctx context.Context, name string) (context.Context, *trace.Span, *endpoint.FaultCounters) {
	parent := trace.SpanFrom(ctx)
	if parent == nil {
		return ctx, nil, nil
	}
	sp := parent.StartChild(name)
	fc := endpoint.NewFaultCounters(endpoint.FaultCountersFrom(ctx))
	ctx = endpoint.WithFaultCounters(ctx, fc)
	ctx = trace.WithSpan(ctx, sp)
	return ctx, sp, fc
}

// endPhase stamps the phase span's duration and fault attribution.
func endPhase(sp *trace.Span, fc *endpoint.FaultCounters) {
	if sp == nil {
		return
	}
	sp.End()
	if r := fc.Retries(); r > 0 {
		sp.Set("retries", r)
	}
	if b := fc.BreakerOpens(); b > 0 {
		sp.Set("breaker_opens", b)
	}
}

// groupPlan is the fully-analyzed execution plan of one group graph
// pattern: the decomposed subqueries with sources, estimates, and
// delay marks, the pre-materialized extra relations (UNION, VALUES,
// nested OPTIONAL groups), and the residual filters, as the executor
// consumes them.
type groupPlan struct {
	all           []*Subquery
	extra         []*Relation
	globalFilters []sparql.Expr
	optFilters    map[int][]sparql.Expr
	// empty marks a group proven unsatisfiable during planning (a
	// required pattern with no relevant source); emptyVars is its
	// header.
	empty     bool
	emptyVars []sparql.Var
}

// runGroup runs the full Lusail pipeline for one group graph pattern,
// streaming its solution rows into sink, and returns their header.
func (l *Lusail) runGroup(ctx context.Context, g *sparql.GroupGraphPattern, needed []sparql.Var, m *Metrics, sqCache *cache.Cache[*Relation], sink StreamSink) ([]sparql.Var, error) {
	p, err := l.planGroup(ctx, g, needed, m, sqCache)
	if err != nil {
		return nil, err
	}
	if p.empty {
		return p.emptyVars, nil
	}
	// ---- Phase: execution (SAPE) ---------------------------------
	t := time.Now()
	stats, err := l.executor.Run(ctx, p.all, p.extra, p.globalFilters, p.optFilters, sqCache, sink)
	addExecStats(m, stats)
	m.Execution += time.Since(t)
	return planVars(p.all, p.extra), err
}

// evalGroup is runGroup drained into one row slice.
func (l *Lusail) evalGroup(ctx context.Context, g *sparql.GroupGraphPattern, needed []sparql.Var, m *Metrics, sqCache *cache.Cache[*Relation]) ([]sparql.Binding, []sparql.Var, error) {
	var rows []sparql.Binding
	vars, err := l.runGroup(ctx, g, needed, m, sqCache, func(_ []sparql.Var, chunk []sparql.Binding) error {
		rows = append(rows, chunk...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, vars, nil
}

func addExecStats(m *Metrics, stats *ExecStats) {
	m.Phase1Requests += stats.Phase1Requests
	m.Phase2Requests += stats.Phase2Requests
	m.RefineRequests += stats.RefineRequests
	m.BoundBlocks += stats.BoundBlocks
	m.ChunkSplits += stats.ChunkSplits
	m.Replans += stats.Replans
	m.SharedSubqueries += stats.Shared
}

// planGroup runs the compile-time pipeline for one group graph
// pattern — source selection, GJV detection, decomposition, filter
// pushing, OPTIONAL analysis, projection computation, cardinality
// estimation, and delay marking — and materializes the extra relations
// (UNION alternatives, VALUES blocks, nested OPTIONAL groups) the
// executor joins alongside the subqueries.
func (l *Lusail) planGroup(ctx context.Context, g *sparql.GroupGraphPattern, needed []sparql.Var, m *Metrics, sqCache *cache.Cache[*Relation]) (*groupPlan, error) {
	// ---- Phase: source selection --------------------------------
	t := time.Now()
	selCtx, selSpan, selFC := startPhase(ctx, "source-selection")
	sel, err := l.selector.SelectPatterns(selCtx, g.Patterns)
	if err != nil {
		endPhase(selSpan, selFC)
		return nil, err
	}
	selSpan.Set("asks", int64(sel.AskRequests))
	if sel.SummaryAnswers > 0 {
		selSpan.Set("summary_hits", int64(sel.SummaryAnswers))
	}
	endPhase(selSpan, selFC)
	m.AskRequests += sel.AskRequests
	m.SummaryHits += sel.SummaryAnswers
	m.SourceSelection += time.Since(t)

	// A required pattern with no relevant source empties the group.
	// SkipEndpoint promises every required pattern keeps at least one
	// live source, so an empty source list after a degraded selection is
	// an error there; BestEffort accepts the (annotated) empty answer.
	dg := endpoint.DegradeFrom(ctx)
	for i := range g.Patterns {
		if len(sel.Sources[i]) == 0 {
			if dg.Policy() == endpoint.DegradeSkipEndpoint && dg.DropCount() > 0 {
				return nil, fmt.Errorf(
					"lusail: pattern %d lost all relevant sources under skip-endpoint degradation (%s)",
					i, dg.Completeness())
			}
			return &groupPlan{empty: true, emptyVars: g.AllVars()}, nil
		}
	}

	// ---- Phase: query analysis (LADE + cost model) ---------------
	t = time.Now()
	typeOf := TypeConstraints(g.Patterns)
	gjvCtx, gjvSpan, gjvFC := startPhase(ctx, "gjv-checks")
	rep, err := l.decomposer.DetectGJVs(gjvCtx, g.Patterns, sel.Sources, typeOf)
	if err != nil {
		endPhase(gjvSpan, gjvFC)
		return nil, err
	}
	gjvSpan.Set("checks", int64(rep.CheckQueries))
	gjvSpan.Set("gjvs", int64(len(rep.GJVs)))
	if rep.SummaryAnswers > 0 {
		gjvSpan.Set("summary_hits", int64(rep.SummaryAnswers))
	}
	endPhase(gjvSpan, gjvFC)
	m.CheckQueries += rep.CheckQueries
	m.SummaryHits += rep.SummaryAnswers
	m.GJVs += len(rep.GJVs)

	required := l.decompose(g.Patterns, sel.Sources, rep)
	globalFilters := PushFilters(required, g.Filters)
	for _, f := range globalFilters {
		if _, isExists := f.(*sparql.ExistsExpr); isExists {
			return nil, fmt.Errorf("lusail: FILTER EXISTS spanning multiple subqueries is not supported")
		}
	}

	// OPTIONAL groups: decompose each with its own locality analysis;
	// subqueries are marked optional (and therefore delayed).
	optFilters := map[int][]sparql.Expr{}
	var optional []*Subquery
	var optionalRels []*Relation
	for ogID, og := range g.Optionals {
		if len(og.Optionals) > 0 || len(og.Unions) > 0 || len(og.Values) > 0 {
			// Nested structure inside OPTIONAL: evaluate the group
			// recursively as its own federated plan and left-join the
			// materialized relation. Filters referencing outer
			// variables stay residual for the left join.
			inner := og.Clone()
			inner.Filters = nil
			// Only variables the group's patterns can bind count as
			// local; a filter variable bound outside the OPTIONAL
			// (e.g. FILTER(?outer != x)) must evaluate at the left
			// join, where the outer binding is visible.
			ogVars := map[sparql.Var]bool{}
			for _, v := range inner.AllVars() {
				ogVars[v] = true
			}
			var residual []sparql.Expr
			for _, f := range og.Filters {
				local := true
				for _, v := range f.Vars() {
					if !ogVars[v] {
						local = false
						break
					}
				}
				if _, isExists := f.(*sparql.ExistsExpr); isExists {
					local = false
				}
				if local {
					inner.Filters = append(inner.Filters, f)
				} else {
					residual = append(residual, f)
				}
			}
			ogCtx, ogSpan, ogFC := startPhase(ctx, fmt.Sprintf("optional-group-%d", ogID))
			rows, vars, err := l.evalGroup(ogCtx, inner, inner.AllVars(), m, sqCache)
			endPhase(ogSpan, ogFC)
			if err != nil {
				return nil, err
			}
			ogSpan.Set("rows", int64(len(rows)))
			optFilters[ogID] = residual
			optionalRels = append(optionalRels, &Relation{
				Vars: vars, Rows: rows, Partitions: 1,
				Optional: true, OptionalGroup: ogID,
			})
			continue
		}
		tOpt := time.Now()
		oSel, err := l.selector.SelectPatterns(ctx, og.Patterns)
		if err != nil {
			return nil, err
		}
		m.AskRequests += oSel.AskRequests
		m.SummaryHits += oSel.SummaryAnswers
		m.SourceSelection += time.Since(tOpt)
		empty := false
		for i := range og.Patterns {
			if len(oSel.Sources[i]) == 0 {
				empty = true
				break
			}
		}
		if empty {
			continue // the optional part can never match
		}
		oRep, err := l.decomposer.DetectGJVs(ctx, og.Patterns, oSel.Sources, TypeConstraints(og.Patterns))
		if err != nil {
			return nil, err
		}
		m.CheckQueries += oRep.CheckQueries
		m.SummaryHits += oRep.SummaryAnswers
		m.GJVs += len(oRep.GJVs)
		oSqs := l.decompose(og.Patterns, oSel.Sources, oRep)
		residual := PushFilters(oSqs, og.Filters)
		for _, f := range residual {
			if _, isExists := f.(*sparql.ExistsExpr); isExists {
				return nil, fmt.Errorf("lusail: FILTER EXISTS in OPTIONAL is not supported")
			}
		}
		optFilters[ogID] = residual
		for _, sq := range oSqs {
			sq.Optional = true
			sq.OptionalGroup = ogID
			optional = append(optional, sq)
		}
	}

	all := append(append([]*Subquery(nil), required...), optional...)
	for i, sq := range all {
		sq.ID = i
	}
	// Projections: join vars + whatever the caller needs downstream.
	downstream := append([]sparql.Var(nil), needed...)
	for _, f := range globalFilters {
		downstream = append(downstream, f.Vars()...)
	}
	for _, fs := range optFilters {
		for _, f := range fs {
			downstream = append(downstream, f.Vars()...)
		}
	}
	// UNION alternatives join on shared vars too.
	for _, u := range g.Unions {
		for _, alt := range u.Alternatives {
			downstream = append(downstream, alt.AllVars()...)
		}
	}
	for _, vb := range g.Values {
		downstream = append(downstream, vb.Vars...)
	}
	ComputeProjections(all, downstream)

	cntCtx, cntSpan, cntFC := startPhase(ctx, "count-estimation")
	cEst, err := l.cost.EstimateCards(cntCtx, all)
	if err != nil {
		endPhase(cntSpan, cntFC)
		return nil, err
	}
	cntSpan.Set("counts", int64(cEst.Probes))
	if cEst.SummaryHits > 0 {
		cntSpan.Set("summary_hits", int64(cEst.SummaryHits))
	}
	endPhase(cntSpan, cntFC)
	m.CountQueries += cEst.Probes
	m.SummaryHits += cEst.SummaryHits
	MarkDelayed(all, l.cfg.DelayPolicy)
	m.Subqueries += len(all)
	for _, sq := range all {
		if sq.Delayed {
			m.Delayed++
		}
	}
	m.Analysis += time.Since(t)

	// ---- Extra relations: UNION blocks and VALUES ----------------
	var extra []*Relation
	for ui, u := range g.Unions {
		rel := &Relation{Partitions: 1}
		for ai, alt := range u.Alternatives {
			altCtx, altSpan, altFC := startPhase(ctx, fmt.Sprintf("union-%d-alt-%d", ui, ai))
			altRows, altVars, err := l.evalGroup(altCtx, alt, alt.AllVars(), m, sqCache)
			endPhase(altSpan, altFC)
			if err != nil {
				return nil, err
			}
			altSpan.Set("rows", int64(len(altRows)))
			rel.Vars = mergeVarsUnique(rel.Vars, altVars)
			rel.Rows = append(rel.Rows, altRows...)
		}
		extra = append(extra, rel)
	}
	for _, vb := range g.Values {
		rel := &Relation{Vars: append([]sparql.Var(nil), vb.Vars...), Partitions: 1}
		for _, row := range vb.Rows {
			b := make(sparql.Binding, len(vb.Vars))
			for i, v := range vb.Vars {
				if i < len(row) && !row[i].IsZero() {
					b[v] = row[i]
				}
			}
			rel.Rows = append(rel.Rows, b)
		}
		extra = append(extra, rel)
	}

	extra = append(extra, optionalRels...)
	return &groupPlan{
		all:           all,
		extra:         extra,
		globalFilters: globalFilters,
		optFilters:    optFilters,
	}, nil
}

// decompose picks the configured decomposition algorithm.
func (l *Lusail) decompose(patterns []sparql.TriplePattern, sources [][]int, rep *GJVReport) []*Subquery {
	if l.cfg.TraversalDecomposer {
		return DecomposeTraversal(patterns, sources, rep)
	}
	return Decompose(patterns, sources, rep)
}

// Decomposition exposes LADE's analysis for a query without executing
// it: the detected GJVs and the required subqueries. Used by tests,
// tools, and the ablation experiments.
func (l *Lusail) Decomposition(ctx context.Context, query string) (*GJVReport, []*Subquery, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	sel, err := l.selector.SelectPatterns(ctx, q.Where.Patterns)
	if err != nil {
		return nil, nil, err
	}
	rep, err := l.decomposer.DetectGJVs(ctx, q.Where.Patterns, sel.Sources, TypeConstraints(q.Where.Patterns))
	if err != nil {
		return nil, nil, err
	}
	sqs := Decompose(q.Where.Patterns, sel.Sources, rep)
	return rep, sqs, nil
}
