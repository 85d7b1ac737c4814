package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// foundBindings is SAPE's hashmap of the values observed for each
// variable across the required relations evaluated so far; delayed
// subqueries are bound against it (§V-B).
type foundBindings struct {
	sets map[sparql.Var]map[rdf.Term]struct{}
}

func newFoundBindings() *foundBindings {
	return &foundBindings{sets: map[sparql.Var]map[rdf.Term]struct{}{}}
}

// update intersects each of rel's variables' candidate sets with the
// values the relation actually contains; a final answer's value for v
// must occur in every required relation that binds v. Variables left
// unbound in any row (possible for UNION relations) are skipped: such
// a row is join-compatible with any value of v, so the relation
// constrains nothing.
func (fb *foundBindings) update(rel *Relation) {
	for _, v := range rel.Vars {
		observed := map[rdf.Term]struct{}{}
		certain := true
		for _, row := range rel.Rows {
			if t, ok := row[v]; ok {
				observed[t] = struct{}{}
			} else {
				certain = false
				break
			}
		}
		if !certain {
			continue
		}
		if prev, ok := fb.sets[v]; ok {
			for t := range prev {
				if _, keep := observed[t]; !keep {
					delete(prev, t)
				}
			}
		} else {
			fb.sets[v] = observed
		}
	}
}

// covered reports whether bindings exist for v.
func (fb *foundBindings) covered(v sparql.Var) bool {
	_, ok := fb.sets[v]
	return ok
}

// valuesFor returns the candidate values of v in deterministic order.
func (fb *foundBindings) valuesFor(v sparql.Var) []rdf.Term {
	set := fb.sets[v]
	out := make([]rdf.Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// ExecStats reports what one SAPE execution did.
type ExecStats struct {
	Phase1Requests int
	Phase2Requests int
	RefineRequests int
	BoundBlocks    int
	// Retries and BreakerOpens count the fault-recovery events the
	// resilient endpoint decorators recorded during this execution, so
	// experiments can report recovery overhead per query.
	Retries      int
	BreakerOpens int
	// ChunkSplits counts the VALUES-block bisections performed after an
	// endpoint rejected or timed out on a bound block.
	ChunkSplits int
	// Dropped counts the contributions this execution gave up on under
	// a degradation policy. Like Retries it is attributed per call via
	// the context-attached Degrade state, so concurrent executions
	// (ExecuteBatch) do not cross-attribute each other's drops.
	Dropped int
	// Replans counts mid-query re-plans: a phase-1 result overshot its
	// estimate by the configured factor, so the delay partition was
	// recomputed with the observed cardinality.
	Replans int
}

// Executor runs SAPE (Algorithm 3): concurrent evaluation of
// non-delayed subqueries, bound evaluation of delayed ones, and the
// cost-ordered parallel hash join of all results.
type Executor struct {
	Endpoints []endpoint.Endpoint
	Handler   *federation.Handler
	// BindBlockSize is the number of VALUES per bound-subquery block.
	BindBlockSize int
	// BoundBlockBytes caps the approximate serialized size of one
	// VALUES block (0 = 64 KiB), complementing the row cap: many long
	// IRIs can oversize a block long before it reaches BindBlockSize
	// rows, and servers cap URL/body sizes, not row counts.
	BoundBlockBytes int
	// Workers bounds the parallel join workers.
	Workers int
	// DelayPolicy is the policy the plan's delay partition was computed
	// with; the mid-query replan hook re-runs it over corrected
	// cardinalities.
	DelayPolicy DelayPolicy
	// ReplanOvershoot, when > 0, enables mid-query re-planning: if a
	// phase-1 result exceeds its estimated cardinality by this factor,
	// subquery estimates are patched with the observed counts and the
	// delay partition is recomputed, promoting formerly-delayed
	// subqueries whose delay no longer looks justified.
	ReplanOvershoot float64
	// Observe, when non-nil, receives the observed row count of each
	// phase-1 subquery the execution computed in full (not reused, not
	// degraded), with the estimate it was planned under still intact on
	// sq.EstCard — the calibration feedback loop.
	Observe func(sq *Subquery, actualRows int)
}

// NewExecutor builds an executor over the endpoints.
func NewExecutor(eps []endpoint.Endpoint) *Executor {
	return &Executor{
		Endpoints:     eps,
		Handler:       federation.NewHandler(len(eps)),
		BindBlockSize: 100,
	}
}

// StreamSink receives successive chunks of final (joined, filtered)
// rows. vars is the same header on every call. Returning an error
// cancels the remaining execution.
type StreamSink func(vars []sparql.Var, rows []sparql.Binding) error

// streamChunkRows caps the rows per emitted chunk, bounding how much a
// single giant endpoint response can occupy between join and sink.
const streamChunkRows = 1024

// Run evaluates the decomposed plan — required and optional subqueries
// plus pre-materialized extra relations (UNION blocks, VALUES blocks,
// nested OPTIONAL groups) — and delivers the final rows through sink
// in chunks: joined, left-joined with each OPTIONAL group (optFilters
// maps a group id to the residual filters of its left join), and
// filtered by globalFilters. Solution modifiers are the caller's.
//
// The phases pipeline instead of running as serial rounds. Every
// phase-1 subquery is evaluated concurrently through sqCache (nil
// disables reuse). One of them, the "tail", is elected to stream: its
// rows flow through the plan as chunks while the other relations are
// still on the wire. Delayed subqueries are bound (phase 2) as soon as
// the phase-1 relations sharing their variables have landed, not when
// all of phase 1 returns. Each tail chunk then probes a join whose
// other side is the cost-ordered fold of every other relation. A plan
// with no eligible tail emits that fold itself in chunks.
func (ex *Executor) Run(ctx context.Context, sqs []*Subquery, extra []*Relation, globalFilters []sparql.Expr, optFilters map[int][]sparql.Expr, sqCache *SubqueryCache, sink StreamSink) (stats *ExecStats, err error) {
	stats = &ExecStats{}
	// Per-call counters attribute this execution's retry/breaker
	// events to its ExecStats (and, via the parent chain, to any
	// enclosing query's Metrics) without diffing the shared endpoint
	// totals, which would double-count under concurrent executions.
	fc := endpoint.NewFaultCounters(endpoint.FaultCountersFrom(ctx))
	ctx = endpoint.WithFaultCounters(ctx, fc)
	dg := endpoint.DegradeFrom(ctx)
	dropsBefore := dg.DropCount()
	defer func() {
		stats.Retries += int(fc.Retries())
		stats.BreakerOpens += int(fc.BreakerOpens())
		stats.Dropped += dg.DropCount() - dropsBefore
	}()

	var phase1, delayed []*Subquery
	for _, sq := range sqs {
		if sq.Delayed {
			delayed = append(delayed, sq)
		} else {
			phase1 = append(phase1, sq)
		}
	}
	tail := pickStreamTail(phase1, delayed)

	fb := newFoundBindings()
	var required, optionalRels []*Relation
	addRel := func(sq *Subquery, rel *Relation) {
		if sq.Optional {
			rel.Optional = true
			rel.OptionalGroup = sq.OptionalGroup
			optionalRels = append(optionalRels, rel)
			return
		}
		required = append(required, rel)
		fb.update(rel)
	}
	for _, rel := range extra {
		if rel.Optional {
			optionalRels = append(optionalRels, rel)
			continue
		}
		required = append(required, rel)
		fb.update(rel)
	}

	// Everything below runs under a cancellable context: the first
	// unabsorbable error (or a sink abort) short-circuits the remaining
	// in-flight work, and Run returns only once that work has unwound.
	runCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	// ---- Phase 1: concurrent unbound subqueries -------------------
	p1Ctx, p1Span, p1FC := startPhase(runCtx, "phase1")
	// Only unbound subqueries opt in to hedging: probes are cheap and
	// bound blocks carry VALUES payloads too large to double.
	p1Ctx = endpoint.WithHedging(p1Ctx)
	defer endPhase(p1Span, p1FC)
	// The phase span closes when the last phase-1 evaluation lands, not
	// when the tail's rows have been joined.
	p1Left := len(phase1)
	landed := func(r phase1Result) {
		if r.promoted {
			return
		}
		if p1Left--; p1Left == 0 {
			endPhase(p1Span, p1FC)
		}
	}
	done := make(chan phase1Result, len(sqs))
	var queue *chunkQueue
	for _, sq := range phase1 {
		var q *chunkQueue
		if sq == tail {
			queue = newChunkQueue()
			q = queue
		}
		ex.startUnbound(p1Ctx, &wg, sq, sqCache, q, false, done)
	}
	// complete folds one finished unbound subquery into the plan state:
	// its execution record, inherited drop records, request count and
	// calibration feedback. Observation runs against the estimate the
	// subquery was planned under, only for phase-1 results this query
	// computed in full: a reused result was observed by the query that
	// computed it, a degraded one would teach the calibrator that
	// estimates overshoot when in fact an endpoint's contribution went
	// missing, and a promoted one runs after its plan was corrected.
	complete := func(r phase1Result, rows int) {
		sp := recordSubquerySpan(r.parent, r.sq, rows, r.dur, len(r.sq.Sources))
		dg.Merge(r.rel.Dropped)
		if r.shared {
			sp.Set("shared", true)
		} else {
			stats.Phase1Requests += len(r.sq.Sources)
		}
		if ex.Observe != nil && !r.promoted && !r.sq.Optional && !r.shared && len(r.rel.Dropped) == 0 {
			ex.Observe(r.sq, rows)
		}
	}

	// ---- Phase 2 and re-planning, driven by phase-1 completions ----
	// running holds the non-tail unbound subqueries still in flight.
	// Phase 2 starts once none of them shares a variable with a pending
	// delayed subquery: from then on every pick and every VALUES block
	// is exactly the serial Algorithm 3's, while phase-1 subqueries no
	// delayed one depends on (the tail among them) keep streaming.
	running := map[*Subquery]bool{}
	for _, sq := range phase1 {
		if sq != tail {
			running[sq] = true
		}
	}
	pending := append([]*Subquery(nil), delayed...)
	phase2Ready := func() bool {
		for s := range running {
			if s.Optional {
				continue
			}
			for _, d := range pending {
				for _, v := range d.Vars() {
					if s.HasVar(v) {
						return false
					}
				}
			}
		}
		return true
	}
	var p2Span, rpSpan *trace.Span
	var p2FC, rpFC *endpoint.FaultCounters
	var p2Ctx, rpCtx context.Context
	defer func() { endPhase(p2Span, p2FC); endPhase(rpSpan, rpFC) }()
	var tailRes *phase1Result
	shortCircuit := false
	for !shortCircuit && (len(running) > 0 || len(pending) > 0) {
		if len(pending) > 0 {
			// An empty required relation empties the join: nothing left
			// to bind is worth shipping.
			if emptyRequired(required) {
				shortCircuit = true
				break
			}
			// BestEffort stops issuing delayed subqueries once the query
			// budget expires: the remaining ones are skipped (the result
			// may then be a superset of the exact answer) and annotated.
			// Other policies let the context deadline fail the next
			// request.
			if dg.Policy() == endpoint.DegradeBestEffort && dg.BudgetExpired() {
				for _, sq := range pending {
					dg.Drop("", sqLabel(sq), "phase2", context.DeadlineExceeded)
				}
				pending = nil
				continue
			}
			if phase2Ready() {
				// Most selective first, bound to the found bindings via
				// VALUES blocks (Algorithm 3 lines 10-18).
				if p2Span == nil {
					p2Ctx, p2Span, p2FC = startPhase(runCtx, "phase2")
				}
				sq := pending[ex.pickMostSelective(pending, fb)]
				pending = slices.DeleteFunc(pending, func(d *Subquery) bool { return d == sq })
				rel, berr := ex.runBound(p2Ctx, sq, fb, stats)
				if berr != nil {
					return stats, berr
				}
				addRel(sq, rel)
				shortCircuit = !sq.Optional && len(rel.Rows) == 0
				continue
			}
		}
		// Nothing launchable: wait for the next unbound completion.
		r := <-done
		if r.err != nil {
			return stats, fmt.Errorf("sape phase 1: %w", r.err)
		}
		landed(r)
		if r.sq == tail {
			tailRes = &r // its rows are already streaming
			continue
		}
		delete(running, r.sq)
		complete(r, len(r.rel.Rows))
		addRel(r.sq, r.rel)
		if r.promoted || ex.ReplanOvershoot <= 0 ||
			float64(len(r.rel.Rows)) <= ex.ReplanOvershoot*math.Max(r.sq.EstCard, 1) {
			continue
		}
		// Mid-query re-plan: the estimate was badly wrong, so the delay
		// partition may be wrong too. The observed cardinality replaces
		// it (phase-2 selectivity ordering sees the corrected number),
		// and delayed subqueries that no longer qualify are promoted:
		// running them unbound now beats binding them against an
		// unexpectedly huge found-bindings set.
		r.sq.EstCard = float64(len(r.rel.Rows))
		if len(pending) == 0 {
			continue
		}
		MarkDelayed(sqs, ex.DelayPolicy)
		var still []*Subquery
		promoted := false
		for _, sq := range pending {
			if sq.Delayed {
				still = append(still, sq)
				continue
			}
			if rpSpan == nil {
				rpCtx, rpSpan, rpFC = startPhase(runCtx, "replan")
				rpCtx = endpoint.WithHedging(rpCtx)
			}
			running[sq] = true
			ex.startUnbound(rpCtx, &wg, sq, sqCache, nil, true, done)
			promoted = true
		}
		pending = still
		if promoted {
			stats.Replans++
		}
	}
	if shortCircuit || emptyRequired(required) {
		return stats, nil
	}

	// ---- Join: the fold of every completed relation ---------------
	joinSpan := trace.SpanFrom(ctx).StartChild("join")
	emitted := 0
	defer func() {
		joinSpan.Set("rows", int64(emitted))
		joinSpan.End()
	}()
	acc := ex.joinAll(joinSpan, required)
	if len(acc.Rows) == 0 {
		return stats, nil
	}
	outVars := planVars(sqs, extra)
	chunkVars := acc.Vars
	var sym *engine.SymmetricJoin
	var probe *trace.Span
	if tail != nil {
		chunkVars = tail.ProjVars
		if len(required) > 0 {
			chunkVars = mergeVarsUnique(acc.Vars, tail.ProjVars)
			sym = engine.NewSymmetricJoin(acc.Vars, tail.ProjVars)
			sym.PushLeft(acc.Rows)
			sym.CloseLeft() // tail chunks become pure, allocation-free probes
			probe = joinSpan.StartChild("hash-join")
		}
	}
	steps := ex.rowSteps(joinSpan, chunkVars, optionalRels, optFilters, globalFilters)
	defer func() {
		for _, s := range steps {
			s.end()
		}
	}()
	// emit runs one chunk of joined rows through the OPTIONAL left joins
	// and the group filters — both row-local, so chunking commutes with
	// them — and hands the survivors to the sink.
	emit := func(rows []sparql.Binding) error {
		for _, s := range steps {
			rows = s.apply(rows)
		}
		if len(rows) == 0 {
			return nil
		}
		emitted += len(rows)
		return sink(outVars, rows)
	}

	if tail == nil {
		for rows := acc.Rows; len(rows) > 0; {
			n := min(len(rows), streamChunkRows)
			if serr := emit(rows[:n]); serr != nil {
				return stats, serr
			}
			rows = rows[n:]
		}
		return stats, nil
	}

	// ---- Streamed join: tail chunks probe the folded accumulator ---
	tailRows, probeRows := 0, 0
	var probeDur time.Duration
	for {
		chunk, ok := queue.pop()
		if !ok {
			break
		}
		tailRows += len(chunk)
		rows := chunk
		if sym != nil {
			t := time.Now()
			rows = sym.PushRight(chunk)
			probeDur += time.Since(t)
			probeRows += len(rows)
		}
		if serr := emit(rows); serr != nil {
			return stats, serr
		}
	}
	if probe != nil {
		probe.Set("left_rows", int64(len(acc.Rows)))
		probe.Set("right_rows", int64(tailRows))
		probe.Set("out_rows", int64(probeRows))
		probe.Set("partitions", int64(1))
		probe.SetDuration(probeDur)
	}
	// The queue closes only after the tail's outcome is sent. A terminal
	// tail error surfaces after the partial stream: the chunks already
	// emitted are delivered, and the caller learns the stream was
	// truncated.
	if tailRes == nil {
		r := <-done
		landed(r)
		tailRes = &r
	}
	if tailRes.err != nil {
		return stats, fmt.Errorf("sape phase 1: %w", tailRes.err)
	}
	complete(*tailRes, tailRows)
	return stats, nil
}

// pickStreamTail elects the phase-1 relation that will stream through
// the plan: required, with at least one source, and sharing no
// variable with any delayed subquery — its rows then feed neither the
// VALUES blocks of phase 2 nor the selectivity refinement, so
// excluding it from the found-bindings sets changes nothing except
// that nobody waits for it. Among the eligible, the largest estimated
// cardinality wins: streaming the biggest relation saves the most
// memory and time-to-first-row.
func pickStreamTail(phase1, delayed []*Subquery) *Subquery {
	delayedVars := map[sparql.Var]bool{}
	for _, d := range delayed {
		for _, v := range d.Vars() {
			delayedVars[v] = true
		}
	}
	var best *Subquery
	for _, sq := range phase1 {
		if sq.Optional || len(sq.Sources) == 0 {
			continue
		}
		shared := false
		for _, v := range sq.Vars() {
			if delayedVars[v] {
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		if best == nil || sq.EstCard > best.EstCard {
			best = sq
		}
	}
	return best
}

// chunkQueue is an unbounded FIFO of row chunks between the tail's
// evaluation and Run's emit loop. Unbounded is deliberate: before the
// accumulator side of the join is built the emit loop is not draining,
// and blocking the tail there would gain nothing — its endpoints have
// answered already. In the streaming steady state the queue stays
// near-empty.
type chunkQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]sparql.Binding
	closed bool
}

func newChunkQueue() *chunkQueue {
	q := &chunkQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends rows as chunks of at most streamChunkRows.
func (q *chunkQueue) push(rows []sparql.Binding) {
	if len(rows) == 0 {
		return
	}
	q.mu.Lock()
	for len(rows) > 0 {
		n := min(len(rows), streamChunkRows)
		q.chunks = append(q.chunks, rows[:n])
		rows = rows[n:]
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// close marks the stream complete; pop drains what remains.
func (q *chunkQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop blocks for the next chunk; ok is false once the queue is closed
// and drained.
func (q *chunkQueue) pop() ([]sparql.Binding, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.chunks) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.chunks) == 0 {
		return nil, false
	}
	c := q.chunks[0]
	q.chunks = q.chunks[1:]
	return c, true
}

// phase1Result is one unbound subquery's outcome, reported to Run's
// coordinating goroutine.
type phase1Result struct {
	sq       *Subquery
	rel      *Relation
	dur      time.Duration
	shared   bool
	promoted bool
	err      error
	// parent is the phase span the execution record belongs under.
	parent *trace.Span
}

// startUnbound evaluates sq unbound on its own goroutine and reports
// the outcome on done. The evaluation goes through sqCache, so a
// retained or in-flight result for the same subquery is reused instead
// of re-executed. With a queue, sq is the streamed tail: rows are
// pushed as each endpoint answers (a reused result is replayed), the
// queue closes after the outcome is sent, and rows are retained only
// when a cache needs them. promoted marks an evaluation started by a
// mid-query re-plan rather than by phase 1.
func (ex *Executor) startUnbound(ctx context.Context, wg *sync.WaitGroup, sq *Subquery, sqCache *SubqueryCache, queue *chunkQueue, promoted bool, done chan<- phase1Result) {
	key := ""
	if sqCache != nil {
		key = SubqueryKey(sq, ex.Endpoints)
	}
	// A caller under an absorbing degradation policy can reuse a partial
	// cached relation: its drop records are merged into this query's own
	// completeness report. A strict caller never sees partial entries.
	canPartial := endpoint.DegradeFrom(ctx).Active()
	var emit func([]sparql.Binding)
	pushed := false
	if queue != nil {
		emit = func(rows []sparql.Binding) {
			pushed = pushed || len(rows) > 0
			queue.push(rows)
		}
	}
	keep := queue == nil || sqCache != nil
	r := phase1Result{sq: sq, promoted: promoted, parent: trace.SpanFrom(ctx)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if queue != nil {
			defer queue.close()
		}
		start := time.Now()
		run := func() (*Relation, bool, error) {
			return sqCache.Do(ctx, key, canPartial, func() (*Relation, error) {
				return ex.evalUnbound(ctx, sq, emit, keep)
			})
		}
		r.rel, r.shared, r.err = run()
		// A sibling query's fail-fast can cancel the shared computation
		// we were waiting on; its failure is not ours. Failed entries are
		// not cached, so retry under our own (still-live) context until
		// the result settles — a single retry can itself be cancelled by
		// yet another sibling. A tail that already streamed rows never
		// retries (they would be emitted twice). The bound is a livelock
		// backstop.
		for tries := 0; r.err != nil && !pushed && errors.Is(r.err, context.Canceled) &&
			ctx.Err() == nil && tries < 64; tries++ {
			r.rel, r.shared, r.err = run()
		}
		if r.err == nil && r.shared && queue != nil {
			queue.push(r.rel.Rows)
		}
		r.dur = time.Since(start)
		done <- r
	}()
}

// evalUnbound broadcasts one subquery to its sources. Each source's
// rows are passed to emit (when non-nil) the moment the source
// answers, and retained on the returned relation when keep is set.
// The first failure the degradation policy cannot absorb cancels the
// sibling requests and fails the evaluation. An absorbed failure drops
// that source's contribution and is recorded on the relation itself,
// not the context's Degrade state: the relation may be shared across
// queries through the subquery cache, and each consumer merges the
// drops into its own completeness report.
func (ex *Executor) evalUnbound(ctx context.Context, sq *Subquery, emit func([]sparql.Binding), keep bool) (*Relation, error) {
	rel := &Relation{Vars: append([]sparql.Var(nil), sq.ProjVars...)}
	text := sq.Query().String()
	tasks := make([]federation.Task, len(sq.Sources))
	for i, ei := range sq.Sources {
		tasks[i] = federation.Task{EP: ex.Endpoints[ei], Query: text}
	}
	dg := endpoint.DegradeFrom(ctx)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	seen := sourceDedup(sq)
	failed := 0
	var err error
	for tr := range ex.Handler.RunStream(rctx, tasks) {
		switch {
		case err != nil:
			// Draining the siblings the failure cancelled.
		case tr.Err == nil:
			rows := dedupRows(seen, tr.Res.Rows, rel.Vars)
			if emit != nil {
				emit(rows)
			}
			if keep {
				rel.Rows = append(rel.Rows, rows...)
			}
		case dg.Absorb(tr.Err):
			rel.Dropped = append(rel.Dropped, dg.DropRecord(tr.Task.EP.Name(), sqLabel(sq), "phase1", tr.Err))
			failed++
		default:
			err = tr.Err
			cancel()
		}
	}
	if err != nil {
		return nil, err
	}
	// SkipEndpoint promises every required subquery keeps at least one
	// live source; a subquery that lost all of them is an error there
	// (BestEffort accepts the empty contribution).
	if failed > 0 && failed == len(tasks) && !sq.Optional &&
		dg.Policy() == endpoint.DegradeSkipEndpoint {
		return nil, fmt.Errorf("subquery %s lost all %d sources under skip-endpoint degradation", sqLabel(sq), failed)
	}
	// A dropped endpoint contributed no partition: stamp the partitions
	// that actually produced rows, or JoinCost divides by phantom
	// partitions and the parallel-join fan-out looks cheaper than it is.
	rel.Partitions = survivingPartitions(len(sq.Sources), failed)
	return rel, nil
}

// recordSubquerySpan appends one subquery's execution record under
// parent: identity (id, rendered query), the estimate it was planned
// with, and the actuals observed (rows, requests, latency). These
// spans are what ExplainAnalyze joins against the static plan to show
// estimate-vs-actual error per subquery. Nil-safe; returns the span
// for extra attributes.
func recordSubquerySpan(parent *trace.Span, sq *Subquery, rows int, dur time.Duration, requests int) *trace.Span {
	if parent == nil {
		return nil
	}
	sp := parent.StartChild(fmt.Sprintf("sq%d", sq.ID))
	sp.Set("query", sq.Query().String())
	sp.Set("est", int64(sq.EstCard))
	sp.Set("rows", int64(rows))
	sp.Set("requests", int64(requests))
	sp.Set("sources", int64(len(sq.Sources)))
	if sq.Optional {
		sp.Set("optional", true)
	}
	sp.SetDuration(dur)
	return sp
}

// sqLabel renders a subquery's identity for completeness reports and
// trace spans.
func sqLabel(sq *Subquery) string { return fmt.Sprintf("sq%d", sq.ID) }

// survivingPartitions is the partition count of a relation after
// degradation dropped some of its sources' contributions: only the
// endpoints that actually produced rows count for the join cost model,
// floored at one so empty relations stay valid cost inputs.
func survivingPartitions(sources, dropped int) int {
	n := sources - dropped
	if n < 1 {
		n = 1
	}
	return n
}

func emptyRequired(rels []*Relation) bool {
	for _, r := range rels {
		if len(r.Rows) == 0 {
			return true
		}
	}
	return false
}

// planVars is the stable header of a plan's output rows: every
// variable any of its relations can bind. OPTIONAL variables stay
// unbound in non-matching rows.
func planVars(sqs []*Subquery, extra []*Relation) []sparql.Var {
	var out []sparql.Var
	for _, r := range extra {
		out = mergeVarsUnique(out, r.Vars)
	}
	for _, sq := range sqs {
		out = mergeVarsUnique(out, sq.ProjVars)
	}
	return out
}

// pickMostSelective returns the index of the delayed subquery with the
// smallest refined cardinality: min(estimate, tightest found-binding
// set among its variables).
func (ex *Executor) pickMostSelective(delayed []*Subquery, fb *foundBindings) int {
	best, bestCard := 0, refinedCard(delayed[0], fb)
	for i := 1; i < len(delayed); i++ {
		if c := refinedCard(delayed[i], fb); c < bestCard {
			best, bestCard = i, c
		}
	}
	return best
}

func refinedCard(sq *Subquery, fb *foundBindings) float64 {
	c := sq.EstCard
	for _, v := range sq.Vars() {
		if fb.covered(v) {
			if n := float64(len(fb.sets[v])); n < c {
				c = n
			}
		}
	}
	return c
}

// runBound evaluates one delayed subquery with VALUES blocks appended
// for its most selective bound variable; unbound evaluation is the
// fallback when no variable is covered yet.
func (ex *Executor) runBound(ctx context.Context, sq *Subquery, fb *foundBindings, stats *ExecStats) (*Relation, error) {
	start := time.Now()
	rel := &Relation{Vars: append([]sparql.Var(nil), sq.ProjVars...), Partitions: len(sq.Sources)}
	if len(sq.Sources) == 0 {
		if rel.Partitions < 1 {
			rel.Partitions = 1
		}
		sp := recordSubquerySpan(trace.SpanFrom(ctx), sq, 0, time.Since(start), 0)
		sp.Set("decision", "no-sources")
		return rel, nil
	}

	// Choose the bound variable with the fewest candidate values.
	var bindVar sparql.Var
	bindN := -1
	for _, v := range sq.Vars() {
		if !fb.covered(v) {
			continue
		}
		if n := len(fb.sets[v]); bindN < 0 || n < bindN {
			bindVar, bindN = v, n
		}
	}

	blocksBefore := stats.BoundBlocks
	// blocks are the VALUES chunks; a single nil block is the unbound
	// fallback (one plain query, nothing to bisect).
	var blocks [][]rdf.Term
	switch {
	case bindN < 0:
		blocks = [][]rdf.Term{nil}
	case bindN == 0:
		// No candidate values: a required subquery would make the join
		// empty; an optional one contributes nothing.
		sp := recordSubquerySpan(trace.SpanFrom(ctx), sq, 0, time.Since(start), 0)
		sp.Set("decision", "empty-candidates")
		return rel, nil
	default:
		maxRows := ex.BindBlockSize
		if maxRows <= 0 {
			maxRows = 100
		}
		maxBytes := ex.BoundBlockBytes
		if maxBytes <= 0 {
			maxBytes = 64 * 1024
		}
		blocks = chunkValues(fb.valuesFor(bindVar), maxRows, maxBytes)
		stats.BoundBlocks += len(blocks)
	}

	sources := sq.Sources
	refined := false
	// Source refinement (Algorithm 3 line 13): subqueries with fully
	// generic patterns are relevant everywhere; re-ask with bindings
	// to drop irrelevant endpoints before shipping all blocks.
	if bindN > 0 && hasGenericPattern(sq) {
		re, nRefine := ex.refineSources(ctx, sq, bindVar, fb)
		stats.RefineRequests += nRefine
		sources = re
		refined = true
	}

	// Each source runs its blocks sequentially (so an endpoint dying
	// between chunks keeps the chunks already fetched); sources run
	// concurrently. An unabsorbable failure cancels the siblings, like
	// the fail-fast batch it replaces.
	dg := endpoint.DegradeFrom(ctx)
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type srcOutcome struct {
		rows     []sparql.Binding
		requests int
		splits   int
		err      error
	}
	outs := make([]srcOutcome, len(sources))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for si, ei := range sources {
		wg.Add(1)
		go func(si, ei int) {
			defer wg.Done()
			rows, requests, splits, err := ex.runBoundAt(bctx, sq, bindVar, blocks, ei)
			outs[si] = srcOutcome{rows: rows, requests: requests, splits: splits, err: err}
			if err != nil && !dg.Absorb(err) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				mu.Unlock()
			}
		}(si, ei)
	}
	wg.Wait()
	requests := 0
	failed := 0
	for si, o := range outs {
		requests += o.requests
		stats.Phase2Requests += o.requests
		stats.ChunkSplits += o.splits
		if o.err != nil && firstErr == nil {
			// Absorbed: keep the chunks fetched before the failure, drop
			// the endpoint's remaining contribution.
			dg.Drop(ex.Endpoints[sources[si]].Name(), sqLabel(sq), "phase2", o.err)
			failed++
		}
		rel.Rows = append(rel.Rows, o.rows...)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("sape phase 2 (%s): %w", sq, firstErr)
	}
	if failed > 0 && failed == len(sources) && !sq.Optional &&
		dg.Policy() == endpoint.DegradeSkipEndpoint {
		return nil, fmt.Errorf("sape phase 2 (%s): all %d sources failed under skip-endpoint degradation", sq, failed)
	}
	rel.Rows = dedupRows(sourceDedup(sq), rel.Rows, rel.Vars)
	rel.Partitions = survivingPartitions(len(sources), failed)
	sp := recordSubquerySpan(trace.SpanFrom(ctx), sq, len(rel.Rows), time.Since(start), requests)
	if sp != nil {
		if bindN < 0 {
			sp.Set("decision", "unbound-fallback")
		} else {
			sp.Set("decision", fmt.Sprintf("bound ?%s (%d candidates, %d blocks)",
				bindVar, bindN, stats.BoundBlocks-blocksBefore))
		}
		if refined {
			sp.Set("sources_refined", int64(len(sources)))
		}
		splits := 0
		for _, o := range outs {
			splits += o.splits
		}
		if splits > 0 {
			sp.Set("chunk_splits", int64(splits))
		}
		if failed > 0 {
			sp.Set("dropped_sources", int64(failed))
		}
	}
	return rel, nil
}

// chunkValues splits the candidate values into VALUES blocks capped by
// both row count and approximate serialized bytes.
func chunkValues(values []rdf.Term, maxRows, maxBytes int) [][]rdf.Term {
	var out [][]rdf.Term
	var cur []rdf.Term
	bytes := 0
	for _, t := range values {
		sz := len(t.String()) + 4
		if len(cur) > 0 && (len(cur) >= maxRows || bytes+sz > maxBytes) {
			out = append(out, cur)
			cur, bytes = nil, 0
		}
		cur = append(cur, t)
		bytes += sz
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// boundQuery renders sq with one VALUES block over bindVar; a nil
// values slice renders the plain (unbound) query.
func boundQuery(sq *Subquery, bindVar sparql.Var, values []rdf.Term) string {
	if values == nil {
		return sq.Query().String()
	}
	q := sq.Query()
	q.Where.Values = append(q.Where.Values, &sparql.ValuesBlock{
		Vars: []sparql.Var{bindVar},
		Rows: termRows(values),
	})
	return q.String()
}

// splittableBoundError reports whether a failed VALUES block is worth
// bisecting: the endpoint rejected the request as oversized or
// malformed (400/413/414), or the attempt timed out while the caller's
// own context is still live — halves are smaller and faster, so
// retrying them can succeed where the whole block cannot.
func splittableBoundError(ctx context.Context, err error) bool {
	var he *endpoint.HTTPError
	if errors.As(err, &he) {
		switch he.Status {
		case 400, 413, 414:
			return true
		}
	}
	return ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded)
}

// runBoundAt runs the blocks sequentially at one endpoint, recursively
// bisecting blocks the endpoint rejects. It reports the rows fetched,
// the requests issued, the number of splits, and the first
// unrecoverable error; rows fetched before the error are returned so a
// degradation policy can keep them.
func (ex *Executor) runBoundAt(ctx context.Context, sq *Subquery, bindVar sparql.Var, blocks [][]rdf.Term, ei int) (rows []sparql.Binding, requests, splits int, err error) {
	var run func(values []rdf.Term) error
	run = func(values []rdf.Term) error {
		requests++
		results := ex.Handler.Run(ctx, []federation.Task{
			{EP: ex.Endpoints[ei], Query: boundQuery(sq, bindVar, values)},
		})
		tr := results[0]
		if tr.Err == nil {
			rows = append(rows, tr.Res.Rows...)
			return nil
		}
		// Bisection terminates: each recursion strictly halves the
		// block, and a single-value block that still fails is permanent.
		if len(values) > 1 && splittableBoundError(ctx, tr.Err) {
			splits++
			mid := len(values) / 2
			if err := run(values[:mid]); err != nil {
				return err
			}
			return run(values[mid:])
		}
		return tr.Err
	}
	for _, b := range blocks {
		if err = run(b); err != nil {
			return rows, requests, splits, err
		}
	}
	return rows, requests, splits, nil
}

// sourceDedup returns the seen-set that deduplicates a subquery's rows
// across its sources, or nil when none is needed. A subquery that
// projects every variable it binds returns a set from each endpoint,
// so global deduplication reproduces exact RDF-merge semantics for
// triples replicated at several sources (e.g. shared class
// declarations). Projected subqueries keep their multiset semantics.
func sourceDedup(sq *Subquery) map[string]struct{} {
	if len(sq.Sources) <= 1 || len(sq.ProjVars) != len(sq.Vars()) {
		return nil
	}
	return map[string]struct{}{}
}

// dedupRows filters rows, in place, to those whose key seen has not
// recorded yet, recording the new keys; a nil seen keeps every row. It
// works incrementally, so a relation can be deduplicated source by
// source as it streams in.
func dedupRows(seen map[string]struct{}, rows []sparql.Binding, vars []sparql.Var) []sparql.Binding {
	if seen == nil {
		return rows
	}
	out := rows[:0]
	for i, k := range sparql.KeyColumn(rows, vars) {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, rows[i])
	}
	return out
}

func termRows(terms []rdf.Term) [][]rdf.Term {
	out := make([][]rdf.Term, len(terms))
	for i, t := range terms {
		out[i] = []rdf.Term{t}
	}
	return out
}

// hasGenericPattern reports whether the subquery contains a pattern
// with a variable predicate (e.g. ?s ?p ?o), which source selection
// deems relevant to every endpoint.
func hasGenericPattern(sq *Subquery) bool {
	for _, tp := range sq.Patterns {
		if tp.P.IsVar() {
			return true
		}
	}
	return false
}

// refineSources re-checks relevance of each source with an ASK query
// carrying a sample of the found bindings.
func (ex *Executor) refineSources(ctx context.Context, sq *Subquery, bindVar sparql.Var, fb *foundBindings) ([]int, int) {
	values := fb.valuesFor(bindVar)
	sample := values
	if len(sample) > 50 {
		sample = sample[:50]
	}
	ask := sparql.NewAsk()
	ask.Where = &sparql.GroupGraphPattern{
		Patterns: append([]sparql.TriplePattern(nil), sq.Patterns...),
		Values: []*sparql.ValuesBlock{{
			Vars: []sparql.Var{bindVar},
			Rows: termRows(sample),
		}},
	}
	text := ask.String()
	var tasks []federation.Task
	for _, ei := range sq.Sources {
		tasks = append(tasks, federation.Task{EP: ex.Endpoints[ei], Query: text})
	}
	results := ex.Handler.Run(ctx, tasks)
	var refined []int
	for i, tr := range results {
		// On error or a positive answer, keep the endpoint (errors
		// must not drop results; refinement is only an optimization).
		if tr.Err != nil || tr.Res.Ask {
			refined = append(refined, sq.Sources[i])
		}
	}
	return refined, len(tasks)
}

// joinAll folds the relations in cost-based order with the parallel
// hash join, recording one child span per join step under sp.
func (ex *Executor) joinAll(sp *trace.Span, rels []*Relation) *Relation {
	if len(rels) == 0 {
		// The join identity: one empty row (SPARQL's empty group),
		// so OPTIONAL-only groups still left-join correctly.
		return &Relation{Rows: []sparql.Binding{{}}, Partitions: 1}
	}
	order := OptimizeJoinOrder(rels)
	acc := rels[order[0]]
	for _, i := range order[1:] {
		js := sp.StartChild("hash-join")
		js.Set("left_rows", int64(len(acc.Rows)))
		js.Set("right_rows", int64(len(rels[i].Rows)))
		acc = HashJoin(acc, rels[i], ex.Workers)
		js.Set("out_rows", int64(len(acc.Rows)))
		js.Set("partitions", int64(acc.Partitions))
		js.End()
	}
	return acc
}

// rowStep is one row-local operator of Run's emit pipeline — an
// OPTIONAL group's left join or the group's residual filters — applied
// chunk by chunk. Its span sums the rows in and out over every chunk.
type rowStep struct {
	span          *trace.Span
	inKey, outKey string
	in, out       int
	dur           time.Duration
	fn            func([]sparql.Binding) []sparql.Binding
}

func (s *rowStep) apply(rows []sparql.Binding) []sparql.Binding {
	t := time.Now()
	out := s.fn(rows)
	s.dur += time.Since(t)
	s.in += len(rows)
	s.out += len(out)
	return out
}

func (s *rowStep) end() {
	s.span.Set(s.inKey, int64(s.in))
	s.span.Set(s.outKey, int64(s.out))
	s.span.SetDuration(s.dur)
}

// rowSteps prepares the operators every joined chunk (header vars)
// passes through: one left join per OPTIONAL group, in group order,
// with the group's relations joined and its side indexed once up
// front; then the global filters. SPARQL applies group filters after
// all joins, so they may reference optionally-bound variables (e.g.
// !BOUND).
func (ex *Executor) rowSteps(sp *trace.Span, vars []sparql.Var, optional []*Relation, optFilters map[int][]sparql.Expr, filters []sparql.Expr) []*rowStep {
	groups := map[int][]*Relation{}
	var order []int
	for _, rel := range optional {
		if _, ok := groups[rel.OptionalGroup]; !ok {
			order = append(order, rel.OptionalGroup)
		}
		groups[rel.OptionalGroup] = append(groups[rel.OptionalGroup], rel)
	}
	sort.Ints(order)
	var steps []*rowStep
	for _, gid := range order {
		t := time.Now()
		ljs := sp.StartChild("left-join")
		ljs.Set("group", int64(gid))
		lj := newLeftJoiner(vars, ex.joinAll(ljs, groups[gid]), filterCheck(optFilters[gid]))
		vars = lj.vars
		steps = append(steps, &rowStep{span: ljs, inKey: "left_rows", outKey: "out_rows",
			dur: time.Since(t), fn: lj.join})
	}
	if len(filters) > 0 {
		check := filterCheck(filters)
		steps = append(steps, &rowStep{span: sp.StartChild("filter"), inKey: "rows_in", outKey: "rows_out",
			fn: func(rows []sparql.Binding) []sparql.Binding {
				var out []sparql.Binding
				for _, row := range rows {
					if check(row) {
						out = append(out, row)
					}
				}
				return out
			}})
	}
	return steps
}

// filterCheck compiles filters into a row predicate (nil when there
// are none); an evaluation error counts as false.
func filterCheck(filters []sparql.Expr) func(sparql.Binding) bool {
	if len(filters) == 0 {
		return nil
	}
	return func(b sparql.Binding) bool {
		for _, f := range filters {
			ok, err := sparql.EvalBool(f, b, nil)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
}
