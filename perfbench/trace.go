package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder started. A query span (name "query") is the root of its
// query's tree; its ID is the query id every child carries.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Query    int64  `json:"query"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	First    int64  `json:"first_row_ns,omitempty"` // query spans: first row
	Endpoint string `json:"endpoint,omitempty"`
	Rows     int    `json:"rows,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Err      bool   `json:"err,omitempty"`
	// text is the request text of an endpoint call, kept for the
	// replays of the first replayQueries queries only.
	text string
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// replayQueries bounds how many traced queries keep their endpoint
// request texts for the parse/eval/serialize replays; it is a multiple
// of every workload's template cycle (8 and 5), so the replayed sample
// has the workload's mix.
const replayQueries = 120

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0   time.Time
	ids  atomic.Int64 // span ids of calls and replays, from callIDBase
	qids atomic.Int64 // query ids, from 1 in issue order
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// begin opens a query: it returns the context carrying the new query id.
func (r *recorder) begin(ctx context.Context) (context.Context, int64) {
	id := r.qids.Add(1)
	return withQuery(ctx, id), id
}

// endQuery records the query's root span.
func (r *recorder) endQuery(id int64, start, first, last time.Time, err error) {
	r.add(span{ID: id, Query: id, Name: "query", Start: r.at(start), First: r.at(first), End: r.at(last), Err: err != nil})
}

// callIDBase keeps non-query span ids apart from query ids.
const callIDBase = 1 << 40

func (r *recorder) nextID() int64 { return callIDBase + r.ids.Add(1) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, split into query spans
// and endpoint-call spans.
func (r *recorder) snapshot() (queries, calls []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == "query" {
			queries = append(queries, s)
		} else if s.Name == "endpoint.Query" {
			calls = append(calls, s)
		}
	}
	return queries, calls
}

// dump writes every span as one JSON line.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type queryKey struct{}

// queryRef identifies the query an endpoint call belongs to.
type queryRef struct{ id int64 }

func withQuery(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, queryKey{}, queryRef{id})
}

func queryOf(ctx context.Context) int64 {
	if q, ok := ctx.Value(queryKey{}).(queryRef); ok {
		return q.id
	}
	return 0
}

// tracedEndpoint records a span around every Endpoint.Query call. It
// is transparent to the engine: Inner exposes the wrapped endpoint to
// decorator-chain walks (coherence probes, churn targeting), and the
// request counters are the wrapped endpoint's own.
type tracedEndpoint struct {
	inner endpoint.Endpoint
	rec   *recorder
}

func traced(rec *recorder) func(endpoint.Endpoint) endpoint.Endpoint {
	return func(ep endpoint.Endpoint) endpoint.Endpoint { return &tracedEndpoint{inner: ep, rec: rec} }
}

func (t *tracedEndpoint) Name() string { return t.inner.Name() }

// Inner returns the wrapped endpoint.
func (t *tracedEndpoint) Inner() endpoint.Endpoint { return t.inner }

// Stats forwards the wrapped endpoint's counters.
func (t *tracedEndpoint) Stats() endpoint.Stats {
	if ss, ok := t.inner.(endpoint.StatsSource); ok {
		return ss.Stats()
	}
	return endpoint.Stats{}
}

// ResetStats forwards to the wrapped endpoint.
func (t *tracedEndpoint) ResetStats() {
	if ss, ok := t.inner.(endpoint.StatsSource); ok {
		ss.ResetStats()
	}
}

func (t *tracedEndpoint) Query(ctx context.Context, text string) (*sparql.Results, error) {
	if !t.rec.on.Load() {
		return t.inner.Query(ctx, text)
	}
	start := time.Now()
	res, err := t.inner.Query(ctx, text)
	end := time.Now()
	qid := queryOf(ctx)
	s := span{
		ID: t.rec.nextID(), Parent: qid, Query: qid, Name: "endpoint.Query",
		Start: t.rec.at(start), End: t.rec.at(end), Endpoint: t.inner.Name(), Err: err != nil,
	}
	if res != nil {
		s.Rows = res.Len()
		s.Bytes = res.ApproxWireBytes()
	}
	if qid > 0 && qid <= replayQueries {
		s.text = text
	}
	t.rec.add(s)
	return res, err
}

// blocking computes, per query, the self time (wall time during which
// none of its endpoint calls was in flight) and the rounds (merged
// waves of overlapping calls), averaged over the queries.
func blocking(queries, calls []span) (selfMs, rounds float64) {
	byQuery := map[int64][]span{}
	for _, c := range calls {
		byQuery[c.Query] = append(byQuery[c.Query], c)
	}
	if len(queries) == 0 {
		return 0, 0
	}
	var selfSum, roundSum float64
	for _, q := range queries {
		cs := byQuery[q.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		var waves int
		curS, curE := int64(-1), int64(-1)
		for _, c := range cs {
			s, e := max(c.Start, q.Start), min(c.End, q.End)
			if e <= s {
				continue
			}
			if s > curE {
				covered += curE - curS
				waves++
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		covered += curE - curS
		selfSum += ms(time.Duration(q.End - q.Start - covered)) // q.End-q.Start ≥ covered
		roundSum += float64(waves)
	}
	n := float64(len(queries))
	return selfSum / n, roundSum / n
}

// callLayer computes the endpoint-call metrics from call spans.
func callLayer(calls []span, queries int) map[string]metric {
	var busy time.Duration
	var bytes int64
	var errs int
	durs := make([]float64, 0, len(calls))
	for _, c := range calls {
		busy += c.dur()
		bytes += c.Bytes
		durs = append(durs, ms(c.dur()))
		if c.Err {
			errs++
		}
	}
	q := float64(queries)
	return map[string]metric{
		"endpoint.busy_ms_per_query":   {ratio(ms(busy), q), "ms"},
		"endpoint.call_ms_p50":         {quantile(durs, 0.5), "ms"},
		"endpoint.call_ms_p95":         {quantile(durs, 0.95), "ms"},
		"endpoint.wire_kb_per_query":   {ratio(float64(bytes)/1024, q), "KB"},
		"endpoint.errors_per_query":    {ratio(float64(errs), q), "count"},
		"endpoint.remote_call_ms_mean": {ratio(ms(busy), float64(len(calls))), "ms"},
	}
}
