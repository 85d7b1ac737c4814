package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/trace"
)

// SubqueryAnalysis pairs one planned subquery with the actuals its
// execution produced, so estimate-vs-actual error is visible per
// subquery.
type SubqueryAnalysis struct {
	Subquery *Subquery
	// EstCard is the cost model's estimate the delay decision was made
	// with.
	EstCard float64
	// ActualRows is the subquery result's cardinality.
	ActualRows int64
	// Latency is the subquery's wall-clock evaluation time (for
	// phase-1 subqueries, the slowest of its per-endpoint requests).
	Latency time.Duration
	// Requests is the number of remote requests the subquery issued.
	Requests int64
	// Decision describes how the executor evaluated the subquery:
	// "concurrent" for phase-1, or the bound-execution outcome for
	// delayed ones (bound variable, candidate count, block count,
	// unbound fallback, empty candidates).
	Decision string
	// Executed is false when no execution record was found for the
	// planned subquery (e.g. a sibling short-circuit emptied the join
	// before this subquery ran).
	Executed bool
}

// QError is the estimate's multiplicative error factor,
// max(est,actual)/min(est,actual), with +1 smoothing so empty
// relations stay finite. 1.0 is a perfect estimate.
func (a SubqueryAnalysis) QError() float64 {
	est, act := a.EstCard+1, float64(a.ActualRows)+1
	if est > act {
		return est / act
	}
	return act / est
}

// Analysis is an executed plan: the static Plan annotated with the
// actual cardinalities, latencies, and delay-decision outcomes of one
// real execution, plus that execution's Metrics and full span tree.
type Analysis struct {
	Plan       *Plan
	Subqueries []SubqueryAnalysis
	Metrics    Metrics
	Trace      *trace.Trace
	// Rows is the query's final result cardinality.
	Rows int
	// EndpointStats snapshots per-endpoint traffic at analysis time
	// (latency histograms populated when Config.Instrument is set).
	EndpointStats []endpoint.EndpointStat
}

// ExplainAnalyze executes the query while recording a trace, then
// returns the plan annotated with per-subquery actual cardinalities,
// latencies, and delay-decision outcomes next to the estimates. The
// query runs for real: its full cost (phase-1, bound phase-2, joins)
// is paid, exactly like Execute.
func (l *Lusail) ExplainAnalyze(ctx context.Context, query string) (*Analysis, error) {
	res, m, tr, err := l.ExecuteTraced(ctx, query)
	if err != nil {
		return nil, err
	}
	// The probes Explain needs (ASK, check, COUNT) were all cached by
	// the execution above, so re-planning is local work — and both
	// paths run the same deterministic pipeline over the same caches,
	// so the plan matches what the execution just did.
	plan, err := l.Explain(ctx, query)
	if err != nil {
		return nil, err
	}

	an := &Analysis{
		Plan:          plan,
		Metrics:       m,
		Trace:         tr,
		Rows:          res.Len(),
		EndpointStats: l.EndpointStats(),
	}

	// Join the plan against the trace's subquery execution records,
	// matching by rendered subquery text (IDs are per-group and may
	// diverge for nested structures; the text is the identity).
	records := subquerySpans(tr.Root)
	used := make([]bool, len(records))
	for _, sq := range plan.Subqueries {
		sa := SubqueryAnalysis{Subquery: sq, EstCard: sq.EstCard, Decision: "concurrent"}
		if sq.Delayed {
			sa.Decision = "delayed"
		}
		text := sq.Query().String()
		for i, sp := range records {
			if used[i] {
				continue
			}
			if q, _ := sp.Get("query").(string); q != text {
				continue
			}
			used[i] = true
			sa.Executed = true
			sa.ActualRows = sp.Int("rows")
			sa.Requests = sp.Int("requests")
			sa.Latency = sp.Duration()
			if d, _ := sp.Get("decision").(string); d != "" {
				sa.Decision = d
			}
			if shared, _ := sp.Get("shared").(bool); shared {
				sa.Decision += " (shared)"
			}
			break
		}
		an.Subqueries = append(an.Subqueries, sa)
	}
	return an, nil
}

// String renders the analysis for humans: the plan with actuals
// annotated per subquery, phase timings, and per-endpoint latency
// statistics when available.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  rows=%d  total=%s  requests=%d\n",
		a.Rows, a.Metrics.Total().Round(time.Microsecond), a.Metrics.RemoteRequests())
	fmt.Fprintf(&b, "phases: source-selection=%s analysis=%s execution=%s\n",
		a.Metrics.SourceSelection.Round(time.Microsecond),
		a.Metrics.Analysis.Round(time.Microsecond),
		a.Metrics.Execution.Round(time.Microsecond))
	if a.Metrics.Retries > 0 || a.Metrics.BreakerOpens > 0 || a.Metrics.Hedges > 0 {
		fmt.Fprintf(&b, "faults: retries=%d breaker-opens=%d hedges=%d\n",
			a.Metrics.Retries, a.Metrics.BreakerOpens, a.Metrics.Hedges)
	}
	if a.Metrics.ChunkSplits > 0 {
		fmt.Fprintf(&b, "values-chunk splits: %d\n", a.Metrics.ChunkSplits)
	}
	if c := a.Metrics.Completeness; c != nil && !c.Complete {
		fmt.Fprintf(&b, "completeness: %s\n", c)
	}
	if a.Metrics.SummaryHits > 0 {
		fmt.Fprintf(&b, "plan questions answered from statistics summaries: %d\n", a.Metrics.SummaryHits)
	}
	if a.Metrics.Replans > 0 {
		fmt.Fprintf(&b, "mid-query replans: %d\n", a.Metrics.Replans)
	}

	b.WriteString("global join variables: ")
	if len(a.Plan.GJVs) == 0 {
		b.WriteString("none (disjoint query)")
	}
	for i, v := range a.Plan.GJVs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("?" + string(v))
	}
	fmt.Fprintf(&b, "\ncheck queries sent: %d\n", a.Plan.CheckQueries)

	for _, sa := range a.Subqueries {
		sq := sa.Subquery
		kind := ""
		if sq.Optional {
			kind = fmt.Sprintf(" optional(group %d)", sq.OptionalGroup)
		}
		var srcs []string
		for _, ei := range sq.Sources {
			if ei < len(a.Plan.EndpointNames) {
				srcs = append(srcs, a.Plan.EndpointNames[ei])
			} else {
				srcs = append(srcs, fmt.Sprint(ei))
			}
		}
		if !sa.Executed {
			fmt.Fprintf(&b, "subquery %d [%s%s, est. card %.0f, not executed] @ {%s}\n",
				sq.ID, sa.Decision, kind, sa.EstCard, strings.Join(srcs, ", "))
		} else {
			fmt.Fprintf(&b, "subquery %d [%s%s, est. card %.0f → actual %d (q-err %.1f×), %s, %d requests] @ {%s}\n",
				sq.ID, sa.Decision, kind, sa.EstCard, sa.ActualRows, sa.QError(),
				sa.Latency.Round(time.Microsecond), sa.Requests, strings.Join(srcs, ", "))
		}
		for _, tp := range sq.Patterns {
			fmt.Fprintf(&b, "    %s .\n", tp.String())
		}
		for _, f := range sq.Filters {
			fmt.Fprintf(&b, "    FILTER (%s)\n", f.String())
		}
		fmt.Fprintf(&b, "    %s\n", renderProjection(sq.ProjVars))
	}

	// Join steps, from the trace.
	if joins := a.Trace.Root.FindAll("hash-join"); len(joins) > 0 {
		b.WriteString("joins:\n")
		for _, js := range joins {
			fmt.Fprintf(&b, "    hash-join %d ⋈ %d → %d rows (%d partitions, %s)\n",
				js.Int("left_rows"), js.Int("right_rows"), js.Int("out_rows"),
				js.Int("partitions"), js.Duration().Round(time.Microsecond))
		}
	}
	for _, ls := range a.Trace.Root.FindAll("left-join") {
		fmt.Fprintf(&b, "    left-join group %d: %d rows → %d rows (%s)\n",
			ls.Int("group"), ls.Int("left_rows"), ls.Int("out_rows"),
			ls.Duration().Round(time.Microsecond))
	}

	// Per-endpoint latency, when instrumentation is on.
	var instrumented []endpoint.EndpointStat
	for _, es := range a.EndpointStats {
		if es.Stats.Latency.Count() > 0 {
			instrumented = append(instrumented, es)
		}
	}
	if len(instrumented) > 0 {
		b.WriteString("endpoints (cumulative):\n")
		for _, es := range instrumented {
			fmt.Fprintf(&b, "    %-12s requests=%d errors=%d p50<=%s p95<=%s p99<=%s mean=%s\n",
				es.Name, es.Stats.Latency.Count(), es.Stats.Errors,
				es.Stats.Latency.Quantile(0.50), es.Stats.Latency.Quantile(0.95),
				es.Stats.Latency.Quantile(0.99), es.Stats.Latency.Mean().Round(time.Microsecond))
		}
	}
	return b.String()
}

// subquerySpans collects the spans carrying subquery execution records
// (those with a "query" attribute) in pre-order.
func subquerySpans(sp *trace.Span) []*trace.Span {
	if sp == nil {
		return nil
	}
	var out []*trace.Span
	if q, _ := sp.Get("query").(string); q != "" {
		out = append(out, sp)
	}
	for _, c := range sp.Children() {
		out = append(out, subquerySpans(c)...)
	}
	return out
}
