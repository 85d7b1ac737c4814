package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one issued query reports back to the loop.
type outcome struct {
	latency  time.Duration // issue to last row
	firstRow time.Duration // issue to first row (= latency when no rows)
	err      error         // transport/engine error or oracle mismatch
	template string
}

// loop is a closed loop of concurrent callers working through a seeded
// query sequence. Every batch queries the loop stops at a barrier with
// no query in flight, where the workload may mutate data; barrier time
// is excluded from the measured time.
type loop struct {
	seconds float64
	batch   int
	// clients is the number of concurrent callers; 0 means one.
	clients int
	// window splits the measured time into consecutive windows of this
	// length, whose timings endToEnd reports the median of; 0 makes the
	// whole run one window.
	window time.Duration
	// issue runs sequence position idx and checks its answer; it times
	// the query itself, so the answer check costs no latency.
	issue func(ctx context.Context, idx int) outcome
	// barrier, if set, runs after every full batch.
	barrier func()
	// next is the sequence position the next run starts at, so that a
	// second run continues the sequence where the first stopped.
	next int
}

// loopResult collects the samples of one loop run.
type loopResult struct {
	latencyMs  []float64 // successful queries only
	firstRowMs []float64
	byTemplate map[string][]float64
	windows    []window
	attempted  int
	failed     int
	measured   time.Duration // query time, barriers excluded
}

// window holds the successful queries that completed in one stretch
// of measured time.
type window struct {
	latencyMs  []float64
	firstRowMs []float64
	length     time.Duration
}

func (w window) throughput() float64 { return float64(len(w.latencyMs)) / w.length.Seconds() }

func (r *loopResult) throughput() float64 {
	return float64(r.attempted-r.failed) / r.measured.Seconds()
}

// merge pools the samples of several runs.
func merge(runs ...*loopResult) *loopResult {
	out := &loopResult{byTemplate: map[string][]float64{}}
	for _, r := range runs {
		out.latencyMs = append(out.latencyMs, r.latencyMs...)
		out.firstRowMs = append(out.firstRowMs, r.firstRowMs...)
		for t, l := range r.byTemplate {
			out.byTemplate[t] = append(out.byTemplate[t], l...)
		}
		out.windows = append(out.windows, r.windows...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.measured += r.measured
	}
	return out
}

const (
	// maxLoggedFailures bounds the per-failure lines written to stderr.
	maxLoggedFailures = 5
	// queryTimeout fails a query that hangs, so a run always ends.
	queryTimeout = 30 * time.Second
)

// run drives the loop for its configured duration.
func (l *loop) run(ctx context.Context) (*loopResult, error) {
	res := &loopResult{byTemplate: map[string][]float64{}}
	budget := time.Duration(l.seconds * float64(time.Second))
	windows := 1
	if l.window > 0 {
		windows = max(1, int(budget/l.window))
	}
	res.windows = make([]window, windows)
	var mu sync.Mutex
	next := l.next
	defer func() { l.next = next }()
	for res.measured < budget {
		batchStart := time.Now()
		before := res.measured
		remaining := budget - before
		var cursor atomic.Int64
		cursor.Store(int64(next))
		end := int64(next + l.batch)
		var wg sync.WaitGroup
		for c := 0; c < max(l.clients, 1); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(batchStart) < remaining && ctx.Err() == nil {
					idx := cursor.Add(1) - 1
					if idx >= end {
						return
					}
					qctx, cancel := context.WithTimeout(ctx, queryTimeout)
					o := l.issue(qctx, int(idx))
					cancel()
					mu.Lock()
					res.attempted++
					if o.err != nil {
						res.failed++
						if res.failed <= maxLoggedFailures {
							fmt.Fprintf(os.Stderr, "perfbench: query %d failed: %s\n", idx, shortErr(o.err))
						}
					} else {
						res.latencyMs = append(res.latencyMs, ms(o.latency))
						res.firstRowMs = append(res.firstRowMs, ms(o.firstRow))
						res.byTemplate[o.template] = append(res.byTemplate[o.template], ms(o.latency))
						w := &res.windows[windows-1]
						if l.window > 0 {
							w = &res.windows[min(int((before+time.Since(batchStart))/l.window), windows-1)]
						}
						w.latencyMs = append(w.latencyMs, ms(o.latency))
						w.firstRowMs = append(w.firstRowMs, ms(o.firstRow))
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		res.measured += time.Since(batchStart)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next = int(cursor.Load())
		if next > int(end) {
			next = int(end)
		}
		if l.barrier != nil && res.measured < budget {
			l.barrier()
		}
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("no query completed in %.1fs", l.seconds)
	}
	for i := range res.windows {
		res.windows[i].length = l.window
	}
	// The last window also holds the tail of the batch that crossed
	// the budget.
	res.windows[windows-1].length = res.measured - time.Duration(windows-1)*l.window
	return res, nil
}

// reportOf is an untraced run's report: correct only if no query failed.
func reportOf(res *loopResult, metrics map[string]metric) *report {
	return &report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics}
}

// endToEnd turns a loop result into the end-to-end metrics every
// workload reports (requests and rows per query come from the caller's
// own counters). Each timing is the median over the run's windows of
// that window's figure, so that a burst of load from outside the
// benchmark that covers a minority of the windows does not move it.
func endToEnd(res *loopResult, requests, rows int64, rssMB, setupS float64) map[string]metric {
	done := float64(res.attempted - res.failed)
	return map[string]metric{
		"latency_p50_ms":              {res.windowMedian(func(w window) float64 { return quantile(w.latencyMs, 0.5) }), "ms"},
		"latency_p95_ms":              {res.windowMedian(func(w window) float64 { return quantile(w.latencyMs, 0.95) }), "ms"},
		"first_row_p50_ms":            {res.windowMedian(func(w window) float64 { return quantile(w.firstRowMs, 0.5) }), "ms"},
		"throughput_qps":              {res.windowMedian(window.throughput), "queries/s"},
		"endpoint_requests_per_query": {ratio(float64(requests), done), "count"},
		"rows_transferred_per_query":  {ratio(float64(rows), done), "count"},
		"rss_peak_mb":                 {rssMB, "MB"},
		"setup_s":                     {setupS, "s"},
	}
}

// windowMedian is the median of f over the windows in which some
// query completed.
func (r *loopResult) windowMedian(f func(window) float64) float64 {
	var xs []float64
	for _, w := range r.windows {
		if len(w.latencyMs) > 0 {
			xs = append(xs, f(w))
		}
	}
	return quantile(xs, 0.5)
}

// logTemplates prints each template's query count and latency
// percentiles to stderr.
func logTemplates(workload string, res *loopResult) {
	names := make([]string, 0, len(res.byTemplate))
	for n := range res.byTemplate {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := res.byTemplate[n]
		fmt.Fprintf(os.Stderr, "perfbench: %s template %-9s n=%4d p50=%9.3f ms p95=%9.3f ms\n",
			workload, n, len(l), quantile(l, 0.5), quantile(l, 0.95))
	}
}

// checkTail prints each window's figures and warns when fewer than
// ten samples of a window lie beyond p95, the least the tail metric
// needs to mean anything.
func checkTail(workload string, res *loopResult) {
	logTemplates(workload, res)
	for i, w := range res.windows {
		fmt.Fprintf(os.Stderr, "perfbench: %s window %d n=%4d p50=%9.3f ms p95=%9.3f ms %8.2f queries/s\n",
			workload, i, len(w.latencyMs), quantile(w.latencyMs, 0.5), quantile(w.latencyMs, 0.95), w.throughput())
		if n := len(w.latencyMs); n < 200 {
			fmt.Fprintf(os.Stderr, "perfbench: %s window %d: only %d queries completed; fewer than 10 lie beyond p95\n", workload, i, n)
		}
	}
}
