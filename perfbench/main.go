// Command perfbench is the repository benchmark: three closed-loop
// workloads (inproc-lubm, geo-churn, http-lubm) that check every answer
// against a union-store oracle and report end-to-end metrics, or, with
// -trace 1, per-layer metrics from spans recorded around calls into the
// program's layers. See README.md in this directory.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	perfbench -workload inproc-lubm -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// timingWindow is the window length of the CPU-bound workloads, whose
// timings are medians over windows: a 30 s run has six, each holding a
// few hundred queries.
const timingWindow = 5 * time.Second

// setupRepeats is how many times a run builds its workload from
// scratch; setup_s is the median, and the last build is measured.
const setupRepeats = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	binDir  string // built lusail-server, endpoint and datagen binaries
	workDir string // scratch space for generated data and span dumps
}

// workload runs one benchmark workload and returns its report.
type workload func(opts options) (*report, error)

var workloads = map[string]workload{
	"inproc-lubm": runInprocLUBM,
	"geo-churn":   runGeoChurn,
	"http-lubm":   runHTTPLUBM,
}

func main() {
	var (
		name    = flag.String("workload", "inproc-lubm", "workload: inproc-lubm | geo-churn | http-lubm | all")
		seed    = flag.Int64("seed", 1, "workload seed: query sequence, template constants and churn schedule")
		seconds = flag.Float64("seconds", 30, "measured duration of one run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding the lusail-server, endpoint and datagen binaries")
		workDir = flag.String("work", ".bench_build/work", "directory for generated data and span dumps")
	)
	flag.Parse()
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, binDir: *binDir, workDir: *workDir}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		fatal(err)
	}

	var rep *report
	var err error
	if *name == "all" {
		rep, err = runAll(opts)
	} else if w, ok := workloads[*name]; ok {
		rep, err = w(opts)
		if err == nil {
			printHuman(*name, rep)
		}
	} else {
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	os.Exit(exitCode(rep))
}

// exitCode is non-zero when any answer was wrong or any query failed.
func exitCode(rep *report) int {
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, printing each one's metrics, and
// merges the reports with metric names prefixed by the workload.
func runAll(opts options) (*report, error) {
	all := &report{Correct: true, Metrics: map[string]metric{}}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep, err := workloads[n](opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		printHuman(n, rep)
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, v := range rep.Metrics {
			all.Metrics[n+"."+k] = v
		}
	}
	return all, nil
}

// printHuman prints one "workload metric value unit" line per metric.
func printHuman(name string, rep *report) {
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s: correct=%v attempted=%d failed=%d\n", name, rep.Correct, rep.Attempted, rep.Failed)
	for _, k := range keys {
		m := rep.Metrics[k]
		fmt.Printf("%-12s %-44s %14.4f %s\n", name, k, m.Value, m.Unit)
	}
	// failed_ratio is 0 on every correct run, so it is carried by the
	// result line's failed and attempted rather than as a metric.
	fmt.Printf("%-12s %-44s %14.4f %s\n", name, "failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "failed/attempted")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted. 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianSetup runs build setupRepeats times, closing every build but
// the last, and returns the last build with the median setup time. A
// closed build is collected before the next one starts, so that the
// process's peak RSS holds one build, not two.
func medianSetup[T interface{ close() }](build func() (T, error)) (T, float64, error) {
	var last, none T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			last.close()
			last = none
			runtime.GC()
		}
		start := time.Now()
		b, err := build()
		if err != nil {
			return none, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = b
	}
	return last, quantile(times, 0.5), nil
}

// spanDumpPath names the file a traced run writes its spans to.
func spanDumpPath(opts options, workload string) string {
	return filepath.Join(opts.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, opts.seed))
}

// errMismatch marks an answer that differs from the oracle's.
var errMismatch = errors.New("oracle mismatch")

// shortErr trims an error message for the per-failure log line.
func shortErr(err error) string {
	s := err.Error()
	if len(s) > 300 {
		s = s[:300] + "..."
	}
	return strings.ReplaceAll(s, "\n", " ")
}
