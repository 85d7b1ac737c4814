package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"lusail/internal/baseline/hibiscus"
	"lusail/internal/baseline/splendid"
	"lusail/internal/benchdata/bio"
	"lusail/internal/benchdata/largerdf"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/benchdata/qfed"
	"lusail/internal/cache"
	"lusail/internal/core"
	"lusail/internal/endpoint"
)

// Fig3 reproduces Figure 3: FedX's runtime and remote-request count as
// the number of endpoints grows (LUBM Q2 and the QFed Drug query),
// with source-selection results cached. The expected shape: both
// curves grow superlinearly with the endpoint count because the bound
// join's requests track intermediate-result size.
func Fig3(w io.Writer, opts Options) error {
	header(w, "Fig. 3", "FedX sensitivity to the number of endpoints")
	fmt.Fprintf(w, "%-10s %-12s %12s %12s %12s\n", "workload", "endpoints", "runtime", "requests", "rows-shipped")
	for _, n := range []int{1, 2, 3, 4} {
		f := LUBM(n, opts)
		eng, err := BuildEngine("fedx", f)
		if err != nil {
			return err
		}
		m := Run(eng, f, "LUBM-Q2", lubm.Q2, opts)
		fmt.Fprintf(w, "%-10s %-12d %12s %12d %12d\n", "LUBM-Q2", n, m.Runtime(), m.Requests, m.RowsShipped)
	}
	// The Drug query uses the 4 QFed datasets; the sweep distributes
	// them over 1..4 endpoints so the query stays answerable at every
	// federation size.
	for n := 1; n <= 4; n++ {
		f := QFedPartitioned(n, opts)
		eng, err := BuildEngine("fedx", f)
		if err != nil {
			return err
		}
		m := Run(eng, f, "QFed-Drug", qfed.Queries["Drug"], opts)
		fmt.Fprintf(w, "%-10s %-12d %12s %12d %12d\n", "QFed-Drug", n, m.Runtime(), m.Requests, m.RowsShipped)
	}
	return nil
}

// Table1 reproduces Table I: per-endpoint triple counts of all three
// benchmarks.
func Table1(w io.Writer, opts Options) error {
	header(w, "Table I", "Datasets used in experiments")
	fmt.Fprintf(w, "%-15s %-25s %12s\n", "benchmark", "endpoint", "triples")
	printFed := func(bench string, f *Federation) {
		total := 0
		for i, l := range f.Locals {
			fmt.Fprintf(w, "%-15s %-25s %12d\n", bench, f.Names[i], l.Store().Len())
			total += l.Store().Len()
		}
		fmt.Fprintf(w, "%-15s %-25s %12d\n", bench, "Total Triples", total)
	}
	printFed("QFed", QFed(opts))
	printFed("LargeRDFBench", LargeRDF(opts))
	lu := LUBM(4, opts)
	total := 0
	for _, l := range lu.Locals {
		total += l.Store().Len()
	}
	fmt.Fprintf(w, "%-15s %-25s %12d\n", "LUBM", fmt.Sprintf("%d universities", len(lu.Locals)), total)
	return nil
}

// Preprocessing reproduces the §VI-A preprocessing-cost comparison:
// index-based systems pay an indexing phase that grows with data size;
// Lusail and FedX pay nothing.
func Preprocessing(w io.Writer, opts Options) error {
	header(w, "§VI-A", "Data preprocessing cost")
	fmt.Fprintf(w, "%-15s %-12s %15s %15s\n", "benchmark", "system", "prep-time", "triples-scanned")
	for _, bench := range []struct {
		name string
		fed  *Federation
	}{{"QFed", QFed(opts)}, {"LargeRDFBench", LargeRDF(opts)}} {
		idx, err := splendid.BuildIndex(bench.fed.Endpoints)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-15s %-12s %15s %15d\n", bench.name, "splendid", idx.BuildTime, idx.TriplesScanned)
		sum, err := hibiscus.BuildSummary(bench.fed.Endpoints)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-15s %-12s %15s %15s\n", bench.name, "hibiscus", sum.BuildTime, "-")
		fmt.Fprintf(w, "%-15s %-12s %15s %15s\n", bench.name, "lusail", time.Duration(0), "0")
		fmt.Fprintf(w, "%-15s %-12s %15s %15s\n", bench.name, "fedx", time.Duration(0), "0")
	}
	return nil
}

// Fig9 reproduces Figure 9: total per-category LargeRDFBench runtime
// under the four delayed-subquery thresholds. Expected shape: mu+sigma
// is consistently good; mu over-delays large queries; mu+2sigma and
// outliers under-delay simple/complex ones.
func Fig9(w io.Writer, opts Options) error {
	header(w, "Fig. 9", "Delayed-subquery threshold sweep (LargeRDFBench, geo-distributed)")
	// The paper runs this sweep on Azure-deployed endpoints (13 D4
	// instances across 7 regions): delaying trades parallel WAN round
	// trips against shipped data, so the thresholds only separate
	// under wide-area latency.
	if opts.Network == (endpoint.NetworkProfile{}) {
		// Bandwidth is scaled down with the data (our datasets are
		// ~10^4 smaller than the paper's) so that the transfer-vs-RTT
		// ratio that drives the delay trade-off is preserved.
		opts.Network = endpoint.NetworkProfile{RTT: endpoint.WANProfile.RTT, BytesPerSecond: 1_000_000}
	}
	policies := []core.DelayPolicy{core.DelayMu, core.DelayMuSigma, core.DelayMu2Sigma, core.DelayOutliersOnly}
	fmt.Fprintf(w, "%-10s", "category")
	for _, p := range policies {
		fmt.Fprintf(w, " %12s", p.String())
	}
	fmt.Fprintln(w)
	f := LargeRDF(opts)
	for _, cat := range largerdf.CategoryOrder {
		fmt.Fprintf(w, "%-10s", cat)
		for _, pol := range policies {
			eng := core.New(f.Endpoints, core.Config{DelayPolicy: pol})
			var total time.Duration
			failed := false
			for _, name := range largerdf.QueryNames(cat) {
				m := Run(eng, f, name, largerdf.Categories[cat][name], opts)
				if m.Err != nil {
					failed = true
					break
				}
				total += m.Duration
			}
			if failed {
				fmt.Fprintf(w, " %12s", "ERR")
			} else {
				fmt.Fprintf(w, " %12s", fmt.Sprintf("%.3fs", total.Seconds()))
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig10a reproduces Figure 10(a): the per-phase profile (source
// selection / query analysis / execution) of S10, C4, and B1.
func Fig10a(w io.Writer, opts Options) error {
	header(w, "Fig. 10a", "Lusail phase profile on LargeRDFBench")
	fmt.Fprintf(w, "%-8s %15s %15s %15s %15s\n", "query", "source-sel", "analysis", "execution", "total")
	f := LargeRDF(opts)
	queries := map[string]string{
		"S10": largerdf.SimpleQueries["S10"],
		"C4":  largerdf.ComplexQueries["C4"],
		"B1":  largerdf.LargeQueries["B1"],
	}
	for _, name := range []string{"S10", "C4", "B1"} {
		l := core.New(f.Endpoints, core.Config{})
		m := Run(l, f, name, queries[name], opts)
		if m.Err != nil {
			fmt.Fprintf(w, "%-8s %s\n", name, m.Runtime())
			continue
		}
		mt := l.LastMetrics()
		fmt.Fprintf(w, "%-8s %15s %15s %15s %15s\n", name,
			mt.SourceSelection.Round(time.Microsecond),
			mt.Analysis.Round(time.Microsecond),
			mt.Execution.Round(time.Microsecond),
			mt.Total().Round(time.Microsecond))
	}
	return nil
}

// Fig10bc reproduces Figures 10(b) and 10(c): LUBM Q3 and Q4 phase
// profiles as the number of university endpoints grows, with and
// without the ASK/check-query cache.
func Fig10bc(w io.Writer, opts Options, endpointCounts []int) error {
	header(w, "Fig. 10b/c", "LUBM Q3/Q4 phases vs number of endpoints")
	fmt.Fprintf(w, "%-6s %-10s %12s %12s %12s %14s %14s\n",
		"query", "endpoints", "source-sel", "analysis", "execution", "total(cached)", "total(no-cache)")
	for _, qname := range []string{"Q3", "Q4"} {
		for _, n := range endpointCounts {
			f := LUBM(n, opts)
			l := core.New(f.Endpoints, core.Config{})
			m := Run(l, f, qname, lubm.Queries[qname], opts)
			if m.Err != nil {
				fmt.Fprintf(w, "%-6s %-10d %s\n", qname, n, m.Runtime())
				continue
			}
			mt := l.LastMetrics()
			// No-cache run.
			lnc := core.New(f.Endpoints, core.Config{Caching: cache.Off})
			mnc := Run(lnc, f, qname, lubm.Queries[qname], opts)
			fmt.Fprintf(w, "%-6s %-10d %12s %12s %12s %14s %14s\n", qname, n,
				mt.SourceSelection.Round(time.Microsecond),
				mt.Analysis.Round(time.Microsecond),
				mt.Execution.Round(time.Microsecond),
				m.Runtime(), mnc.Runtime())
		}
	}
	return nil
}

// Fig11 reproduces Figure 11: the QFed C2P2 query family across all
// systems. Expected shape: Lusail wins throughout; big-literal (B)
// variants blow up FedX/HiBISCuS.
func Fig11(w io.Writer, opts Options) error {
	header(w, "Fig. 11", "QFed query performance")
	return compareEngines(w, QFed(opts), qfed.QueryOrder, qfed.Queries, opts)
}

// Fig12 reproduces Figure 12: LUBM Q1-Q4 on two and four endpoints
// across all systems. Expected shape: orders-of-magnitude gaps on
// Q1/Q2/Q4 (disjoint or interlink-heavy), smaller gap on Q3.
func Fig12(w io.Writer, opts Options) error {
	for _, n := range []int{2, 4} {
		header(w, fmt.Sprintf("Fig. 12 (%d endpoints)", n), "LUBM query performance")
		f := LUBM(n, opts)
		if err := compareEngines(w, f, []string{"Q1", "Q2", "Q3", "Q4"}, lubm.Queries, opts); err != nil {
			return err
		}
	}
	return nil
}

// Fig13 reproduces Figure 13: LargeRDFBench S/C/B queries across all
// systems on the local-cluster (zero-latency) setting.
func Fig13(w io.Writer, opts Options) error {
	f := LargeRDF(opts)
	for _, cat := range largerdf.CategoryOrder {
		header(w, "Fig. 13 ("+cat+")", "LargeRDFBench "+cat+" queries")
		if err := compareEngines(w, f, largerdf.QueryNames(cat), largerdf.Categories[cat], opts); err != nil {
			return err
		}
	}
	return nil
}

// Fig14 reproduces Figure 14: the geo-distributed federation. The
// endpoints keep their data but every request pays a WAN round trip
// and bandwidth; complex and large categories plus LUBM on two
// endpoints are reported.
func Fig14(w io.Writer, opts Options) error {
	wan := opts
	if wan.Network == (endpoint.NetworkProfile{}) {
		wan.Network = endpoint.WANProfile
	}
	// Endpoints are spread over the paper's seven regions, so RTTs are
	// heterogeneous (8-48ms) rather than uniform.
	f := LargeRDF(wan).SpreadRegions()
	for _, cat := range []string{"C", "B"} {
		header(w, "Fig. 14 ("+cat+")", "Geo-distributed LargeRDFBench "+cat+" queries")
		if err := compareEngines(w, f, largerdf.QueryNames(cat), largerdf.Categories[cat], wan); err != nil {
			return err
		}
	}
	header(w, "Fig. 14c", "Geo-distributed LUBM (2 endpoints)")
	lu := LUBM(2, wan).SpreadRegions()
	return compareEngines(w, lu, []string{"Q1", "Q2", "Q3", "Q4"}, lubm.Queries, wan)
}

// BioExperiment reproduces §VI-D's real-endpoint workload: R1-R3 over
// the Bio2RDF-shaped federation on Lusail and FedX.
func BioExperiment(w io.Writer, opts Options) error {
	header(w, "§VI-D", "Bio2RDF-shaped federation, queries R1-R3")
	return compareEnginesSubset(w, Bio(opts), bio.QueryOrder, bio.Queries, opts, []string{"lusail", "fedx"})
}

// AblationLADE compares full Lusail against the decomposition ablation
// (every shared variable treated as global, i.e. schema-only
// decomposition), isolating the contribution of locality awareness.
func AblationLADE(w io.Writer, opts Options) error {
	header(w, "Ablation", "LADE: locality-aware vs one-pattern-per-subquery")
	fmt.Fprintf(w, "%-8s %-18s %12s %12s %12s\n", "query", "engine", "runtime", "requests", "subqueries")
	f := LUBM(4, opts)
	for _, qname := range []string{"Q1", "Q2", "Q3", "Q4"} {
		for _, mode := range []string{"lusail", "lusail-ablade"} {
			eng, err := BuildEngine(mode, f)
			if err != nil {
				return err
			}
			m := Run(eng, f, qname, lubm.Queries[qname], opts)
			sub := "-"
			if l, ok := eng.(*core.Lusail); ok && m.Err == nil {
				sub = fmt.Sprintf("%d", l.LastMetrics().Subqueries)
			}
			fmt.Fprintf(w, "%-8s %-18s %12s %12d %12s\n", qname, mode, m.Runtime(), m.Requests, sub)
		}
	}
	return nil
}

// AblationSAPE compares delay policies against no-delay (fully
// concurrent) and all-delay (fully sequential bound execution),
// isolating the contribution of selectivity awareness.
func AblationSAPE(w io.Writer, opts Options) error {
	header(w, "Ablation", "SAPE: mu+sigma vs fully-concurrent vs fully-bound (geo-distributed)")
	if opts.Network == (endpoint.NetworkProfile{}) {
		opts.Network = endpoint.WANProfile
	}
	fmt.Fprintf(w, "%-8s %-12s %12s %12s %14s\n", "query", "policy", "runtime", "requests", "rows-shipped")
	f := LargeRDF(opts)
	queries := []string{"S13", "C7", "B1"}
	for _, qname := range queries {
		var cat string
		switch qname[0] {
		case 'S':
			cat = "S"
		case 'C':
			cat = "C"
		default:
			cat = "B"
		}
		for _, pol := range []core.DelayPolicy{core.DelayMuSigma, core.DelayNone, core.DelayAll} {
			eng := core.New(f.Endpoints, core.Config{DelayPolicy: pol})
			m := Run(eng, f, qname, largerdf.Categories[cat][qname], opts)
			fmt.Fprintf(w, "%-8s %-12s %12s %12d %14d\n", qname, pol.String(), m.Runtime(), m.Requests, m.RowsShipped)
		}
	}
	return nil
}

// Scale reproduces the paper's scalability claim: Lusail scales to
// 256 LUBM university endpoints (Fig. 10b/c ran up to 256; the
// competitors stop at 4). Lusail-only, since FedX at 256 endpoints
// would run for hours even at this dataset scale.
func Scale(w io.Writer, opts Options) error {
	header(w, "Scalability", "Lusail on LUBM up to 256 endpoints")
	fmt.Fprintf(w, "%-10s %-8s %12s %12s %10s %14s\n",
		"endpoints", "query", "runtime", "requests", "rows", "total-triples")
	for _, n := range []int{16, 64, 256} {
		f := LUBM(n, opts)
		triples := 0
		for _, l := range f.Locals {
			triples += l.Store().Len()
		}
		for _, qname := range []string{"Q3", "Q4"} {
			eng := core.New(f.Endpoints, core.Config{})
			m := Run(eng, f, qname, lubm.Queries[qname], opts)
			fmt.Fprintf(w, "%-10d %-8s %12s %12d %10d %14d\n",
				n, qname, m.Runtime(), m.Requests, m.Rows, triples)
		}
	}
	return nil
}

// MQO demonstrates the multi-query optimization extension ([11],
// referenced in §V): a batch of overlapping queries shares subquery
// executions through a single-flight cache. The workload issues each
// LUBM query twice plus a shared-prefix variant.
func MQO(w io.Writer, opts Options) error {
	header(w, "Extension", "Multi-query optimization (batch vs sequential)")
	f := LUBM(4, opts)
	workload := []string{
		lubm.Q1, lubm.Q2, lubm.Q4, lubm.Q1, lubm.Q2, lubm.Q4,
	}
	run := func(batch bool) (time.Duration, int64, int, error) {
		eng := core.New(f.Endpoints, core.Config{})
		endpoint.ResetAll(f.Endpoints)
		start := time.Now()
		shared := 0
		if batch {
			for _, br := range eng.ExecuteBatch(context.Background(), workload) {
				if br.Err != nil {
					return 0, 0, 0, br.Err
				}
			}
			shared = eng.LastMetrics().SharedSubqueries
		} else {
			for _, q := range workload {
				// Fresh engine per query: no caches shared at all.
				one := core.New(f.Endpoints, core.Config{})
				if _, err := one.Execute(context.Background(), q); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		return time.Since(start), endpoint.TotalStats(f.Endpoints).Requests, shared, nil
	}
	fmt.Fprintf(w, "%-12s %12s %12s %18s\n", "mode", "runtime", "requests", "shared-subqueries")
	for _, batch := range []bool{false, true} {
		label := "sequential"
		if batch {
			label = "batch(MQO)"
		}
		d, reqs, shared, err := run(batch)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %12s %12d %18d\n", label, fmt.Sprintf("%.3fs", d.Seconds()), reqs, shared)
	}
	return nil
}

// compareEngines runs the named queries on every engine and prints a
// figure-style table.
func compareEngines(w io.Writer, f *Federation, order []string, queries map[string]string, opts Options) error {
	return compareEnginesSubset(w, f, order, queries, opts, EngineNames)
}

func compareEnginesSubset(w io.Writer, f *Federation, order []string, queries map[string]string, opts Options, engines []string) error {
	fmt.Fprintf(w, "%-8s", "query")
	for _, e := range engines {
		fmt.Fprintf(w, " %12s %10s", e, "#req")
	}
	fmt.Fprintf(w, " %8s\n", "rows")
	for _, qname := range order {
		query, ok := queries[qname]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-8s", qname)
		// Every comparison doubles as a correctness audit: all engines
		// that finish must return the same rows.
		rows := -1
		var disagreements []string
		for _, ename := range engines {
			eng, err := BuildEngine(ename, f)
			if err != nil {
				return err
			}
			m := Run(eng, f, qname, query, opts)
			fmt.Fprintf(w, " %12s %10d", m.Runtime(), m.Requests)
			if m.Err == nil {
				if rows >= 0 && rows != m.Rows {
					disagreements = append(disagreements, fmt.Sprintf("%s=%d", ename, m.Rows))
				}
				rows = m.Rows
			}
		}
		fmt.Fprintf(w, " %8d", rows)
		if len(disagreements) > 0 {
			fmt.Fprintf(w, "  RESULT-MISMATCH(%s)", strings.Join(disagreements, ","))
		}
		fmt.Fprintf(w, "\n")
	}
	return nil
}

// All runs every experiment in report order.
func All(w io.Writer, opts Options) error {
	steps := []func(io.Writer, Options) error{
		Table1, Preprocessing, Fig3, Fig9, Fig10a,
		func(w io.Writer, o Options) error { return Fig10bc(w, o, []int{2, 4, 8, 16}) },
		Fig11, Fig12, Fig13, Fig14, BioExperiment, AblationLADE, AblationSAPE, MQO, Scale,
	}
	for _, step := range steps {
		if err := step(w, opts); err != nil {
			return err
		}
	}
	return nil
}

// Registry maps experiment ids to runners for the CLI.
var Registry = map[string]func(io.Writer, Options) error{
	"table1":   Table1,
	"prep":     Preprocessing,
	"fig3":     Fig3,
	"fig9":     Fig9,
	"fig10a":   Fig10a,
	"fig10bc":  func(w io.Writer, o Options) error { return Fig10bc(w, o, []int{2, 4, 8, 16, 32}) },
	"fig11":    Fig11,
	"fig12":    Fig12,
	"fig13":    Fig13,
	"fig14":    Fig14,
	"bio":      BioExperiment,
	"ablade":   AblationLADE,
	"absape":   AblationSAPE,
	"mqo":      MQO,
	"scale":    Scale,
	"faults":   FaultSweep,
	"chaos":    Chaos,
	"degrade":  DegradeSweep,
	"workload": WorkloadReplay,
	"stats":    StatsReplay,
	"all":      All,
}

// RegistryNames returns the sorted experiment ids.
func RegistryNames() []string {
	var names []string
	for k := range Registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
