package lusail

// Benchmarks mirroring the paper's evaluation: one benchmark family
// per table/figure (see EXPERIMENTS.md for the mapping). Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the machine; the shapes to look for are
// the ones the paper reports — e.g. BenchmarkFig12 shows Lusail
// beating FedX by orders of magnitude on LUBM Q1/Q2/Q4, and
// BenchmarkFig3 shows FedX cost growing superlinearly with the
// endpoint count.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lusail/internal/benchdata/bio"
	"lusail/internal/benchdata/largerdf"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/benchdata/qfed"
	"lusail/internal/cache"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/experiments"
	"lusail/internal/federation"
)

func benchOpts() experiments.Options {
	return experiments.Options{Scale: 1, Timeout: 5 * time.Minute, Runs: 1}
}

// benchEngine builds the engine once, warms caches once, then times
// repeated executions.
func benchEngine(b *testing.B, engineName string, f *experiments.Federation, query string) {
	b.Helper()
	eng, err := experiments.BuildEngine(engineName, f)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Execute(ctx, query); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	endpoint.ResetAll(f.Endpoints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(ctx, query); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := endpoint.TotalStats(f.Endpoints)
	b.ReportMetric(float64(st.Requests)/float64(b.N), "requests/op")
	b.ReportMetric(float64(st.Rows)/float64(b.N), "rows-shipped/op")
}

// BenchmarkTable1 measures the dataset generators (Table I).
func BenchmarkTable1_Generators(b *testing.B) {
	b.Run("LUBM-4univ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lubm.Generate(lubm.DefaultConfig(4))
		}
	})
	b.Run("QFed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qfed.Generate(qfed.DefaultConfig())
		}
	})
	b.Run("LargeRDFBench", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			largerdf.Generate(largerdf.DefaultConfig())
		}
	})
}

// BenchmarkPreprocessing measures SPLENDID's index build (§VI-A);
// Lusail and FedX need none.
func BenchmarkPreprocessing_SplendidIndex(b *testing.B) {
	f := experiments.LargeRDF(benchOpts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BuildEngine("splendid", f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 sweeps FedX over growing LUBM federations; the
// requests/op metric reproduces the figure's request curve.
func BenchmarkFig3_FedX_LUBMQ2(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("endpoints-%d", n), func(b *testing.B) {
			benchEngine(b, "fedx", experiments.LUBM(n, benchOpts()), lubm.Q2)
		})
	}
}

// BenchmarkFig9 sweeps the delayed-subquery threshold policies over
// one representative query per LargeRDFBench category.
func BenchmarkFig9_DelayPolicies(b *testing.B) {
	f := experiments.LargeRDF(benchOpts())
	queries := map[string]string{
		"S13": largerdf.SimpleQueries["S13"],
		"C7":  largerdf.ComplexQueries["C7"],
		"B1":  largerdf.LargeQueries["B1"],
	}
	for _, pol := range []core.DelayPolicy{core.DelayMu, core.DelayMuSigma, core.DelayMu2Sigma, core.DelayOutliersOnly} {
		for _, qname := range []string{"S13", "C7", "B1"} {
			b.Run(pol.String()+"/"+qname, func(b *testing.B) {
				eng := core.New(f.Endpoints, core.Config{DelayPolicy: pol})
				benchLusail(b, eng, f, queries[qname])
			})
		}
	}
}

func benchLusail(b *testing.B, eng federation.Engine, f *experiments.Federation, query string) {
	b.Helper()
	ctx := context.Background()
	if _, err := eng.Execute(ctx, query); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	endpoint.ResetAll(f.Endpoints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(ctx, query); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := endpoint.TotalStats(f.Endpoints)
	b.ReportMetric(float64(st.Requests)/float64(b.N), "requests/op")
}

// BenchmarkFig10a profiles Lusail's phases on S10, C4, B1.
func BenchmarkFig10a_Profile(b *testing.B) {
	f := experiments.LargeRDF(benchOpts())
	queries := map[string]string{
		"S10": largerdf.SimpleQueries["S10"],
		"C4":  largerdf.ComplexQueries["C4"],
		"B1":  largerdf.LargeQueries["B1"],
	}
	for _, qname := range []string{"S10", "C4", "B1"} {
		b.Run(qname, func(b *testing.B) {
			eng := core.New(f.Endpoints, core.Config{})
			benchLusail(b, eng, f, queries[qname])
		})
	}
}

// BenchmarkFig10bc scales the LUBM federation for Q3/Q4, with cached
// and cold analysis.
func BenchmarkFig10bc_LUBMScale(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		f := experiments.LUBM(n, benchOpts())
		for _, qname := range []string{"Q3", "Q4"} {
			b.Run(fmt.Sprintf("%s/endpoints-%d/cached", qname, n), func(b *testing.B) {
				eng := core.New(f.Endpoints, core.Config{})
				benchLusail(b, eng, f, lubm.Queries[qname])
			})
			b.Run(fmt.Sprintf("%s/endpoints-%d/no-cache", qname, n), func(b *testing.B) {
				eng := core.New(f.Endpoints, core.Config{Caching: cache.Off})
				benchLusail(b, eng, f, lubm.Queries[qname])
			})
		}
	}
}

// BenchmarkFig11 compares all engines on representative QFed queries
// (base, big-literal, and the most decorated variant).
func BenchmarkFig11_QFed(b *testing.B) {
	f := experiments.QFed(benchOpts())
	for _, ename := range experiments.EngineNames {
		for _, qname := range []string{"C2P2", "C2P2B", "C2P2BOF", "Drug"} {
			b.Run(ename+"/"+qname, func(b *testing.B) {
				benchEngine(b, ename, f, qfed.Queries[qname])
			})
		}
	}
}

// BenchmarkFig12 compares all engines on LUBM Q1-Q4 over 2 and 4
// endpoints.
func BenchmarkFig12_LUBM(b *testing.B) {
	for _, n := range []int{2, 4} {
		f := experiments.LUBM(n, benchOpts())
		for _, ename := range experiments.EngineNames {
			for _, qname := range []string{"Q1", "Q2", "Q3", "Q4"} {
				b.Run(fmt.Sprintf("%s/%s/endpoints-%d", ename, qname, n), func(b *testing.B) {
					benchEngine(b, ename, f, lubm.Queries[qname])
				})
			}
		}
	}
}

// BenchmarkFig13 compares all engines on one representative
// LargeRDFBench query per category (B8 through FedX runs tens of
// seconds per op; the full sweep lives in cmd/lusail-bench -exp fig13).
func BenchmarkFig13_LargeRDF(b *testing.B) {
	f := experiments.LargeRDF(benchOpts())
	queries := map[string]string{
		"S10": largerdf.SimpleQueries["S10"],
		"C9":  largerdf.ComplexQueries["C9"],
		"B2":  largerdf.LargeQueries["B2"],
	}
	for _, ename := range experiments.EngineNames {
		for _, qname := range []string{"S10", "C9", "B2"} {
			b.Run(ename+"/"+qname, func(b *testing.B) {
				benchEngine(b, ename, f, queries[qname])
			})
		}
	}
}

// BenchmarkFig14 adds simulated WAN latency; requests dominate, so the
// request-heavy engines degrade disproportionately. A scaled-down RTT
// keeps iterations fast while preserving the shape.
func BenchmarkFig14_WAN(b *testing.B) {
	opts := benchOpts()
	opts.Network = endpoint.NetworkProfile{RTT: 2 * time.Millisecond, BytesPerSecond: 50_000_000}
	f := experiments.LargeRDF(opts)
	for _, ename := range []string{"lusail", "fedx"} {
		for _, qname := range []string{"C9", "B2"} {
			query := largerdf.ComplexQueries[qname]
			if query == "" {
				query = largerdf.LargeQueries[qname]
			}
			b.Run(ename+"/"+qname, func(b *testing.B) {
				benchEngine(b, ename, f, query)
			})
		}
	}
}

// BenchmarkBio runs the Bio2RDF-shaped R queries (§VI-D).
func BenchmarkBio_R123(b *testing.B) {
	f := experiments.Bio(benchOpts())
	for _, qname := range []string{"R1", "R2", "R3"} {
		b.Run(qname, func(b *testing.B) {
			eng := core.New(f.Endpoints, core.Config{})
			benchLusail(b, eng, f, bio.Queries[qname])
		})
	}
}

// BenchmarkAblationLADE isolates locality-aware decomposition: the
// same engine with check queries disabled degenerates to one pattern
// per subquery.
func BenchmarkAblationLADE(b *testing.B) {
	f := experiments.LUBM(4, benchOpts())
	for _, mode := range []string{"lusail", "lusail-ablade"} {
		b.Run(mode+"/Q2", func(b *testing.B) {
			benchEngine(b, mode, f, lubm.Q2)
		})
	}
}

// BenchmarkAblationSAPE isolates the delay heuristic against
// fully-concurrent and fully-bound execution.
func BenchmarkAblationSAPE(b *testing.B) {
	f := experiments.LargeRDF(benchOpts())
	for _, pol := range []core.DelayPolicy{core.DelayMuSigma, core.DelayNone, core.DelayAll} {
		b.Run(pol.String()+"/C7", func(b *testing.B) {
			eng := core.New(f.Endpoints, core.Config{DelayPolicy: pol})
			benchLusail(b, eng, f, largerdf.ComplexQueries["C7"])
		})
	}
}
