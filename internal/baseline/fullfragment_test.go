package baseline_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lusail/internal/baseline/fedx"
	"lusail/internal/baseline/hibiscus"
	"lusail/internal/baseline/splendid"
	"lusail/internal/cache"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// randomFullQuery builds a query over preds p0..p2 exercising the full
// supported fragment: a connected BGP, optionally an OPTIONAL group, a
// UNION block, a FILTER, and DISTINCT.
func randomFullQuery(r *rand.Rand) string {
	vars := []string{"a", "b", "c", "d", "e", "f"}
	next := 1
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if r.Intn(4) == 0 {
		sb.WriteString("DISTINCT ")
	}
	sb.WriteString("* WHERE {\n")
	// Base BGP: 1-2 connected patterns.
	base := 1 + r.Intn(2)
	for i := 0; i < base; i++ {
		s := vars[r.Intn(next)]
		o := vars[next]
		next++
		fmt.Fprintf(&sb, "?%s <http://ex/p%d> ?%s .\n", s, r.Intn(3), o)
	}
	// OPTIONAL sharing a bound variable.
	if r.Intn(2) == 0 {
		s := vars[r.Intn(next)]
		o := vars[next]
		next++
		fmt.Fprintf(&sb, "OPTIONAL { ?%s <http://ex/p%d> ?%s . }\n", s, r.Intn(3), o)
	}
	// UNION over two predicates.
	if r.Intn(2) == 0 {
		s := vars[r.Intn(next)]
		o := vars[next]
		next++
		fmt.Fprintf(&sb, "{ ?%s <http://ex/p0> ?%s } UNION { ?%s <http://ex/p1> ?%s }\n", s, o, s, o)
	}
	// FILTER over bound variables.
	switch r.Intn(3) {
	case 0:
		v := vars[r.Intn(next)]
		fmt.Fprintf(&sb, "FILTER (STRSTARTS(STR(?%s), \"http://ex/e0\"))\n", v)
	case 1:
		a, b := vars[r.Intn(next)], vars[r.Intn(next)]
		fmt.Fprintf(&sb, "FILTER (?%s != ?%s)\n", a, b)
	}
	sb.WriteString("}")
	return sb.String()
}

// TestQuickFullFragmentAllEngines is the repository's broadest
// correctness property: randomized federations and randomized queries
// over the full supported fragment, across every engine and Lusail
// configuration (streamed and materialized, cold and warm-cached),
// must match the union-graph oracle exactly.
func TestQuickFullFragmentAllEngines(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nEP := 2 + r.Intn(2)
		locals := make([]*endpoint.Local, nEP)
		for e := 0; e < nEP; e++ {
			st := store.New()
			for i := 0; i < 12+r.Intn(12); i++ {
				s := testfed.IRI(fmt.Sprintf("e%d_%d", e, r.Intn(5)))
				p := testfed.IRI(fmt.Sprintf("p%d", r.Intn(3)))
				var o rdf.Term
				if r.Intn(3) == 0 {
					o = testfed.IRI(fmt.Sprintf("e%d_%d", r.Intn(nEP), r.Intn(5)))
				} else {
					o = testfed.IRI(fmt.Sprintf("e%d_%d", e, r.Intn(5)))
				}
				st.Add(rdf.T(s, p, o))
			}
			locals[e] = endpoint.NewLocal(fmt.Sprintf("ep%d", e), st)
		}
		eps := make([]endpoint.Endpoint, nEP)
		for i := range locals {
			eps[i] = locals[i]
		}
		query := randomFullQuery(r)
		parsed, err := sparql.Parse(query)
		if err != nil {
			t.Logf("seed %d: generator produced invalid query: %v\n%s", seed, err, query)
			return false
		}
		want, err := engine.New(testfed.UnionStore(locals...)).Eval(parsed)
		if err != nil {
			t.Logf("seed %d oracle: %v", seed, err)
			return false
		}
		cw := testfed.Canon(want)

		idx, err := splendid.BuildIndex(eps)
		if err != nil {
			return false
		}
		sum, err := hibiscus.BuildSummary(eps)
		if err != nil {
			return false
		}
		check := func(name string, got *sparql.Results, err error) bool {
			if err != nil {
				t.Logf("seed %d engine %s: %v\n%s", seed, name, err, query)
				return false
			}
			if cg := testfed.Canon(got); !reflect.DeepEqual(cg, cw) {
				t.Logf("seed %d engine %s mismatch (%d vs %d rows)\n%s",
					seed, name, len(cg), len(cw), query)
				return false
			}
			return true
		}
		// Every Lusail configuration runs through both entry points:
		// Execute, and ExecuteStream drained into one multiset. The
		// cached, re-planning configuration runs cold and then warm,
		// its repeat served from the subquery cache.
		lusails := []core.Config{
			{},
			{TraversalDecomposer: true, DelayPolicy: core.DelayAll, BindBlockSize: 3},
			{AssumeAllGlobal: true, DelayPolicy: core.DelayNone},
			{SubqueryCacheSize: 8, ReplanOvershoot: 2},
		}
		for i, cfg := range lusails {
			l := core.New(eps, cfg)
			runs := 1
			if cfg.SubqueryCacheSize > 0 {
				runs = 2
			}
			for run := 0; run < runs; run++ {
				name := fmt.Sprintf("lusail#%d run %d", i, run)
				got, err := l.Execute(context.Background(), query)
				if !check(name, got, err) {
					return false
				}
				var rows []sparql.Binding
				res, _, err := l.ExecuteStream(context.Background(), query,
					func(_ []sparql.Var, chunk []sparql.Binding) error {
						rows = append(rows, chunk...)
						return nil
					})
				if err == nil {
					res = &sparql.Results{Vars: res.Vars, Rows: rows}
				}
				if !check(name+" stream", res, err) {
					return false
				}
			}
		}
		engines := []federation.Engine{
			fedx.New(eps, fedx.Config{BoundBlockSize: 4}),
			splendid.New(eps, idx, splendid.Config{BindBlockSize: 3}),
			hibiscus.New(eps, sum, fedx.Config{}),
			federation.NewNaive(eps, cache.New[bool](cache.PlanningEntries, 0, nil)),
		}
		for _, eng := range engines {
			got, err := eng.Execute(context.Background(), query)
			if !check(eng.Name(), got, err) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
