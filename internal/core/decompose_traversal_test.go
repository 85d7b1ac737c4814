package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lusail/internal/cache"
	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// validateDecomposition checks the invariants every decomposition must
// satisfy: full coverage, no conflicting pair inside a subquery, and
// uniform sources per subquery.
func validateDecomposition(t *testing.T, name string, patterns []sparql.TriplePattern, sources [][]int, rep *GJVReport, sqs []*Subquery) {
	t.Helper()
	covered := 0
	seen := map[int]bool{}
	// Random inputs may contain duplicate patterns; match each output
	// pattern to an unconsumed input index.
	patIdx := func(tp sparql.TriplePattern) int {
		for i, p := range patterns {
			if !seen[i] && reflect.DeepEqual(p, tp) {
				return i
			}
		}
		return -1
	}
	for _, sq := range sqs {
		var idxs []int
		for _, tp := range sq.Patterns {
			i := patIdx(tp)
			if i < 0 {
				t.Errorf("%s: pattern %v not matched to an unconsumed input", name, tp)
				continue
			}
			seen[i] = true
			covered++
			idxs = append(idxs, i)
			if !sameIntSlice(sq.Sources, sources[i]) {
				t.Errorf("%s: pattern %d sources %v != subquery sources %v", name, i, sources[i], sq.Sources)
			}
		}
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				if rep.Conflicts[mkPair(idxs[a], idxs[b])] {
					t.Errorf("%s: conflicting pair (%d,%d) co-located", name, idxs[a], idxs[b])
				}
			}
		}
	}
	if covered != len(patterns) {
		t.Errorf("%s: covered %d of %d patterns", name, covered, len(patterns))
	}
}

func TestDecomposeTraversalQa(t *testing.T) {
	rep, patterns, sources, _ := analyzeQa(t)
	sqs := DecomposeTraversal(patterns, sources, rep)
	validateDecomposition(t, "traversal", patterns, sources, rep, sqs)
	// Like Fig. 7, the decomposition has the two GJV-separated
	// singletons and merges what locality allows.
	if len(sqs) < 3 || len(sqs) > 5 {
		t.Errorf("traversal subqueries = %d: %v", len(sqs), sqs)
	}
}

func TestDecomposeTraversalNoGJVs(t *testing.T) {
	eps := uniEndpoints()
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
	}`)
	sel, _ := federationSelect(t, eps, q)
	rep := &GJVReport{GJVs: map[sparql.Var]bool{}, Conflicts: map[pairKey]bool{}}
	sqs := DecomposeTraversal(q.Where.Patterns, sel, rep)
	if len(sqs) != 1 || len(sqs[0].Patterns) != 2 {
		t.Errorf("no-GJV traversal should give one subquery: %v", sqs)
	}
}

func TestDecomposeTraversalConstantOnlyPattern(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { <http://ex/a> <http://ex/p> <http://ex/b> . ?x <http://ex/q> ?y }`)
	rep := &GJVReport{GJVs: map[sparql.Var]bool{}, Conflicts: map[pairKey]bool{}}
	sources := [][]int{{0}, {0}}
	sqs := DecomposeTraversal(q.Where.Patterns, sources, rep)
	validateDecomposition(t, "traversal", q.Where.Patterns, sources, rep, sqs)
}

// TestQuickBothDecomposersValid generates random pattern sets,
// sources, and conflict relations, and checks both decomposers emit
// valid decompositions.
func TestQuickBothDecomposersValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vars := []string{"a", "b", "c", "d", "e"}
		n := 2 + r.Intn(5)
		var patterns []sparql.TriplePattern
		var sources [][]int
		used := map[string]bool{}
		for len(patterns) < n {
			tp := sparql.TriplePattern{
				S: sparql.V(vars[r.Intn(len(vars))]),
				P: sparql.C(testfed.IRI("p" + string(rune('0'+r.Intn(3))))),
				O: sparql.V(vars[r.Intn(len(vars))]),
			}
			// Duplicate patterns in one BGP are degenerate; keep the
			// generated set unique so indexes are unambiguous.
			if used[tp.String()] {
				n--
				continue
			}
			used[tp.String()] = true
			patterns = append(patterns, tp)
			// Source lists drawn from a few shapes.
			switch r.Intn(3) {
			case 0:
				sources = append(sources, []int{0})
			case 1:
				sources = append(sources, []int{0, 1})
			default:
				sources = append(sources, []int{1})
			}
		}
		rep := &GJVReport{GJVs: map[sparql.Var]bool{}, Conflicts: map[pairKey]bool{}}
		// Random conflicts over pattern pairs sharing a variable.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				shared := false
				for _, v := range patterns[i].Vars() {
					if patterns[j].HasVar(v) {
						shared = true
					}
				}
				if shared && r.Intn(3) == 0 {
					rep.Conflicts[mkPair(i, j)] = true
				}
			}
		}
		ok := true
		sub := func(name string, sqs []*Subquery) {
			tt := &testing.T{}
			validateDecomposition(tt, name, patterns, sources, rep, sqs)
			if tt.Failed() {
				ok = false
			}
		}
		sub("fixpoint", Decompose(patterns, sources, rep))
		sub("traversal", DecomposeTraversal(patterns, sources, rep))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLusailTraversalDecomposerMatchesOracle runs the full engine with
// the literal Algorithm 2 and checks correctness.
func TestLusailTraversalDecomposerMatchesOracle(t *testing.T) {
	for _, q := range []string{testfed.Qa, testfed.QaChain} {
		l, locals := newUniLusail(Config{TraversalDecomposer: true})
		assertMatchesUnion(t, l, locals, q)
	}
}

func federationSelect(t *testing.T, eps []endpoint.Endpoint, q *sparql.Query) ([][]int, error) {
	t.Helper()
	sel, err := federation.NewSelector(eps, cache.New[bool](cache.PlanningEntries, 0, nil)).Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return sel.Sources, nil
}

// Quick correctness spot check: traversal decomposition feeds the
// executor identically.
func TestTraversalAndFixpointAgreeOnResults(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	oracle := engine.New(testfed.UnionStore(ep1, ep2))
	for _, q := range []string{testfed.Qa, testfed.QaChain} {
		want, err := oracle.Eval(sparql.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		for _, trav := range []bool{false, true} {
			l := New(eps, Config{TraversalDecomposer: trav})
			got, err := l.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("traversal=%v: %v", trav, err)
			}
			if !reflect.DeepEqual(testfed.Canon(got), testfed.Canon(want)) {
				t.Errorf("traversal=%v differs from oracle on %q", trav, q)
			}
		}
	}
}
