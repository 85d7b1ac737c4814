package engine

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

func symRows(v sparql.Var, pre string, n int, extra sparql.Var) []sparql.Binding {
	out := make([]sparql.Binding, n)
	for i := range out {
		out[i] = sparql.Binding{
			v:     rdf.IRI(fmt.Sprintf("http://ex/%s%d", pre, i)),
			extra: rdf.Literal(fmt.Sprintf("%s-extra-%d", pre, i)),
		}
	}
	return out
}

// joinRows is the reference join: every compatible pair, merged.
func joinRows(left, right []sparql.Binding) []sparql.Binding {
	var out []sparql.Binding
	for _, l := range left {
		for _, r := range right {
			if l.Compatible(r) {
				out = append(out, l.Merge(r))
			}
		}
	}
	return out
}

func symCanon(rows []sparql.Binding, vars []sparql.Var) []string {
	out := sparql.KeyColumn(rows, vars)
	sort.Strings(out)
	return out
}

// TestSymmetricJoinMatchesJoinRows: pushing both sides in arbitrary
// chunked interleavings must produce exactly the one-shot join's
// multiset.
func TestSymmetricJoinMatchesJoinRows(t *testing.T) {
	leftVars := []sparql.Var{"s", "l"}
	rightVars := []sparql.Var{"s", "r"}
	var left, right []sparql.Binding
	for i := 0; i < 40; i++ {
		left = append(left, sparql.Binding{
			"s": rdf.IRI(fmt.Sprintf("http://ex/s%d", i%10)),
			"l": rdf.Literal(fmt.Sprintf("l%d", i)),
		})
	}
	for i := 0; i < 30; i++ {
		right = append(right, sparql.Binding{
			"s": rdf.IRI(fmt.Sprintf("http://ex/s%d", i%15)),
			"r": rdf.Literal(fmt.Sprintf("r%d", i)),
		})
	}
	want := joinRows(left, right)

	j := NewSymmetricJoin(leftVars, rightVars)
	var got []sparql.Binding
	// Interleave pushes in chunks of 7 / 5.
	li, ri := 0, 0
	for li < len(left) || ri < len(right) {
		if li < len(left) {
			end := li + 7
			if end > len(left) {
				end = len(left)
			}
			got = append(got, j.PushLeft(left[li:end])...)
			li = end
		}
		if ri < len(right) {
			end := ri + 5
			if end > len(right) {
				end = len(right)
			}
			got = append(got, j.PushRight(right[ri:end])...)
			ri = end
		}
	}
	allVars := []sparql.Var{"s", "l", "r"}
	if !reflect.DeepEqual(symCanon(got, allVars), symCanon(want, allVars)) {
		t.Errorf("symmetric join differs from one-shot join: got %d rows, want %d",
			len(got), len(want))
	}
}

// TestSymmetricJoinConcurrentProducers: independent goroutines pushing
// the two inputs concurrently (the streaming executor's collector and
// emit loop) must race-cleanly produce the one-shot join's multiset.
// Run under -race (make stream-smoke / CI).
func TestSymmetricJoinConcurrentProducers(t *testing.T) {
	var left, right []sparql.Binding
	for i := 0; i < 200; i++ {
		left = append(left, sparql.Binding{
			"k": rdf.IRI(fmt.Sprintf("http://ex/k%d", i%20)),
			"l": rdf.Literal(fmt.Sprintf("l%d", i)),
		})
		right = append(right, sparql.Binding{
			"k": rdf.IRI(fmt.Sprintf("http://ex/k%d", i%25)),
			"r": rdf.Literal(fmt.Sprintf("r%d", i)),
		})
	}
	want := joinRows(left, right)

	j := NewSymmetricJoin([]sparql.Var{"k", "l"}, []sparql.Var{"k", "r"})
	var mu sync.Mutex
	var got []sparql.Binding
	var wg sync.WaitGroup
	push := func(rows []sparql.Binding, fromRight bool) {
		defer wg.Done()
		for i := 0; i < len(rows); i += 17 {
			end := i + 17
			if end > len(rows) {
				end = len(rows)
			}
			var out []sparql.Binding
			if fromRight {
				out = j.PushRight(rows[i:end])
			} else {
				out = j.PushLeft(rows[i:end])
			}
			mu.Lock()
			got = append(got, out...)
			mu.Unlock()
		}
	}
	wg.Add(2)
	go push(left, false)
	go push(right, true)
	wg.Wait()

	allVars := []sparql.Var{"k", "l", "r"}
	if !reflect.DeepEqual(symCanon(got, allVars), symCanon(want, allVars)) {
		t.Errorf("concurrent symmetric join differs: got %d rows, want %d",
			len(got), len(want))
	}
}

// TestSymmetricJoinPureProbeAllocs: after CloseLeft, a right push whose
// rows match nothing must not allocate — probes render keys into a
// pooled scratch buffer and, with the opposite side closed, are not
// retained. This is the property keeping per-chunk streaming as cheap
// as the one-shot hash join it replaces.
func TestSymmetricJoinPureProbeAllocs(t *testing.T) {
	j := NewSymmetricJoin([]sparql.Var{"s", "l"}, []sparql.Var{"s", "r"})
	j.PushLeft(symRows("s", "build", 64, "l"))
	j.CloseLeft()
	probe := symRows("s", "miss", 8, "r") // distinct prefix: no matches
	if got := testing.AllocsPerRun(100, func() {
		j.PushRight(probe)
	}); got != 0 {
		t.Errorf("pure-probe PushRight allocations = %v, want 0", got)
	}
}

// TestSymmetricJoinInsertStopsAfterClose: rows pushed after the other
// side closed are not retained (no unbounded growth on the streaming
// side).
func TestSymmetricJoinInsertStopsAfterClose(t *testing.T) {
	j := NewSymmetricJoin([]sparql.Var{"s", "l"}, []sparql.Var{"s", "r"})
	j.PushLeft(symRows("s", "a", 4, "l"))
	j.CloseLeft()
	j.PushRight(symRows("s", "a", 4, "r"))
	if n := len(j.right.idx); n != 0 {
		t.Errorf("right side retained %d buckets after CloseLeft, want 0", n)
	}
}
