// Package store implements the in-memory indexed triple store that
// backs every SPARQL endpoint in the federation. Terms are dictionary
// encoded to 32-bit ids; subject, predicate, and object posting lists
// support all eight triple-pattern access paths.
package store

import (
	"sort"
	"sync"

	"lusail/internal/rdf"
)

type encTriple struct{ s, p, o ID }

// Store is an in-memory RDF dataset with SPO indexes and per-predicate
// statistics. It is safe for concurrent use; writes take an exclusive
// lock, reads a shared lock.
//
// Read locks are never nested. sync.RWMutex blocks new readers once a
// writer waits, so a goroutine that took a second read lock while
// holding one would deadlock against a writer (Add, Remove, churn)
// queued between the two. Every method takes the lock at most once and
// calls no other locking method while holding it; a query engine opens
// one View for a whole evaluation and reads through it alone.
type Store struct {
	mu    sync.RWMutex
	dict  map[rdf.Term]ID
	terms []rdf.Term

	triples []encTriple
	set     map[encTriple]int32 // triple -> position in triples
	dead    map[int32]struct{}  // removed positions (slots stay, lists don't)

	sIdx map[ID][]int32 // subject -> triple positions
	pIdx map[ID][]int32 // predicate -> triple positions
	oIdx map[ID][]int32 // object -> triple positions

	// statsOnce guards the lazily computed VoID-style statistics used
	// by SPLENDID-like baselines.
	statsMu sync.Mutex
	stats   map[ID]*PredicateStats
}

// PredicateStats summarizes one predicate, in the spirit of VoID
// descriptions used by index-based federators.
type PredicateStats struct {
	Predicate        rdf.Term
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
}

// New returns an empty store.
func New() *Store {
	return &Store{
		dict: make(map[rdf.Term]ID),
		set:  make(map[encTriple]int32),
		dead: make(map[int32]struct{}),
		sIdx: make(map[ID][]int32),
		pIdx: make(map[ID][]int32),
		oIdx: make(map[ID][]int32),
	}
}

// FromGraph builds a store from a graph.
func FromGraph(g rdf.Graph) *Store {
	st := New()
	st.AddGraph(g)
	return st
}

func (st *Store) intern(t rdf.Term) ID {
	if i, ok := st.dict[t]; ok {
		return i
	}
	i := ID(len(st.terms))
	st.dict[t] = i
	st.terms = append(st.terms, t)
	return i
}

// Add inserts a triple; duplicates are ignored.
func (st *Store) Add(t rdf.Triple) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.addLocked(t)
}

// AddGraph inserts all triples of g.
func (st *Store) AddGraph(g rdf.Graph) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, t := range g {
		st.addLocked(t)
	}
}

func (st *Store) addLocked(t rdf.Triple) {
	et := encTriple{st.intern(t.S), st.intern(t.P), st.intern(t.O)}
	if _, dup := st.set[et]; dup {
		return
	}
	pos := int32(len(st.triples))
	st.triples = append(st.triples, et)
	st.set[et] = pos
	st.sIdx[et.s] = append(st.sIdx[et.s], pos)
	st.pIdx[et.p] = append(st.pIdx[et.p], pos)
	st.oIdx[et.o] = append(st.oIdx[et.o], pos)
	st.statsMu.Lock()
	st.stats = nil // invalidate cached statistics
	st.statsMu.Unlock()
}

// Remove deletes a triple; absent triples are ignored. The reverse of
// Add, so endpoints whose data churns mid-run (insert/delete batches)
// stay queryable without a rebuild. Reports whether the triple was
// present.
func (st *Store) Remove(t rdf.Triple) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.removeLocked(t)
}

// RemoveGraph deletes all triples of g, reporting how many were
// present.
func (st *Store) RemoveGraph(g rdf.Graph) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, t := range g {
		if st.removeLocked(t) {
			n++
		}
	}
	return n
}

func (st *Store) removeLocked(t rdf.Triple) bool {
	s, ok := st.dict[t.S]
	if !ok {
		return false
	}
	p, ok := st.dict[t.P]
	if !ok {
		return false
	}
	o, ok := st.dict[t.O]
	if !ok {
		return false
	}
	et := encTriple{s, p, o}
	pos, ok := st.set[et]
	if !ok {
		return false
	}
	delete(st.set, et)
	// The slot in triples stays (other positions would shift otherwise);
	// the posting lists and the dead set are the source of truth.
	st.dead[pos] = struct{}{}
	st.sIdx[et.s] = removePos(st.sIdx[et.s], pos)
	st.pIdx[et.p] = removePos(st.pIdx[et.p], pos)
	st.oIdx[et.o] = removePos(st.oIdx[et.o], pos)
	if len(st.pIdx[et.p]) == 0 {
		delete(st.pIdx, et.p) // Predicates() must not list extinct predicates
	}
	st.statsMu.Lock()
	st.stats = nil // invalidate cached statistics
	st.statsMu.Unlock()
	return true
}

// removePos drops one position from a posting list, preserving order.
func removePos(list []int32, pos int32) []int32 {
	for i, p := range list {
		if p == pos {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Len returns the number of distinct triples.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.set)
}

// Contains reports membership of an exact triple.
func (st *Store) Contains(t rdf.Triple) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.dict[t.S]
	if !ok {
		return false
	}
	p, ok := st.dict[t.P]
	if !ok {
		return false
	}
	o, ok := st.dict[t.O]
	if !ok {
		return false
	}
	_, ok = st.set[encTriple{s, p, o}]
	return ok
}

func (st *Store) decode(et encTriple) rdf.Triple {
	return rdf.Triple{S: st.terms[et.s], P: st.terms[et.p], O: st.terms[et.o]}
}

// CountMatch counts the triples matching the pattern, where a zero
// Term is a wildcard.
func (st *Store) CountMatch(s, p, o rdf.Term) int {
	v := st.View()
	defer v.Release()
	si, sok := v.lookupPattern(s)
	pi, pok := v.lookupPattern(p)
	oi, ook := v.lookupPattern(o)
	if !sok || !pok || !ook {
		return 0
	}
	return v.Count(si, pi, oi)
}

// Predicates returns all distinct predicates in deterministic order.
func (st *Store) Predicates() []rdf.Term {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]rdf.Term, 0, len(st.pIdx))
	for pid := range st.pIdx {
		out = append(out, st.terms[pid])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// PredicateStats returns VoID-style statistics for predicate p, or nil
// when the predicate does not occur.
func (st *Store) PredicateStats(p rdf.Term) *PredicateStats {
	st.buildStats()
	st.mu.RLock()
	defer st.mu.RUnlock()
	pid, ok := st.dict[p]
	if !ok {
		return nil
	}
	st.statsMu.Lock()
	defer st.statsMu.Unlock()
	return st.stats[pid]
}

// AllPredicateStats returns statistics for every predicate.
func (st *Store) AllPredicateStats() []*PredicateStats {
	st.buildStats()
	st.statsMu.Lock()
	defer st.statsMu.Unlock()
	out := make([]*PredicateStats, 0, len(st.stats))
	for _, ps := range st.stats {
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Predicate.Compare(out[j].Predicate) < 0
	})
	return out
}

func (st *Store) buildStats() {
	st.statsMu.Lock()
	built := st.stats != nil
	st.statsMu.Unlock()
	if built {
		return
	}
	st.mu.RLock()
	stats := make(map[ID]*PredicateStats, len(st.pIdx))
	for pid, list := range st.pIdx {
		subj := make(map[ID]struct{})
		obj := make(map[ID]struct{})
		for _, pos := range list {
			et := st.triples[pos]
			subj[et.s] = struct{}{}
			obj[et.o] = struct{}{}
		}
		stats[pid] = &PredicateStats{
			Predicate:        st.terms[pid],
			Triples:          len(list),
			DistinctSubjects: len(subj),
			DistinctObjects:  len(obj),
		}
	}
	st.mu.RUnlock()
	st.statsMu.Lock()
	if st.stats == nil {
		st.stats = stats
	}
	st.statsMu.Unlock()
}

// SubjectAuthorities returns the set of IRI authorities appearing in
// subject position for predicate p; HiBISCuS-style summaries use it to
// prune sources. Objects returns the object-side set when objects is
// true.
func (st *Store) Authorities(p rdf.Term, objects bool) map[string]struct{} {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make(map[string]struct{})
	pid, ok := st.dict[p]
	if !ok {
		return out
	}
	for _, pos := range st.pIdx[pid] {
		et := st.triples[pos]
		var t rdf.Term
		if objects {
			t = st.terms[et.o]
		} else {
			t = st.terms[et.s]
		}
		if a := t.Authority(); a != "" {
			out[a] = struct{}{}
		}
	}
	return out
}

// Triples returns a copy of all triples; intended for tests and small
// stores.
func (st *Store) Triples() rdf.Graph {
	st.mu.RLock()
	defer st.mu.RUnlock()
	g := make(rdf.Graph, 0, len(st.set))
	for pos, et := range st.triples {
		if _, gone := st.dead[int32(pos)]; gone {
			continue
		}
		g = append(g, st.decode(et))
	}
	return g
}
