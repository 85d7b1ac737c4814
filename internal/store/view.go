package store

import (
	"math"

	"lusail/internal/rdf"
)

// ID is a dictionary-encoded term: ids 0 … NumTerms()-1 name the terms
// the store has interned. A query engine may number terms the store
// has never seen from NumTerms() upwards; such ids match no triple.
type ID = uint32

// Any is the wildcard ID for a pattern position.
const Any ID = math.MaxUint32

// View is a read view of a store: it holds the store's read lock from
// Store.View until Release, and its methods run without taking any
// further lock. Writers wait while a view is open. A goroutine must
// not open a second view (or call any other locking Store method)
// while it holds one: a writer queued between the two read locks
// would wait for the first, and the second for the writer.
type View struct{ st *Store }

// View takes the store's read lock and returns a view over it. The
// caller must Release the view.
func (st *Store) View() View {
	st.mu.RLock()
	return View{st}
}

// Release drops the view's read lock. The view must not be used
// afterwards.
func (v View) Release() { v.st.mu.RUnlock() }

// NumTerms returns the size of the dictionary: every interned term's
// ID is below it.
func (v View) NumTerms() int { return len(v.st.terms) }

// Lookup returns the ID of t and whether the store has interned it.
func (v View) Lookup(t rdf.Term) (ID, bool) {
	i, ok := v.st.dict[t]
	return i, ok
}

// lookupPattern maps a term-space pattern position to an ID: the zero
// Term is Any, an unknown term reports false.
func (v View) lookupPattern(t rdf.Term) (ID, bool) {
	if t.IsZero() {
		return Any, true
	}
	return v.Lookup(t)
}

// Term decodes an interned ID.
func (v View) Term(i ID) rdf.Term { return v.st.terms[i] }

// Count returns the number of triples matching the pattern (Any is a
// wildcard). Patterns with one bound position are answered from index
// sizes.
func (v View) Count(s, p, o ID) int {
	st := v.st
	switch {
	case s == Any && p == Any && o == Any:
		return len(st.set)
	case s == Any && o == Any:
		return len(st.pIdx[p])
	case p == Any && o == Any:
		return len(st.sIdx[s])
	case s == Any && p == Any:
		return len(st.oIdx[o])
	}
	return v.scanCount(s, p, o)
}

func (v View) scanCount(s, p, o ID) int {
	n := 0
	for it := v.Match(s, p, o); ; n++ {
		if _, _, _, ok := it.Next(); !ok {
			return n
		}
	}
}

// Estimate returns an upper bound on the number of triples matching
// the pattern from index sizes alone; it never scans.
func (v View) Estimate(s, p, o ID) int {
	st := v.st
	est := len(st.set)
	if s != Any && len(st.sIdx[s]) < est {
		est = len(st.sIdx[s])
	}
	if p != Any && len(st.pIdx[p]) < est {
		est = len(st.pIdx[p])
	}
	if o != Any && len(st.oIdx[o]) < est {
		est = len(st.oIdx[o])
	}
	return est
}

// Match returns an iterator over the triples matching the pattern
// (Any is a wildcard). It reads the smallest applicable posting list;
// a fully bound pattern is one set lookup.
func (v View) Match(s, p, o ID) Iter {
	st := v.st
	it := Iter{triples: st.triples, s: s, p: p, o: o}
	switch {
	case s != Any && p != Any && o != Any:
		_, it.one = st.set[encTriple{s, p, o}]
	case s != Any && o != Any:
		a, b := st.sIdx[s], st.oIdx[o]
		if len(a) <= len(b) {
			it.list = a
		} else {
			it.list = b
		}
	case s != Any:
		it.list = st.sIdx[s]
	case o != Any:
		it.list = st.oIdx[o]
	case p != Any:
		it.list = st.pIdx[p]
	default:
		it.scan, it.dead = true, st.dead
	}
	return it
}

// Iter walks the triples matching one pattern. The zero Iter is empty.
type Iter struct {
	triples []encTriple
	list    []int32
	dead    map[int32]struct{} // set on a full scan, which skips removed slots
	scan    bool
	one     bool // a fully bound pattern that is present
	i       int
	s, p, o ID
}

// Next returns the next matching triple, or ok == false when there is
// none.
func (it *Iter) Next() (s, p, o ID, ok bool) {
	if it.one {
		it.one = false
		return it.s, it.p, it.o, true
	}
	if it.scan {
		for it.i < len(it.triples) {
			pos := it.i
			it.i++
			if _, gone := it.dead[int32(pos)]; !gone {
				et := it.triples[pos]
				return et.s, et.p, et.o, true
			}
		}
		return 0, 0, 0, false
	}
	for it.i < len(it.list) {
		et := it.triples[it.list[it.i]]
		it.i++
		if (it.s == Any || et.s == it.s) && (it.p == Any || et.p == it.p) && (it.o == Any || et.o == it.o) {
			return et.s, et.p, et.o, true
		}
	}
	return 0, 0, 0, false
}
