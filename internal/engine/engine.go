// Package engine evaluates SPARQL queries (the fragment in
// internal/sparql) over a local triple store. One engine instance runs
// inside every endpoint of the federation, playing the role the paper
// assigns to Jena Fuseki / Virtuoso.
package engine

import (
	"fmt"
	"slices"
	"sort"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Engine evaluates queries over one store.
type Engine struct {
	st *store.Store
}

// New returns an engine over st.
func New(st *store.Store) *Engine { return &Engine{st: st} }

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.st }

// Eval evaluates q and returns its results. The store's read lock is
// held once, for the whole evaluation.
func (e *Engine) Eval(q *sparql.Query) (*sparql.Results, error) {
	v := e.st.View()
	defer v.Release()
	switch q.Form {
	case sparql.AskForm:
		r, where := compile(v, q.Where)
		defer r.release()
		r.evalGroup(where, true, r.hit)
		return sparql.NewAskResult(r.found), nil
	case sparql.SelectForm:
		return evalSelect(v, q), nil
	default:
		return nil, fmt.Errorf("engine: unsupported query form %v", q.Form)
	}
}

func evalSelect(v store.View, q *sparql.Query) *sparql.Results {
	// Fast path for the statistics queries federated engines send
	// constantly: COUNT(*) over one triple pattern with no other
	// operators maps straight onto the store's index sizes.
	if q.Count && q.CountArg == "" && q.Offset == 0 &&
		len(q.Where.Patterns) == 1 && len(q.Where.Filters) == 0 &&
		len(q.Where.Optionals) == 0 && len(q.Where.Unions) == 0 &&
		len(q.Where.Values) == 0 {
		tp := q.Where.Patterns[0]
		if !hasRepeatedVar(tp) {
			n := 0
			s, sok := lookupElem(v, tp.S)
			p, pok := lookupElem(v, tp.P)
			o, ook := lookupElem(v, tp.O)
			if sok && pok && ook {
				n = v.Count(s, p, o)
			}
			return countRows(q, n)
		}
	}
	r, where := compile(v, q.Where)
	defer r.release()
	em := &r.em
	if q.Count {
		em.count, em.slots = true, append(em.slots, -1)
		if q.CountArg != "" {
			if em.slots[0] = r.lookupSlot(q.CountArg); em.slots[0] < 0 {
				return countRows(q, 0)
			}
			em.distinct = q.CountDistinct
		}
		r.evalGroup(where, true, r.emitFn)
		return countRows(q, em.n)
	}
	vars := q.ProjectedVars()
	// ORDER BY keys outside the projection must reach the sort; such
	// rows go through Finalize. Otherwise rows are emitted projected,
	// DISTINCT is decided on ids, and without ORDER BY the OFFSET/LIMIT
	// window stops evaluation early.
	out := vars
	for _, k := range q.OrderBy {
		if r.lookupSlot(k.Var) >= 0 && !slices.Contains(out, k.Var) {
			out = append(out[:len(out):len(out)], k.Var)
		}
	}
	sorted := len(out) > len(vars)
	if !sorted {
		em.distinct = q.Distinct
		if len(q.OrderBy) == 0 {
			em.skip, em.limit = q.Offset, q.Limit
		}
	}
	for _, v := range out {
		em.slots = append(em.slots, r.lookupSlot(v))
	}
	if em.limit != 0 {
		r.evalGroup(where, true, r.emitFn)
	}
	rows := em.decode(out)
	if sorted {
		return Finalize(q, rows)
	}
	if len(q.OrderBy) > 0 {
		orderRows(rows, q.OrderBy)
		rows = window(rows, q.Offset, q.Limit)
	}
	return &sparql.Results{Vars: vars, Rows: rows}
}

func lookupElem(v store.View, el sparql.Elem) (store.ID, bool) {
	if el.IsVar() {
		return store.Any, true
	}
	return v.Lookup(el.Term)
}

// emitter collects solution rows as the ids of its slots, applying
// DISTINCT, OFFSET and LIMIT on ids; decode turns them into bindings
// once evaluation ends, one map per row. A COUNT query only counts.
type emitter struct {
	r           *run
	slots       []int32 // output slots, -1 for a variable never bound
	distinct    bool
	seen        map[string]struct{} // DISTINCT keys
	skip, limit int                 // OFFSET, and LIMIT (-1: none)
	out         []store.ID          // emitted rows, len(slots) wide
	n           int                 // emitted rows
	count       bool                // count rows binding slots[0] (all when -1)
}

func (em *emitter) emit() bool {
	r := em.r
	if em.count && em.slots[0] >= 0 && r.get(em.slots[0]) == store.Any {
		return false
	}
	if em.distinct {
		r.key = r.appendKey(r.key[:0], em.slots)
		if _, dup := em.seen[string(r.key)]; dup {
			return false
		}
		if em.seen == nil {
			em.seen = make(map[string]struct{})
		}
		em.seen[string(r.key)] = struct{}{}
	}
	if em.skip > 0 {
		em.skip--
		return false
	}
	em.n++
	if !em.count {
		for _, s := range em.slots {
			em.out = append(em.out, r.get(s))
		}
	}
	return em.limit >= 0 && em.n >= em.limit
}

// decode turns the emitted rows into bindings of vars.
func (em *emitter) decode(vars []sparql.Var) []sparql.Binding {
	rows := make([]sparql.Binding, em.n)
	w := len(vars)
	for i := range rows {
		b := make(sparql.Binding, w)
		for c, x := range em.out[i*w : i*w+w] {
			if x != store.Any {
				b[vars[c]] = em.r.term(x)
			}
		}
		rows[i] = b
	}
	return rows
}

// window applies OFFSET and LIMIT (-1: none).
func window(rows []sparql.Binding, offset, limit int) []sparql.Binding {
	if offset > 0 {
		if offset >= len(rows) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

// Finalize applies a query's solution modifiers — COUNT, ORDER BY,
// projection, DISTINCT, OFFSET, LIMIT — to a set of solution rows.
// Federated engines share it to post-process globally joined rows.
func Finalize(q *sparql.Query, rows []sparql.Binding) *sparql.Results {
	if q.Count {
		return countResult(q, rows)
	}
	// ORDER BY applies before projection: its keys may reference
	// variables that are not projected.
	if len(q.OrderBy) > 0 {
		orderRows(rows, q.OrderBy)
	}
	vars := q.ProjectedVars()
	res := &sparql.Results{Vars: vars}
	res.Rows = make([]sparql.Binding, 0, len(rows))
	for _, row := range rows {
		nb := make(sparql.Binding, len(vars))
		for _, v := range vars {
			if t, ok := row[v]; ok {
				nb[v] = t
			}
		}
		res.Rows = append(res.Rows, nb)
	}
	if q.Distinct {
		res.Rows = dedupRows(res.Rows, vars)
	}
	res.Rows = window(res.Rows, q.Offset, q.Limit)
	return res
}

func hasRepeatedVar(tp sparql.TriplePattern) bool {
	vars := map[sparql.Var]int{}
	for _, el := range []sparql.Elem{tp.S, tp.P, tp.O} {
		if el.IsVar() {
			vars[el.Var]++
		}
	}
	for _, n := range vars {
		if n > 1 {
			return true
		}
	}
	return false
}

func countResult(q *sparql.Query, rows []sparql.Binding) *sparql.Results {
	n := 0
	if q.CountArg != "" {
		if q.CountDistinct {
			seen := map[rdf.Term]struct{}{}
			for _, row := range rows {
				if t, ok := row[q.CountArg]; ok {
					seen[t] = struct{}{}
				}
			}
			n = len(seen)
		} else {
			for _, row := range rows {
				if _, ok := row[q.CountArg]; ok {
					n++
				}
			}
		}
	} else {
		n = len(rows)
	}
	return countRows(q, n)
}

// countRows is a COUNT query's one-row result.
func countRows(q *sparql.Query, n int) *sparql.Results {
	return &sparql.Results{
		Vars: []sparql.Var{q.CountVar},
		Rows: []sparql.Binding{{q.CountVar: rdf.Integer(int64(n))}},
	}
}

func dedupRows(rows []sparql.Binding, vars []sparql.Var) []sparql.Binding {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0]
	for _, row := range rows {
		k := row.Key(vars)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, row)
	}
	return out
}

func orderRows(rows []sparql.Binding, keys []sparql.OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			a, aok := rows[i][k.Var]
			b, bok := rows[j][k.Var]
			var c int
			switch {
			case !aok && !bok:
				c = 0
			case !aok:
				c = -1 // unbound sorts first
			case !bok:
				c = 1
			default:
				c = a.Compare(b)
			}
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}
