package engine

import (
	"slices"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// A query compiles, under the evaluation's store view, into groups over
// slots: each variable of the query becomes an index into one mutable
// row of store ids, each constant and VALUES term an id. Terms the
// store has never interned get ids from View.NumTerms() upwards; they
// match no triple but join, compare and decode like any other id.

// elem is one compiled triple-pattern position.
type elem struct {
	slot int32    // the variable's slot, or -1 for a constant
	id   store.ID // the constant's id
}

// pattern is a compiled triple pattern.
type pattern struct {
	pos [3]elem // S, P, O
	est int     // match estimate from the constants alone
}

// valuesBlock is a compiled VALUES block: n rows of len(slots) ids,
// row-major, with store.Any for UNDEF.
type valuesBlock struct {
	slots []int32
	rows  []store.ID
	n     int
}

// filter is a compiled FILTER expression.
type filter struct {
	expr   sparql.Expr
	slots  []int32  // variables it reads outside EXISTS
	exists []*group // the EXISTS groups it contains
}

// join is a UNION block or an OPTIONAL group. Its groups are evaluated
// once per query, independently of the outer rows, and their rows are
// then joined to each outer row.
type join struct {
	groups   []*group // the union's alternatives, or the optional group
	optional bool
	slots    []int32 // variables a right-hand row can bind
	certain  []int32 // variables every right-hand row binds
	key      []int32 // variables certainly bound on both sides

	rows    []store.ID // materialized right-hand rows, len(slots) wide
	n       int
	all     []int32            // every row index, probed when key is empty
	index   map[string][]int32 // row indices by key
	collect func() bool        // appends the run's row to rows
}

// group is a compiled group graph pattern, evaluated in stages: VALUES
// rows seed an index nested-loop join over the patterns, whose rows
// join each union, left-join each optional and pass the filters.
type group struct {
	pats     []pattern // in evaluation order, set per evaluation
	values   []valuesBlock
	unions   []*join
	opts     []*join
	filters  []filter
	prepared bool

	seeded  []int32 // variables bound by every VALUES row
	certain []int32 // variables every row of the group binds
	binds   []int32 // variables any row of the group binds
}

// newGroup returns an empty group, reusing one from an earlier
// evaluation (with its slices' capacity) when the run has one.
func (r *run) newGroup() *group {
	if r.ngroups == len(r.groups) {
		r.groups = append(r.groups, &group{})
	}
	g := r.groups[r.ngroups]
	r.ngroups++
	g.pats, g.values, g.unions, g.opts = g.pats[:0], g.values[:0], g.unions[:0], g.opts[:0]
	g.filters, g.prepared = g.filters[:0], false
	g.seeded, g.certain, g.binds = g.seeded[:0], g.certain[:0], g.binds[:0]
	return g
}

// newJoin is newGroup for joins.
func (r *run) newJoin(optional bool) *join {
	if r.njoins == len(r.joins) {
		j := &join{}
		j.collect = func() bool { return r.collect(j) }
		r.joins = append(r.joins, j)
	}
	j := r.joins[r.njoins]
	r.njoins++
	j.groups, j.optional = j.groups[:0], optional
	j.slots, j.certain, j.key = j.slots[:0], j.certain[:0], j.key[:0]
	j.rows, j.n, j.all = j.rows[:0], 0, j.all[:0]
	clear(j.index)
	return j
}

// slot returns v's slot, assigning the next one on first sight.
func (r *run) slot(v sparql.Var) int32 {
	if s := r.lookupSlot(v); s >= 0 {
		return s
	}
	r.vars = append(r.vars, v)
	return int32(len(r.vars) - 1)
}

// lookupSlot returns v's slot, or -1 when the query never mentions v.
func (r *run) lookupSlot(v sparql.Var) int32 { return int32(slices.Index(r.vars, v)) }

// id encodes a term, numbering terms absent from the store past the
// store's dictionary.
func (r *run) id(t rdf.Term) store.ID {
	if i, ok := r.v.Lookup(t); ok {
		return i
	}
	if i, ok := r.absent[t]; ok {
		return i
	}
	if r.absent == nil {
		r.absent = make(map[rdf.Term]store.ID)
	}
	i := r.base + store.ID(len(r.extra))
	r.extra = append(r.extra, t)
	r.absent[t] = i
	return i
}

// term decodes an id.
func (r *run) term(x store.ID) rdf.Term {
	if x < r.base {
		return r.v.Term(x)
	}
	return r.extra[x-r.base]
}

func (r *run) elem(e sparql.Elem) elem {
	if e.IsVar() {
		return elem{slot: r.slot(e.Var)}
	}
	return elem{slot: -1, id: r.id(e.Term)}
}

func (r *run) compileGroup(g *sparql.GroupGraphPattern) *group {
	cg := r.newGroup()
	if g == nil {
		return cg
	}
	for _, tp := range g.Patterns {
		pt := pattern{pos: [3]elem{r.elem(tp.S), r.elem(tp.P), r.elem(tp.O)}}
		var c [3]store.ID
		for j, e := range pt.pos {
			c[j] = store.Any
			if e.slot < 0 {
				c[j] = e.id
			} else {
				cg.certain = addSlot(cg.certain, e.slot)
			}
		}
		pt.est = r.v.Estimate(c[0], c[1], c[2])
		cg.pats = append(cg.pats, pt)
	}
	for _, vb := range g.Values {
		cg.values = grow(cg.values)
		b := &cg.values[len(cg.values)-1]
		b.slots, b.rows, b.n = b.slots[:0], b.rows[:0], len(vb.Rows)
		for _, v := range vb.Vars {
			b.slots = append(b.slots, r.slot(v))
		}
		for _, row := range vb.Rows {
			for i := range vb.Vars {
				x := store.Any
				if i < len(row) && !row[i].IsZero() {
					x = r.id(row[i])
				}
				b.rows = append(b.rows, x)
			}
		}
		for i, s := range b.slots {
			undef := false
			for j := i; j < len(b.rows); j += len(b.slots) {
				undef = undef || b.rows[j] == store.Any
			}
			if !undef {
				cg.seeded = addSlot(cg.seeded, s)
				cg.certain = addSlot(cg.certain, s)
			}
		}
	}
	cg.binds = append(cg.binds, cg.certain...)
	for _, vb := range cg.values {
		cg.binds = addSlots(cg.binds, vb.slots)
	}
	for _, u := range g.Unions {
		j := r.newJoin(false)
		for i, alt := range u.Alternatives {
			ag := r.compileGroup(alt)
			j.groups = append(j.groups, ag)
			j.slots = addSlots(j.slots, ag.binds)
			if i == 0 {
				j.certain = append(j.certain, ag.certain...)
			} else {
				j.certain = keep(j.certain, ag.certain)
			}
		}
		j.key = keep(append(j.key, j.certain...), cg.certain)
		cg.certain = addSlots(cg.certain, j.certain)
		cg.binds = addSlots(cg.binds, j.slots)
		cg.unions = append(cg.unions, j)
	}
	for _, o := range g.Optionals {
		og := r.compileGroup(o)
		j := r.newJoin(true)
		j.groups = append(j.groups, og)
		j.slots = append(j.slots, og.binds...)
		j.key = keep(append(j.key, og.certain...), cg.certain)
		cg.binds = addSlots(cg.binds, j.slots)
		cg.opts = append(cg.opts, j)
	}
	for _, e := range g.Filters {
		cg.filters = grow(cg.filters)
		f := &cg.filters[len(cg.filters)-1]
		f.expr, f.slots, f.exists = e, f.slots[:0], f.exists[:0]
		r.compileExpr(e, f)
	}
	return cg
}

// grow extends s by one element, reusing the element's old contents
// (and so its slices' capacity) when s has room.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// compileExpr collects the slots e reads and compiles its EXISTS
// groups.
func (r *run) compileExpr(e sparql.Expr, f *filter) {
	switch e := e.(type) {
	case *sparql.VarExpr:
		f.slots = addSlot(f.slots, r.slot(e.Name))
	case *sparql.UnaryExpr:
		r.compileExpr(e.X, f)
	case *sparql.BinaryExpr:
		r.compileExpr(e.Left, f)
		r.compileExpr(e.Right, f)
	case *sparql.CallExpr:
		for _, a := range e.Args {
			r.compileExpr(a, f)
		}
	case *sparql.ExistsExpr:
		cg := r.existsGroup(e.Group)
		if cg == nil {
			cg = r.compileGroup(e.Group)
			r.exists = append(r.exists, existsEntry{e.Group, cg})
		}
		f.exists = append(f.exists, cg)
	}
}

// existsEntry pairs an EXISTS group with its compiled form.
type existsEntry struct {
	src *sparql.GroupGraphPattern
	g   *group
}

func (r *run) existsGroup(src *sparql.GroupGraphPattern) *group {
	for _, e := range r.exists {
		if e.src == src {
			return e.g
		}
	}
	return nil
}

// addSlot adds s to a small set kept as a slice.
func addSlot(set []int32, s int32) []int32 {
	if slices.Contains(set, s) {
		return set
	}
	return append(set, s)
}

// addSlots adds every slot of add to set.
func addSlots(set, add []int32) []int32 {
	for _, s := range add {
		set = addSlot(set, s)
	}
	return set
}

// keep filters set, in place, to the slots also in other.
func keep(set, other []int32) []int32 {
	out := set[:0]
	for _, x := range set {
		if slices.Contains(other, x) {
			out = append(out, x)
		}
	}
	return out
}

// order sorts g's patterns greedily: next is always the pattern
// with the lowest estimate given the variables bound so far (each
// bound position cuts the estimate 16-fold), and a pattern sharing no
// bound variable is penalized to avoid cartesian products. Variables
// bound in the current row or by every VALUES row count as bound.
func (r *run) order(g *group) {
	if len(g.pats) == 0 {
		return
	}
	nb := 0
	for i, x := range r.row {
		r.bound[i] = x != store.Any
		if r.bound[i] {
			nb++
		}
	}
	for _, s := range g.seeded {
		if !r.bound[s] {
			r.bound[s] = true
			nb++
		}
	}
	for i := range g.pats {
		best, bestScore := i, 0
		for j := i; j < len(g.pats); j++ {
			if s := r.score(&g.pats[j], nb); j == i || s < bestScore {
				best, bestScore = j, s
			}
		}
		pick := g.pats[best]
		copy(g.pats[i+1:best+1], g.pats[i:best])
		g.pats[i] = pick
		for _, e := range pick.pos {
			if e.slot >= 0 && !r.bound[e.slot] {
				r.bound[e.slot] = true
				nb++
			}
		}
	}
}

func (r *run) score(p *pattern, nbound int) int {
	boundVars := 0
	for _, e := range p.pos {
		if e.slot >= 0 && r.bound[e.slot] {
			boundVars++
		}
	}
	score := p.est >> (4 * boundVars)
	connected := boundVars > 0 || p.pos[0].slot < 0 || p.pos[2].slot < 0 || nbound == 0
	if !connected {
		score += 1 << 28
	}
	return score
}
