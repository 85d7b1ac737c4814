package engine

import (
	"encoding/binary"
	"fmt"
	"sync"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// run is one evaluation: the compiled query, the store view it reads
// through, and the single slot row that the stages bind and unbind as
// they backtrack. Rows that are not emitted allocate nothing; ids are
// decoded only for filters and, once evaluation ends, for emitted rows.
// Runs are pooled: a run keeps its groups, joins and buffers for the
// next evaluation, so compiling a query allocates only what it has not
// needed before.
type run struct {
	v    store.View
	vars []sparql.Var // slot -> variable

	base   store.ID              // first id of a term absent from the store
	extra  []rdf.Term            // absent terms, by id - base
	absent map[rdf.Term]store.ID // absent term -> id

	groups  []*group // groups[:ngroups] are this evaluation's
	ngroups int
	joins   []*join
	njoins  int
	exists  []existsEntry

	row   []store.ID // slot values; store.Any when unbound
	trail []int32    // slots bound so far, in binding order
	bound []bool     // scratch for order
	key   []byte     // scratch join key

	scratch  []sparql.Binding // filter bindings, one per EXISTS depth
	depth    int
	found    bool
	hit      func() bool
	existsFn sparql.ExistsEvaluator

	em     emitter
	emitFn func() bool
}

var runs = sync.Pool{New: func() any {
	r := &run{}
	r.hit = func() bool {
		r.found = true
		return true
	}
	r.existsFn = r.evalExists
	r.emitFn = r.em.emit
	r.em.r = r
	return r
}}

// compile takes a run from the pool, compiles the WHERE group through
// v and materializes its unions and optionals. The caller evaluates
// the group and releases the run.
func compile(v store.View, where *sparql.GroupGraphPattern) (*run, *group) {
	r := runs.Get().(*run)
	r.v, r.base = v, store.ID(v.NumTerms())
	g := r.compileGroup(where)
	r.start()
	r.prepare(g)
	return r, g
}

// release returns r to the pool, unless the query grew one of its
// buffers or maps past maxPooled entries (Go maps do not shrink).
func (r *run) release() {
	big := cap(r.em.out) > maxPooled || len(r.em.seen) > maxPooled || len(r.absent) > maxPooled
	for _, g := range r.groups[:r.ngroups] {
		for _, b := range g.values {
			big = big || cap(b.rows) > maxPooled
		}
	}
	for _, j := range r.joins[:r.njoins] {
		big = big || cap(j.rows) > maxPooled || len(j.index) > maxPooled
	}
	if big {
		return
	}
	r.v = store.View{}
	r.vars, r.extra, r.exists = r.vars[:0], r.extra[:0], r.exists[:0]
	clear(r.absent)
	r.ngroups, r.njoins = 0, 0
	runs.Put(r)
}

// maxPooled caps the buffers of a run that goes back to the pool.
const maxPooled = 1 << 16

// start sizes the row once every slot is assigned and resets the
// evaluation state.
func (r *run) start() {
	n := len(r.vars)
	if cap(r.row) < n {
		r.row, r.bound = make([]store.ID, n), make([]bool, n)
	}
	r.row, r.bound = r.row[:n], r.bound[:n]
	for i := range r.row {
		r.row[i] = store.Any
	}
	r.trail, r.depth, r.found = r.trail[:0], 0, false
	clear(r.em.seen)
	r.em = emitter{r: r, limit: -1, slots: r.em.slots[:0], out: r.em.out[:0], seen: r.em.seen}
}

// prepare materializes the unions and optionals of g and of every
// group nested in it. It runs before evaluation, on an empty row.
func (r *run) prepare(g *group) {
	if g.prepared {
		return
	}
	g.prepared = true
	for _, f := range g.filters {
		for _, eg := range f.exists {
			r.prepare(eg)
		}
	}
	for _, j := range g.unions {
		r.materialize(j)
	}
	for _, j := range g.opts {
		r.materialize(j)
	}
}

// materialize evaluates a join's groups and indexes their rows on the
// join key. An optional group's own filters are left to the left join.
func (r *run) materialize(j *join) {
	for _, g := range j.groups {
		r.prepare(g)
	}
	if len(j.key) > 0 && j.index == nil {
		j.index = make(map[string][]int32)
	}
	for _, g := range j.groups {
		r.evalGroup(g, !j.optional, j.collect)
	}
	if len(j.key) == 0 {
		for i := 0; i < j.n; i++ {
			j.all = append(j.all, int32(i))
		}
	}
}

// collect appends the row's values of j's slots to j's rows.
func (r *run) collect(j *join) bool {
	for _, s := range j.slots {
		j.rows = append(j.rows, r.row[s])
	}
	if len(j.key) > 0 {
		r.key = r.appendKey(r.key[:0], j.key)
		j.index[string(r.key)] = append(j.index[string(r.key)], int32(j.n))
	}
	j.n++
	return false
}

// appendKey appends the ids of slots in the current row.
func (r *run) appendKey(buf []byte, slots []int32) []byte {
	for _, s := range slots {
		buf = binary.LittleEndian.AppendUint32(buf, r.get(s))
	}
	return buf
}

// get returns slot s's id, store.Any when it is unbound or s is -1 (a
// variable the query never binds).
func (r *run) get(s int32) store.ID {
	if s < 0 {
		return store.Any
	}
	return r.row[s]
}

// evalGroup evaluates g from the current row, calling k for each
// solution with the row bound; k returns true to stop. Reports whether
// evaluation stopped. The row is restored before it returns.
func (r *run) evalGroup(g *group, filters bool, k func() bool) bool {
	r.order(g)
	return r.seed(g, 0, filters, k)
}

// seed binds the rows of VALUES block i onward; each compatible
// combination seeds the pattern join.
func (r *run) seed(g *group, i int, filters bool, k func() bool) bool {
	if i == len(g.values) {
		return r.match(g, 0, filters, k)
	}
	b := &g.values[i]
	w := len(b.slots)
	for n := 0; n < b.n; n++ {
		mark := len(r.trail)
		if r.bindRow(b.slots, b.rows[n*w:n*w+w]) && r.seed(g, i+1, filters, k) {
			r.undo(mark)
			return true
		}
		r.undo(mark)
	}
	return false
}

// match extends the row with pattern d of g's order and onward: an
// index nested-loop join with the row's bound slots as lookup keys.
func (r *run) match(g *group, d int, filters bool, k func() bool) bool {
	if d == len(g.pats) {
		return r.union(g, 0, filters, k)
	}
	p := &g.pats[d]
	it := r.v.Match(r.val(p.pos[0]), r.val(p.pos[1]), r.val(p.pos[2]))
	for {
		s, pr, o, ok := it.Next()
		if !ok {
			return false
		}
		mark := len(r.trail)
		if r.bind(p.pos[0], s) && r.bind(p.pos[1], pr) && r.bind(p.pos[2], o) &&
			r.match(g, d+1, filters, k) {
			r.undo(mark)
			return true
		}
		r.undo(mark)
	}
}

// union joins the row with the rows of union i onward.
func (r *run) union(g *group, i int, filters bool, k func() bool) bool {
	if i == len(g.unions) {
		return r.optional(g, 0, filters, k)
	}
	j := g.unions[i]
	for _, n := range r.candidates(j) {
		mark := len(r.trail)
		if r.bindRow(j.slots, j.row(n)) && r.union(g, i+1, filters, k) {
			r.undo(mark)
			return true
		}
		r.undo(mark)
	}
	return false
}

// optional left-joins the row with optional i onward: each compatible
// right-hand row passing the optional's filters extends it, and the
// row passes unextended when none does.
func (r *run) optional(g *group, i int, filters bool, k func() bool) bool {
	if i == len(g.opts) {
		if filters && !r.pass(g.filters) {
			return false
		}
		return k()
	}
	j := g.opts[i]
	matched := false
	for _, n := range r.candidates(j) {
		mark := len(r.trail)
		if r.bindRow(j.slots, j.row(n)) && r.pass(j.groups[0].filters) {
			matched = true
			if r.optional(g, i+1, filters, k) {
				r.undo(mark)
				return true
			}
		}
		r.undo(mark)
	}
	return !matched && r.optional(g, i+1, filters, k)
}

// candidates returns the right-hand rows of j that may join the row.
func (r *run) candidates(j *join) []int32 {
	if len(j.key) == 0 {
		return j.all
	}
	r.key = r.appendKey(r.key[:0], j.key)
	return j.index[string(r.key)]
}

func (j *join) row(n int32) []store.ID {
	w := int32(len(j.slots))
	return j.rows[n*w : n*w+w]
}

// val is a pattern position's lookup id: the constant, the slot's
// value, or store.Any for an unbound slot.
func (r *run) val(e elem) store.ID {
	if e.slot < 0 {
		return e.id
	}
	return r.row[e.slot]
}

// bind binds a matched id to a pattern position, reporting false when a
// variable repeated in the pattern (?x p ?x) disagrees.
func (r *run) bind(e elem, x store.ID) bool {
	return e.slot < 0 || r.set(e.slot, x)
}

// bindRow binds ids to slots (store.Any leaves a slot alone),
// reporting false on a conflict with the row.
func (r *run) bindRow(slots []int32, ids []store.ID) bool {
	for i, s := range slots {
		if ids[i] != store.Any && !r.set(s, ids[i]) {
			return false
		}
	}
	return true
}

// set binds slot s to x, reporting false when s holds another id.
func (r *run) set(s int32, x store.ID) bool {
	switch r.row[s] {
	case store.Any:
		r.row[s] = x
		r.trail = append(r.trail, s)
	case x:
	default:
		return false
	}
	return true
}

// undo unbinds the slots bound since the trail was mark long.
func (r *run) undo(mark int) {
	for _, s := range r.trail[mark:] {
		r.row[s] = store.Any
	}
	r.trail = r.trail[:mark]
}

// pass reports whether the row satisfies every filter. Each filter
// sees a binding of the variables it reads; an expression error fails
// the filter.
func (r *run) pass(fs []filter) bool {
	if len(fs) == 0 {
		return true
	}
	for len(r.scratch) <= r.depth {
		r.scratch = append(r.scratch, sparql.Binding{})
	}
	b := r.scratch[r.depth]
	for i := range fs {
		f := &fs[i]
		clear(b)
		for _, s := range f.slots {
			if x := r.row[s]; x != store.Any {
				b[r.vars[s]] = r.term(x)
			}
		}
		if ok, err := sparql.EvalBool(f.expr, b, r.existsFn); err != nil || !ok {
			return false
		}
	}
	return true
}

// evalExists evaluates an EXISTS group from the current row, which
// holds the outer solution; the binding argument is that same solution
// decoded, so it is not read.
func (r *run) evalExists(src *sparql.GroupGraphPattern, _ sparql.Binding) (bool, error) {
	g := r.existsGroup(src)
	if g == nil {
		return false, fmt.Errorf("engine: EXISTS group was not compiled")
	}
	outer := r.found
	r.found = false
	r.depth++
	r.evalGroup(g, true, r.hit)
	r.depth--
	found := r.found
	r.found = outer
	return found, nil
}
