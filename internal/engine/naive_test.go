package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// naiveBGP evaluates a basic graph pattern by brute force: each
// pattern matched against the full triple list, solutions merged by
// compatibility. It is the oracle for the optimized join.
func naiveBGP(g rdf.Graph, patterns []sparql.TriplePattern) []sparql.Binding {
	return naiveExtend(g, []sparql.Binding{{}}, patterns)
}

// naiveExtend joins seed rows with the patterns, one brute-force
// pattern at a time.
func naiveExtend(g rdf.Graph, rows []sparql.Binding, patterns []sparql.TriplePattern) []sparql.Binding {
	for _, tp := range patterns {
		var next []sparql.Binding
		for _, row := range rows {
			for _, tr := range dedup(g) {
				nb := matchTriple(row, tp, tr)
				if nb != nil {
					next = append(next, nb)
				}
			}
		}
		rows = next
	}
	return rows
}

// naiveGroup evaluates a group by brute force, in the engine's
// semantics: the seed rows join the BGP, each VALUES block and each
// UNION (alternatives evaluated on their own and concatenated), then
// left-join each OPTIONAL (evaluated on its own; its filters see the
// merged row), then the group's filters keep the rows they accept.
// EXISTS evaluates its group with the row as the seed.
func naiveGroup(g rdf.Graph, gp *sparql.GroupGraphPattern, seed []sparql.Binding, filters bool) []sparql.Binding {
	rows := naiveExtend(g, seed, gp.Patterns)
	for _, vb := range gp.Values {
		var vrows []sparql.Binding
		for _, vr := range vb.Rows {
			b := sparql.Binding{}
			for i, v := range vb.Vars {
				if i < len(vr) && !vr[i].IsZero() {
					b[v] = vr[i]
				}
			}
			vrows = append(vrows, b)
		}
		rows = joinRows(rows, vrows)
	}
	for _, u := range gp.Unions {
		var alt []sparql.Binding
		for _, a := range u.Alternatives {
			alt = append(alt, naiveGroup(g, a, []sparql.Binding{{}}, true)...)
		}
		rows = joinRows(rows, alt)
	}
	for _, o := range gp.Optionals {
		right := naiveGroup(g, o, []sparql.Binding{{}}, false)
		var out []sparql.Binding
		for _, l := range rows {
			matched := false
			for _, r := range right {
				if m := l.Merge(r); l.Compatible(r) && naiveFilter(g, m, o.Filters) {
					matched = true
					out = append(out, m)
				}
			}
			if !matched {
				out = append(out, l)
			}
		}
		rows = out
	}
	if !filters {
		return rows
	}
	var out []sparql.Binding
	for _, row := range rows {
		if naiveFilter(g, row, gp.Filters) {
			out = append(out, row)
		}
	}
	return out
}

// naiveFilter reports whether every filter accepts the row; an
// expression error rejects it.
func naiveFilter(g rdf.Graph, row sparql.Binding, filters []sparql.Expr) bool {
	exists := func(gp *sparql.GroupGraphPattern, b sparql.Binding) (bool, error) {
		return len(naiveGroup(g, gp, []sparql.Binding{b}, true)) > 0, nil
	}
	for _, f := range filters {
		if ok, err := sparql.EvalBool(f, row, exists); err != nil || !ok {
			return false
		}
	}
	return true
}

func dedup(g rdf.Graph) rdf.Graph {
	seen := map[rdf.Triple]struct{}{}
	var out rdf.Graph
	for _, t := range g {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

func matchTriple(row sparql.Binding, tp sparql.TriplePattern, tr rdf.Triple) sparql.Binding {
	nb := row.Clone()
	try := func(el sparql.Elem, val rdf.Term) bool {
		if !el.IsVar() {
			return el.Term == val
		}
		if prev, ok := nb[el.Var]; ok {
			return prev == val
		}
		nb[el.Var] = val
		return true
	}
	if try(tp.S, tr.S) && try(tp.P, tr.P) && try(tp.O, tr.O) {
		return nb
	}
	return nil
}

func canonical(rows []sparql.Binding, vars []sparql.Var) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.Key(vars))
	}
	sort.Strings(out)
	return out
}

// TestQuickBGPAgainstNaive property-tests the optimized BGP join
// against the brute-force oracle on random graphs and random BGPs.
func TestQuickBGPAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		subjects := []rdf.Term{iri("a"), iri("b"), iri("c"), iri("d")}
		preds := []rdf.Term{iri("p"), iri("q"), iri("r")}
		objects := append([]rdf.Term{rdf.Literal("x"), rdf.Integer(1)}, subjects...)

		var g rdf.Graph
		for i := 0; i < 5+r.Intn(40); i++ {
			g = append(g, rdf.T(
				subjects[r.Intn(len(subjects))],
				preds[r.Intn(len(preds))],
				objects[r.Intn(len(objects))],
			))
		}
		vars := []sparql.Var{"v0", "v1", "v2", "v3"}
		elem := func(pool []rdf.Term) sparql.Elem {
			if r.Intn(2) == 0 {
				return sparql.V(string(vars[r.Intn(len(vars))]))
			}
			return sparql.C(pool[r.Intn(len(pool))])
		}
		var patterns []sparql.TriplePattern
		for i := 0; i < 1+r.Intn(3); i++ {
			patterns = append(patterns, sparql.TriplePattern{
				S: elem(subjects), P: elem(preds), O: elem(objects),
			})
		}

		want := naiveBGP(g, patterns)
		e := New(store.FromGraph(g))
		q := sparql.NewSelect()
		q.Where.Patterns = patterns
		res, err := e.Eval(q)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got := res.Rows
		allVars := map[sparql.Var]bool{}
		for _, tp := range patterns {
			for _, v := range tp.Vars() {
				allVars[v] = true
			}
		}
		var vlist []sparql.Var
		for _, v := range vars {
			if allVars[v] {
				vlist = append(vlist, v)
			}
		}
		cw, cg := canonical(want, vlist), canonical(got, vlist)
		if len(cw) != len(cg) {
			t.Logf("seed %d: got %d rows, want %d\npatterns: %v", seed, len(cg), len(cw), patterns)
			return false
		}
		for i := range cw {
			if cw[i] != cg[i] {
				t.Logf("seed %d: row %d differs\n got %q\nwant %q", seed, i, cg[i], cw[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickFilterPushdownEquivalence checks that evaluating a BGP with
// filters inline equals filtering afterwards.
func TestQuickFilterPushdownEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var g rdf.Graph
		for i := 0; i < 30; i++ {
			g = append(g, rdf.T(
				iri(fmt.Sprintf("s%d", r.Intn(6))),
				iri("val"),
				rdf.Integer(int64(r.Intn(20))),
			))
		}
		e := New(store.FromGraph(g))
		thresh := r.Intn(20)
		q := sparql.MustParse(fmt.Sprintf(
			`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v . FILTER (?v >= %d) }`, thresh))
		res, err := e.Eval(q)
		if err != nil {
			return false
		}
		// Oracle: evaluate without filter, then filter manually.
		q2 := sparql.MustParse(`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v }`)
		res2, err := e.Eval(q2)
		if err != nil {
			return false
		}
		var kept []sparql.Binding
		for _, row := range res2.Rows {
			var n int
			fmt.Sscanf(row["v"].Value, "%d", &n)
			if n >= thresh {
				kept = append(kept, row)
			}
		}
		vlist := []sparql.Var{"s", "v"}
		a, b := canonical(res.Rows, vlist), canonical(kept, vlist)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// fragmentGen draws random data and random groups over the whole
// fragment the engine evaluates.
type fragmentGen struct {
	r                        *rand.Rand
	subjects, preds, objects []rdf.Term
	absent                   []rdf.Term // terms the store never holds
	vars                     []sparql.Var
}

func newFragmentGen(seed int64) *fragmentGen {
	subjects := []rdf.Term{iri("a"), iri("b"), iri("c")}
	return &fragmentGen{
		r:        rand.New(rand.NewSource(seed)),
		subjects: subjects,
		preds:    []rdf.Term{iri("p"), iri("q")},
		objects:  append([]rdf.Term{rdf.Literal("x")}, subjects...),
		absent:   []rdf.Term{iri("zz"), rdf.Literal("nowhere")},
		vars:     []sparql.Var{"v0", "v1", "v2", "v3"},
	}
}

func (f *fragmentGen) pick(pool []rdf.Term) rdf.Term { return pool[f.r.Intn(len(pool))] }

func (f *fragmentGen) graph() rdf.Graph {
	var g rdf.Graph
	for i := 0; i < 8+f.r.Intn(30); i++ {
		g = append(g, rdf.T(f.pick(f.subjects), f.pick(f.preds), f.pick(f.objects)))
	}
	return g
}

func (f *fragmentGen) elem(pool []rdf.Term) sparql.Elem {
	if f.r.Intn(4) > 0 {
		return sparql.V(string(f.vars[f.r.Intn(len(f.vars))]))
	}
	return sparql.C(f.pick(pool))
}

// patterns draws 1..max patterns; one in six repeats its subject
// variable as the object (?x p ?x).
func (f *fragmentGen) patterns(max int) []sparql.TriplePattern {
	var out []sparql.TriplePattern
	for i := 0; i < 1+f.r.Intn(max); i++ {
		tp := sparql.TriplePattern{S: f.elem(f.subjects), P: f.elem(f.preds), O: f.elem(f.objects)}
		if f.r.Intn(6) == 0 {
			v := sparql.V(string(f.vars[f.r.Intn(len(f.vars))]))
			tp.S, tp.O = v, v
		}
		out = append(out, tp)
	}
	return out
}

// values draws a VALUES block over one or two variables, one of which
// may be a variable no pattern mentions (v9); cells are UNDEF, terms
// absent from the store, or terms of the data.
func (f *fragmentGen) values() *sparql.ValuesBlock {
	pool := []sparql.Var{"v0", "v1", "v9"}
	vb := &sparql.ValuesBlock{Vars: []sparql.Var{pool[f.r.Intn(len(pool))]}}
	if f.r.Intn(2) == 0 {
		if v := pool[f.r.Intn(len(pool))]; v != vb.Vars[0] {
			vb.Vars = append(vb.Vars, v)
		}
	}
	for i := 0; i < 1+f.r.Intn(4); i++ {
		row := make([]rdf.Term, len(vb.Vars))
		for c := range row {
			switch n := f.r.Intn(10); {
			case n < 2: // UNDEF
			case n < 4:
				row[c] = f.pick(f.absent)
			default:
				row[c] = f.pick(f.objects)
			}
		}
		vb.Rows = append(vb.Rows, row)
	}
	return vb
}

// filter draws a simple comparison or BOUND test.
func (f *fragmentGen) filter() sparql.Expr {
	v := func() sparql.Expr { return &sparql.VarExpr{Name: f.vars[f.r.Intn(len(f.vars))]} }
	switch f.r.Intn(4) {
	case 0:
		return &sparql.BinaryExpr{Op: "!=", Left: v(), Right: v()}
	case 1:
		return &sparql.BinaryExpr{Op: "=", Left: v(), Right: &sparql.TermExpr{Term: f.pick(f.objects)}}
	case 2:
		return &sparql.CallExpr{Func: "BOUND", Args: []sparql.Expr{v()}}
	default:
		return &sparql.UnaryExpr{Op: "!", X: &sparql.CallExpr{Func: "BOUND", Args: []sparql.Expr{v()}}}
	}
}

// group draws a group with a random mix of the fragment's operators.
func (f *fragmentGen) group() *sparql.GroupGraphPattern {
	g := &sparql.GroupGraphPattern{}
	if f.r.Intn(3) == 0 {
		g.Values = append(g.Values, f.values())
	}
	if len(g.Values) == 0 || f.r.Intn(5) > 0 {
		g.Patterns = f.patterns(2)
	}
	if f.r.Intn(3) == 0 {
		u := &sparql.UnionBlock{}
		for i := 0; i < 2; i++ {
			alt := &sparql.GroupGraphPattern{Patterns: f.patterns(1)}
			if f.r.Intn(3) == 0 {
				alt.Filters = append(alt.Filters, f.filter())
			}
			u.Alternatives = append(u.Alternatives, alt)
		}
		g.Unions = append(g.Unions, u)
	}
	if f.r.Intn(3) == 0 {
		opt := &sparql.GroupGraphPattern{Patterns: f.patterns(1)}
		if f.r.Intn(2) == 0 {
			opt.Filters = append(opt.Filters, f.filter())
		}
		g.Optionals = append(g.Optionals, opt)
	}
	if f.r.Intn(3) == 0 {
		g.Filters = append(g.Filters, &sparql.ExistsExpr{
			Not:   f.r.Intn(2) == 0,
			Group: &sparql.GroupGraphPattern{Patterns: f.patterns(1)},
		})
	}
	if f.r.Intn(3) == 0 {
		g.Filters = append(g.Filters, f.filter())
	}
	return g
}

// TestQuickFullFragmentAgainstNaive property-tests Eval against the
// brute-force evaluator on random stores and random groups mixing
// VALUES (with UNDEF, terms absent from the store and variables the
// patterns never mention), UNION, OPTIONAL with filters, FILTER
// [NOT] EXISTS and repeated variables. SELECT *, SELECT DISTINCT,
// COUNT(*) and ASK over each group must agree with the oracle.
func TestQuickFullFragmentAgainstNaive(t *testing.T) {
	check := func(seed int64) bool {
		f := newFragmentGen(seed)
		g := f.graph()
		e := New(store.FromGraph(g))
		q := sparql.NewSelect()
		q.Where = f.group()
		want := naiveGroup(g, q.Where, []sparql.Binding{{}}, true)
		vars := q.ProjectedVars()

		res, err := e.Eval(q)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !sameRows(t, seed, "SELECT *", canonical(res.Rows, vars), canonical(want, vars)) {
			t.Logf("query: %s", q)
			return false
		}

		dq := q.Clone()
		dq.Distinct = true
		dres, err := e.Eval(dq)
		if err != nil {
			return false
		}
		if !sameRows(t, seed, "DISTINCT", canonical(dres.Rows, vars), uniq(canonical(want, vars))) {
			t.Logf("query: %s", dq)
			return false
		}

		cq := q.Clone()
		cq.Count, cq.CountVar = true, "n"
		cres, err := e.Eval(cq)
		if err != nil || cres.Rows[0]["n"] != rdf.Integer(int64(len(want))) {
			t.Logf("seed %d: COUNT = %v, want %d\nquery: %s", seed, cres.Rows, len(want), cq)
			return false
		}

		aq := q.Clone()
		aq.Form = sparql.AskForm
		ares, err := e.Eval(aq)
		if err != nil || ares.Ask != (len(want) > 0) {
			t.Logf("seed %d: ASK = %v, want %v\nquery: %s", seed, ares.Ask, len(want) > 0, aq)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func sameRows(t *testing.T, seed int64, what string, got, want []string) bool {
	if len(got) != len(want) {
		t.Logf("seed %d: %s got %d rows, want %d\n got %q\nwant %q", seed, what, len(got), len(want), got, want)
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			t.Logf("seed %d: %s row %d differs\n got %q\nwant %q", seed, what, i, got[i], want[i])
			return false
		}
	}
	return true
}

// uniq drops adjacent duplicates from a sorted list.
func uniq(sorted []string) []string {
	var out []string
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
