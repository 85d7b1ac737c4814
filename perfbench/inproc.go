package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"lusail"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// query is one entry of a workload's seeded sequence.
type query struct {
	template string // template name, for per-template reporting
	text     string
	csv      bool // http-lubm only: ask for text/csv instead of SPARQL JSON
}

// inprocSpec describes an in-process workload: its data, its network,
// its federation options and its query sequence.
type inprocSpec struct {
	name         string
	universities int
	scale        int
	regions      bool // place endpoints over endpoint.Regions (simulated RTT)
	options      []lusail.Option
	batch        int  // queries between barriers
	clients      int  // concurrent callers of the closed loop
	churn        bool // apply one churn batch at every barrier
	// window is the loop's timing window (0: the run is one window).
	window time.Duration
	// sequence builds the seeded query sequence generator from the
	// generated data.
	sequence func(seed int64, graphs []rdf.Graph) func(idx int) query
	// warmQueries run once during set-up, filling the planning caches.
	warmQueries func(graphs []rdf.Graph) []string
}

// inprocLUBMTemplates are the paper's LUBM queries with the weights of
// inproc-lubm's mix. The weights put the median inside one template's
// latency band (Q3) and the 95th percentile inside another's (Q1), so
// neither percentile sits on the boundary between two templates, where
// a tiny change of mix would make it jump.
var inprocLUBMTemplates = []struct {
	name   string
	weight int
}{{"Q1", 2}, {"Q2", 2}, {"Q3", 3}, {"Q4", 1}}

// lubmDeck returns a sequence generator drawing Q1-Q4 from seeded
// shuffled decks holding each template weight times.
func lubmDeck(seed int64) func(idx int) string {
	var deck []string
	for _, t := range inprocLUBMTemplates {
		for i := 0; i < t.weight; i++ {
			deck = append(deck, t.name)
		}
	}
	return func(idx int) string {
		round, pos := idx/len(deck), idx%len(deck)
		d := append([]string(nil), deck...)
		rand.New(rand.NewSource(seed*1_000_003+int64(round))).Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		return d[pos]
	}
}

var inprocLUBM = inprocSpec{
	name:         "inproc-lubm",
	universities: 4,
	scale:        4,
	batch:        64,
	clients:      1,
	window:       timingWindow,
	sequence: func(seed int64, _ []rdf.Graph) func(int) query {
		deck := lubmDeck(seed)
		return func(idx int) query {
			t := deck(idx)
			return query{template: t, text: lubm.Queries[t]}
		}
	},
	warmQueries: func([]rdf.Graph) []string {
		return []string{lubm.Q1, lubm.Q2, lubm.Q3, lubm.Q4}
	},
}

// geoChurnSubqueryCache is the subquery cache's entry bound on
// geo-churn: well below the number of distinct subqueries the template
// constants produce, so the LRU keeps evicting.
const geoChurnSubqueryCache = 16

var geoChurn = inprocSpec{
	name:         "geo-churn",
	universities: 8,
	scale:        1,
	regions:      true,
	options:      []lusail.Option{lusail.WithSubqueryCache(geoChurnSubqueryCache, 0)},
	batch:        10,
	clients:      2,
	churn:        true,
	sequence:     geoSequence,
	warmQueries: func(graphs []rdf.Graph) []string {
		c := geoConstants(graphs)
		var qs []string
		for _, t := range geoTemplates {
			qs = append(qs, t.instance(c[t.kind][0]))
		}
		return qs
	},
}

func runInprocLUBM(opts options) (*report, error) { return runInproc(inprocLUBM, opts) }
func runGeoChurn(opts options) (*report, error)   { return runInproc(geoChurn, opts) }

// federation is one built in-process workload.
type federation struct {
	spec   inprocSpec
	locals []*endpoint.Local
	eps    []lusail.Endpoint // what the engine sees (maybe traced wrappers)
	fed    *lusail.Federation
	seq    func(int) query
	oracle *oracle
	churn  *churner
}

func (f *federation) close() {}

// buildFederation generates the data, loads the endpoints, builds the
// oracle and warms the planning caches. wrap, if set, decorates each
// endpoint before the engine sees it.
func buildFederation(spec inprocSpec, seed int64, wrap func(endpoint.Endpoint) endpoint.Endpoint) (*federation, error) {
	// The data is the generator's fixed default dataset at this size:
	// the seed drives the queries, their constants and the churn, not
	// the data, whose per-seed cost differences would swamp the
	// run-to-run comparison.
	cfg := lubm.DefaultConfig(spec.universities)
	cfg.Scale = spec.scale
	graphs := lubm.Generate(cfg)
	f := &federation{spec: spec}
	for i, g := range graphs {
		l := endpoint.NewLocal(fmt.Sprintf("univ%d", i), store.FromGraph(g))
		if spec.regions {
			l.WithNetwork(endpoint.RegionProfile(i))
		}
		f.locals = append(f.locals, l)
		var ep endpoint.Endpoint = l
		if wrap != nil {
			ep = wrap(l)
		}
		f.eps = append(f.eps, ep)
	}
	f.fed = lusail.New(f.eps, spec.options...)
	f.seq = spec.sequence(seed, graphs)
	f.oracle = newOracle(testfed.UnionStore(f.locals...))
	if spec.churn {
		f.churn = newChurner(seed, f.locals)
	}
	for _, q := range spec.warmQueries(graphs) {
		if _, err := f.fed.Query(context.Background(), q); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// barrier applies the next churn batch, with no query in flight, and
// moves the oracle to the new epoch.
func (f *federation) barrier() {
	f.churn.apply()
	f.oracle.reset(testfed.UnionStore(f.locals...))
}

// issue runs sequence position idx through Federation.QueryStream and
// checks the streamed rows against the oracle. hook, set in traced
// runs, records the query.
func (f *federation) issue(ctx context.Context, idx int, hook *inprocHook) (outcome, lusail.Metrics) {
	q := f.seq(idx)
	var qid int64
	if hook != nil {
		ctx, qid = hook.begin(ctx)
	}
	var vars []sparql.Var
	var rows []sparql.Binding
	var first time.Time
	start := time.Now()
	_, m, err := f.fed.QueryStream(ctx, q.text, func(v []sparql.Var, r []sparql.Binding) error {
		if first.IsZero() {
			first = time.Now()
		}
		vars = v
		rows = append(rows, r...)
		return nil
	})
	last := time.Now()
	if first.IsZero() {
		first = last
	}
	if hook != nil {
		hook.end(qid, start, first, last, m, err)
	}
	o := outcome{latency: last.Sub(start), firstRow: first.Sub(start), err: err, template: q.template}
	if err == nil {
		o.err = f.oracle.check(q.text, &sparql.Results{Vars: vars, Rows: rows})
	}
	return o, m
}

func (f *federation) loop(seconds float64, hook *inprocHook) *loop {
	l := &loop{seconds: seconds, batch: f.spec.batch, clients: f.spec.clients, window: f.spec.window}
	l.issue = func(ctx context.Context, idx int) outcome {
		o, _ := f.issue(ctx, idx, hook)
		return o
	}
	if f.churn != nil {
		l.barrier = f.barrier
	}
	return l
}

func runInproc(spec inprocSpec, opts options) (*report, error) {
	if opts.trace {
		return runInprocTraced(spec, opts)
	}
	f, setupS, err := medianSetup(func() (*federation, error) { return buildFederation(spec, opts.seed, nil) })
	if err != nil {
		return nil, err
	}
	before := endpoint.TotalStats(f.eps)
	res, err := f.loop(opts.seconds, nil).run(context.Background())
	if err != nil {
		return nil, err
	}
	after := endpoint.TotalStats(f.eps)
	checkTail(spec.name, res)
	if spec.churn {
		reportGeoCaches(f)
	}
	return reportOf(res, endToEnd(res, after.Requests-before.Requests, after.Rows-before.Rows, selfPeakRSSMB(), setupS)), nil
}

// reportGeoCaches prints geo-churn's planning-cache miss shares and
// subquery-cache evictions, so that the workload's "constant domain
// larger than the caches" property is observed rather than assumed.
func reportGeoCaches(f *federation) {
	for _, e := range f.fed.CacheStats() {
		st := e.Stats
		fmt.Fprintf(os.Stderr, "perfbench: geo-churn cache %-8s miss share %.3f (%d/%d), evictions %d, entries %d\n",
			e.Name, ratio(float64(st.Misses), float64(st.Hits+st.Misses)), st.Misses, st.Hits+st.Misses, st.Evictions, st.Entries)
	}
}

// geoTemplate is one geo-churn query template with one constant.
type geoTemplate struct {
	name string
	kind string // constant kind: univ | dept | prof | course
	text string // SPARQL with %s where the constant IRI goes
}

func (t geoTemplate) instance(constant rdf.Term) string {
	return fmt.Sprintf(t.text, constant.String())
}

const lubmPrefix = "PREFIX ub: <" + lubm.NS + ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"

// geoTemplates are LUBM-shaped queries whose constants come from the
// generated data. Two of them (course, doctoral) cross universities
// through the degree interlinks.
var geoTemplates = []geoTemplate{
	{"alumni", "univ", lubmPrefix + `SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:undergraduateDegreeFrom %s . }`},
	{"dept", "dept", lubmPrefix + `SELECT ?x ?y ?n WHERE { ?x ub:memberOf %s . ?x ub:advisor ?y . ?y ub:name ?n . }`},
	{"teaching", "prof", lubmPrefix + `SELECT ?c ?s WHERE { %s ub:teacherOf ?c . ?s ub:takesCourse ?c . ?s rdf:type ub:GraduateStudent . }`},
	{"course", "course", lubmPrefix + `SELECT ?s ?p ?u ?n WHERE { ?s ub:takesCourse %s . ?s ub:advisor ?p . ?p ub:doctoralDegreeFrom ?u . ?u ub:name ?n . }`},
	{"doctoral", "univ", lubmPrefix + `SELECT ?p ?d ?e WHERE { ?p ub:doctoralDegreeFrom %s . ?p ub:worksFor ?d . ?p ub:emailAddress ?e . }`},
}

// constants lists the generated data's IRIs per constant kind, sorted.
type constants map[string][]rdf.Term

// geoConstants collects the universities, departments, professors and
// courses of the generated data.
func geoConstants(graphs []rdf.Graph) constants {
	byClass := map[rdf.Term]string{
		lubm.ClassDepartment:    "dept",
		lubm.ClassFullProfessor: "prof",
		lubm.ClassCourse:        "course",
	}
	typ := rdf.IRI(rdf.RDFType)
	c := constants{}
	for u, g := range graphs {
		c["univ"] = append(c["univ"], lubm.UniversityIRI(u))
		for _, t := range g {
			if t.P != typ {
				continue
			}
			if kind, ok := byClass[t.O]; ok {
				c[kind] = append(c[kind], t.S)
			}
		}
	}
	for _, terms := range c {
		sort.Slice(terms, func(i, j int) bool { return terms[i].Value < terms[j].Value })
	}
	return c
}

// geoZipfS and geoZipfV shape the constant draw within a template,
// P(rank k) ∝ (geoZipfV+k)^-geoZipfS: a few hot constants and a long
// tail that keeps the caches missing. The offset flattens the head, so
// that no single constant, whose identity the seed picks, carries so
// much traffic that it sets a run's per-query costs.
const (
	geoZipfS = 1.1
	geoZipfV = 4
)

// geoSequence draws templates from seeded shuffled decks (each template
// once per deck, so the mix is exactly balanced) and each template's
// constant from a seeded Zipf over a seeded permutation of the
// template's constant domain. Position idx depends only on seed and idx.
func geoSequence(seed int64, graphs []rdf.Graph) func(int) query {
	c := geoConstants(graphs)
	perms := make([][]rdf.Term, len(geoTemplates))
	for i, t := range geoTemplates {
		dom := append([]rdf.Term(nil), c[t.kind]...)
		rand.New(rand.NewSource(seed*31+int64(i))).Shuffle(len(dom), func(a, b int) { dom[a], dom[b] = dom[b], dom[a] })
		perms[i] = dom
	}
	n := len(geoTemplates)
	return func(idx int) query {
		round, pos := idx/n, idx%n
		order := rand.New(rand.NewSource(seed*1_000_003 + int64(round))).Perm(n)
		ti := order[pos]
		r := rand.New(rand.NewSource(seed*7_919 + int64(idx)))
		dom := perms[ti]
		k := rand.NewZipf(r, geoZipfS, geoZipfV, uint64(len(dom)-1)).Uint64()
		return query{template: geoTemplates[ti].name, text: geoTemplates[ti].instance(dom[k])}
	}
}

// churner is geo-churn's seeded writer: at every barrier it deletes a
// small random batch of one endpoint's triples and re-inserts the batch
// it deleted from that endpoint last time, so data keeps oscillating
// without draining.
type churner struct {
	rng    *rand.Rand
	locals []*endpoint.Local
	pools  []rdf.Graph // each endpoint's initial triples, sorted
	prev   []rdf.Graph // each endpoint's currently deleted batch
}

// churnShare is the fraction of an endpoint's triples one batch
// deletes.
const churnShare = 50

func newChurner(seed int64, locals []*endpoint.Local) *churner {
	c := &churner{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), locals: locals, prev: make([]rdf.Graph, len(locals))}
	for _, l := range locals {
		pool := append(rdf.Graph(nil), l.Store().Triples()...)
		sort.Slice(pool, func(i, j int) bool { return tripleLess(pool[i], pool[j]) })
		c.pools = append(c.pools, pool)
	}
	return c
}

func tripleLess(a, b rdf.Triple) bool {
	if a.S.Value != b.S.Value {
		return a.S.Value < b.S.Value
	}
	if a.P.Value != b.P.Value {
		return a.P.Value < b.P.Value
	}
	return a.O.Value < b.O.Value
}

// apply runs the next churn batch through endpoint.ChurnTarget and
// returns the endpoint it changed and the triples it deleted.
func (c *churner) apply() (int, rdf.Graph) {
	i := c.rng.Intn(len(c.locals))
	pool := c.pools[i]
	n := len(pool) / churnShare
	del := make(rdf.Graph, 0, n)
	seen := map[int]bool{}
	for len(del) < n {
		k := c.rng.Intn(len(pool))
		if !seen[k] {
			seen[k] = true
			del = append(del, pool[k])
		}
	}
	c.locals[i].ApplyChurn(c.prev[i], del)
	c.prev[i] = del
	return i, del
}
