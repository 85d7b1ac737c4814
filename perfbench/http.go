package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// http-lubm: lusail-server with default flags in front of four
// cmd/endpoint processes over loopback, LUBM 4 universities at scale 2
// from cmd/datagen, the inproc-lubm template mix over one connection.
const (
	httpUniversities = 4
	httpScale        = 2
	httpBatch        = 64
	httpClients      = 1
	// csvEvery makes one query in csvEvery ask for text/csv (the
	// server's buffered path); the rest take the streamed JSON path.
	csvEvery = 8
	// childDrain is the -drain every child gets, so a stopped child
	// exits at once instead of lingering for its default drain.
	childDrain = "200ms"
	// readyTimeout bounds the wait for a child to accept requests.
	readyTimeout = 20 * time.Second
	// stopTimeout bounds the wait for a child to exit after SIGTERM
	// before it is killed.
	stopTimeout = 5 * time.Second
)

// child is one started process; exited is closed once it has been
// reaped, and err then holds its exit status.
type child struct {
	name   string
	cmd    *exec.Cmd
	exited chan struct{}
	err    error
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// children tracks the processes a run started, so that every exit
// path stops and reaps them.
type children struct {
	mu    sync.Mutex
	procs []*child
}

// start launches bin with args; its output is discarded (cmd/endpoint
// writes an access-log line per request).
func (c *children) start(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	// If the benchmark itself dies, the kernel stops the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	ch := &child{name: filepath.Base(bin), cmd: cmd, exited: make(chan struct{})}
	go func() {
		ch.err = cmd.Wait()
		close(ch.exited)
	}()
	c.mu.Lock()
	c.procs = append(c.procs, ch)
	c.mu.Unlock()
	return ch, nil
}

// stop sends SIGTERM to every child, kills any still running after
// stopTimeout, and returns once all have exited.
func (c *children) stop() {
	c.mu.Lock()
	procs := c.procs
	c.procs = nil
	c.mu.Unlock()
	for _, p := range procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	timer := time.NewTimer(stopTimeout)
	defer timer.Stop()
	expired := false
	for _, p := range procs {
		if !expired {
			select {
			case <-p.exited:
				continue
			case <-timer.C:
				expired = true
			}
		}
		_ = p.cmd.Process.Kill() // fails only if it exited meanwhile
		<-p.exited
	}
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls url until it answers with status want, failing at
// once if the child serving it exits.
func waitReady(ctx context.Context, ch *child, method, url string, want int) error {
	deadline := time.Now().Add(readyTimeout)
	var last error
	for time.Now().Before(deadline) {
		select {
		case <-ch.exited:
			return fmt.Errorf("%s exited before serving %s: %v", ch.name, url, ch.err)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, method, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == want {
				return nil
			}
			last = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			last = err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s %s not ready after %v: %v", method, url, readyTimeout, last)
}

// cluster is one running http-lubm deployment.
type cluster struct {
	procs     children
	server    *child
	endpoints []*child
	serverURL string
	epURLs    []string // what the endpoints listen on
	stores    map[string]*store.Store
	oracle    map[string]*httpAnswer // per template
	client    *http.Client
	proxies   []*proxy // traced runs only
	rec       *recorder
}

// httpAnswer is a template's expected answer in both formats.
type httpAnswer struct {
	json, csv []string
}

func (c *cluster) close() {
	for _, p := range c.proxies {
		p.close()
	}
	c.procs.stop()
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

// startCluster generates the data, boots the endpoints and the server,
// waits for /readyz, builds the oracle and warms the server's planning
// caches. With rec set, the endpoints expose -metrics and each sits
// behind a recording proxy. On error every started child is stopped.
func startCluster(ctx context.Context, opts options, rec *recorder) (*cluster, error) {
	c := &cluster{rec: rec, stores: map[string]*store.Store{}, oracle: map[string]*httpAnswer{}}
	if err := c.boot(ctx, opts); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) boot(ctx context.Context, opts options) error {
	dataDir := filepath.Join(opts.workDir, "http-data")
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	gen := exec.CommandContext(ctx, filepath.Join(opts.binDir, "datagen"), "-benchmark", "lubm", "-out", dataDir,
		"-universities", strconv.Itoa(httpUniversities), "-scale", strconv.Itoa(httpScale)) // datagen's fixed default data
	if out, err := gen.CombinedOutput(); err != nil {
		return fmt.Errorf("datagen: %w: %s", err, out)
	}

	var serverArgs []string
	for i := 0; i < httpUniversities; i++ {
		name := fmt.Sprintf("university%d", i)
		path := filepath.Join(dataDir, name+".nt")
		port, err := freePort()
		if err != nil {
			return err
		}
		args := []string{"-data", path, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-name", name, "-drain", childDrain}
		if c.rec != nil {
			args = append(args, "-metrics")
		}
		ep, err := c.procs.start(filepath.Join(opts.binDir, "endpoint"), args...)
		if err != nil {
			return err
		}
		c.endpoints = append(c.endpoints, ep)
		epURL := fmt.Sprintf("http://127.0.0.1:%d", port)
		c.epURLs = append(c.epURLs, epURL)
		st, err := loadNT(path)
		if err != nil {
			return err
		}
		fedURL := epURL
		if c.rec != nil {
			p, err := newProxy(epURL, c.rec)
			if err != nil {
				return err
			}
			c.proxies = append(c.proxies, p)
			fedURL = p.url
		}
		// The server names an endpoint by its URL.
		c.stores[fedURL] = st
		serverArgs = append(serverArgs, "-endpoint", fedURL)
	}
	for i, u := range c.epURLs {
		if err := waitReady(ctx, c.endpoints[i], http.MethodHead, u+"/", http.StatusNoContent); err != nil {
			return err
		}
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	c.serverURL = fmt.Sprintf("http://127.0.0.1:%d", port)
	serverArgs = append(serverArgs, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-drain", childDrain)
	if c.server, err = c.procs.start(filepath.Join(opts.binDir, "lusail-server"), serverArgs...); err != nil {
		return err
	}
	if err := waitReady(ctx, c.server, http.MethodGet, c.serverURL+"/readyz", http.StatusOK); err != nil {
		return err
	}

	union := store.New()
	for _, st := range c.stores {
		union.AddGraph(st.Triples())
	}
	for name, text := range lubm.Queries {
		res, err := evalOver(union, text)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", name, err)
		}
		csvRows, err := expectedCSV(res)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", name, err)
		}
		c.oracle[name] = &httpAnswer{json: testfed.Canon(res), csv: csvRows}
	}

	c.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     httpClients,
		MaxIdleConnsPerHost: httpClients,
		DisableCompression:  true,
	}}
	for _, t := range inprocLUBMTemplates {
		if o := c.do(ctx, query{template: t.name, text: lubm.Queries[t.name]}, 0); o.err != nil {
			return fmt.Errorf("warm-up %s: %w", t.name, o.err)
		}
	}
	return nil
}

func loadNT(path string) (*store.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := rdf.ParseNTriples(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return store.FromGraph(g), nil
}

// httpSequence is the inproc-lubm template mix with a seeded share of
// text/csv requests.
func httpSequence(seed int64) func(int) query {
	deck := lubmDeck(seed)
	return func(idx int) query {
		t := deck(idx)
		csv := rand.New(rand.NewSource(seed*104_729+int64(idx))).Intn(csvEvery) == 0
		return query{template: t, text: lubm.Queries[t], csv: csv}
	}
}

// httpTiming is the client-side timing of one HTTP query.
type httpTiming struct {
	start, headers, firstByte, firstRow, last time.Time
}

// do sends one query, times it and checks the answer against the
// oracle. qid > 0 tags the request with a W3C traceparent carrying the
// query id, so the recording proxies can attribute endpoint calls.
func (c *cluster) do(ctx context.Context, q query, qid int64) outcome {
	o, _ := c.doTimed(ctx, q, qid)
	return o
}

func (c *cluster) doTimed(ctx context.Context, q query, qid int64) (outcome, httpTiming) {
	var tm httpTiming
	form := url.Values{"query": {q.text}}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.serverURL+"/sparql", strings.NewReader(form.Encode()))
	if err != nil {
		return outcome{err: err}, tm
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	accept, marker := "application/sparql-results+json", `"bindings":[{`
	if q.csv {
		accept, marker = "text/csv", "\n"
	}
	req.Header.Set("Accept", accept)
	if qid > 0 {
		req.Header.Set("traceparent", traceparent(qid))
	}
	tm.start = time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return outcome{err: err}, tm
	}
	defer resp.Body.Close()
	tm.headers = time.Now()
	body := &markerReader{r: resp.Body, marker: []byte(marker)}
	var res *sparql.Results
	var csvBody []byte
	var rerr error
	switch {
	case resp.StatusCode != http.StatusOK:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		rerr = fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
	case q.csv:
		csvBody, rerr = io.ReadAll(body)
	default:
		res, rerr = sparql.DecodeJSONStream(body)
	}
	tm.last = time.Now()
	if rerr == nil && resp.Trailer.Get("X-Lusail-Error") != "" {
		rerr = fmt.Errorf("server error trailer: %s", resp.Trailer.Get("X-Lusail-Error"))
	}
	tm.firstByte, tm.firstRow = body.firstByte, body.found
	if tm.firstByte.IsZero() {
		tm.firstByte = tm.last
	}
	if tm.firstRow.IsZero() {
		tm.firstRow = tm.last
	}
	o := outcome{latency: tm.last.Sub(tm.start), firstRow: tm.firstRow.Sub(tm.start), err: rerr, template: q.template}
	// The answer is checked after the clock stops.
	if rerr == nil {
		want := c.oracle[q.template]
		if q.csv {
			var got []string
			if got, o.err = csvCanon(bytes.NewReader(csvBody)); o.err == nil {
				o.err = sameMultiset(want.csv, got)
			}
		} else {
			o.err = sameMultiset(want.json, testfed.Canon(res))
		}
	}
	return o, tm
}

// traceparent renders a sampled W3C trace context whose trace id is
// the query id.
func traceparent(qid int64) string {
	return fmt.Sprintf("00-%032x-%016x-01", qid, qid)
}

// queryOfTraceparent recovers the query id from a traceparent header
// (0 when absent or foreign).
func queryOfTraceparent(h string) int64 {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		return 0
	}
	id, err := strconv.ParseInt(parts[1][16:], 16, 64)
	if err != nil || parts[1][:16] != "0000000000000000" {
		return 0
	}
	return id
}

// markerReader passes a response body through, noting when the first
// byte arrived and when the first occurrence of marker (the start of
// the first result row) was read.
type markerReader struct {
	r         io.Reader
	marker    []byte
	matched   int
	firstByte time.Time
	found     time.Time
}

func (m *markerReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	if n > 0 {
		now := time.Now()
		if m.firstByte.IsZero() {
			m.firstByte = now
		}
		if m.found.IsZero() {
			for _, b := range p[:n] {
				if b == m.marker[m.matched] {
					m.matched++
				} else if b == m.marker[0] {
					m.matched = 1
				} else {
					m.matched = 0
				}
				if m.matched == len(m.marker) {
					m.found = now
					break
				}
			}
		}
	}
	return n, err
}

func (c *cluster) loop(seconds float64, seq func(int) query, hook func(tm httpTiming, qid int64, o outcome)) *loop {
	return &loop{seconds: seconds, batch: httpBatch, clients: httpClients, window: timingWindow, issue: func(ctx context.Context, idx int) outcome {
		q := seq(idx)
		var qid int64
		if c.rec != nil {
			qid = c.rec.qids.Add(1)
		}
		o, tm := c.doTimed(ctx, q, qid)
		if hook != nil {
			hook(tm, qid, o)
		}
		return o
	}}
}

func runHTTPLUBM(opts options) (*report, error) {
	// An interrupted run still stops its children.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if opts.trace {
		return runHTTPTraced(ctx, opts)
	}
	c, setupS, err := medianSetup(func() (*cluster, error) { return startCluster(ctx, opts, nil) })
	if err != nil {
		return nil, err
	}
	defer c.close()
	before, err := scrape(c.serverURL)
	if err != nil {
		return nil, err
	}
	res, err := c.loop(opts.seconds, httpSequence(opts.seed), nil).run(ctx)
	if err != nil {
		return nil, err
	}
	after, err := scrape(c.serverURL)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(c.server.pid()))
	if err != nil {
		return nil, err
	}
	checkTail("http-lubm", res)
	reqs := after.delta(before, "lusail_endpoint_requests_total", "")
	rows := after.delta(before, "lusail_endpoint_rows_total", "")
	return reportOf(res, endToEnd(res, int64(reqs), int64(rows), rss, setupS)), nil
}

// promText is one scraped Prometheus text page: series -> value.
type promText map[string]float64

func scrape(base string) (promText, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	out := promText{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// sum adds every series of family name whose labels contain label.
func (p promText) sum(name, label string) float64 {
	var total float64
	for series, v := range p {
		fam, labels, _ := strings.Cut(series, "{")
		if fam == name && strings.Contains(labels, label) {
			total += v
		}
	}
	return total
}

func (p promText) delta(before promText, name, label string) float64 {
	return p.sum(name, label) - before.sum(name, label)
}

// serverQueryLog reads the server's recent-query ring (/debug/queries).
func serverQueryLog(base string) ([]serverQuery, error) {
	resp, err := http.Get(base + "/debug/queries")
	if err != nil {
		return nil, fmt.Errorf("server query log: %w", err)
	}
	defer resp.Body.Close()
	var page struct {
		Recent []serverQuery `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil, fmt.Errorf("server query log: %w", err)
	}
	return page.Recent, nil
}

// serverQuery is one /debug/queries entry's phase profile.
type serverQuery struct {
	SourceSelMs float64 `json:"source_selection_ms"`
	AnalysisMs  float64 `json:"analysis_ms"`
	ExecutionMs float64 `json:"execution_ms"`
}
