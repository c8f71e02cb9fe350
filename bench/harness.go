package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trajmatch"
)

// sizes are the fixed counts of the workloads. The corpus size is never
// traded for time; a tighter time cap shortens the phases instead.
type sizes struct {
	n           int // corpus of the search workloads
	ingestBase  int // sealed base of ingest-mixed
	knn         int // k-NN requests in the cold-search sequence
	rng         int // range requests
	sub         int // subknn requests
	pool        int // hot-search query pool (Zipf-drawn, cached)
	prefilter   int // distinct prefiltered queries of hot-search
	recall      int // prefiltered answers compared with exact ones
	watches     int // threshold watches of ingest-mixed
	tracks      int // new tracks generated for ingest-mixed's writers
	readers     int // reader queries of ingest-mixed, cycled so that time slices hold the same mix
	recoverKNN  int // k-NN answers compared across the reboot
	check       int // answers of each kind compared with brute force
	traceReqs   int // requests of a traced search pass
	traceCached int // requests of the traced cached phase
	traceTracks int // tracks of the traced write phase
	coreSample  int // queries whose kernel calls are timed one by one
}

func sizesFor(cfg config) sizes {
	s := sizes{
		n: 10000, ingestBase: 2000, knn: 140, rng: 42, sub: 28,
		pool: 256, prefilter: 600, recall: 100, watches: 100,
		tracks: 12000, readers: 32, recoverKNN: 64,
		check: 8, traceReqs: 150, traceCached: 2000, traceTracks: 300, coreSample: 16,
	}
	if cfg.trace {
		// A traced run is short of requests, so it can afford the full
		// brute-force sample.
		s.check = 32
	}
	if cfg.tiny {
		s = sizes{
			n: 300, ingestBase: 200, knn: 40, rng: 12, sub: 8,
			pool: 32, prefilter: 40, recall: 20, watches: 10,
			tracks: 400, readers: 8, recoverKNN: 8,
			check: 4, traceReqs: 30, traceCached: 100, traceTracks: 12, coreSample: 4,
		}
	}
	return s
}

const (
	knnK        = 10
	rangeRadius = 500.0
	// querySeedOffset separates the query generator's seed from the
	// corpus generator's, so a query is never a corpus member.
	querySeedOffset = 7919
)

// run is one workload execution: its settings, what it measured, and the
// listeners and engines it must shut down.
type run struct {
	cfg config
	sz  sizes
	dir string // this run's private directory under cfg.workDir

	metrics map[string]float64
	details map[string]detail
	shares  []layerShare
	notes   []string

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string // the first few failure messages
	checked   bool     // the correctness check ran

	tr       *tracer // nil when tracing is off
	cleanups []func() error
}

func newRun(cfg config) *run {
	r := &run{
		cfg:     cfg,
		sz:      sizesFor(cfg),
		dir:     filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano())),
		metrics: map[string]float64{},
		details: map[string]detail{},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation or comparison.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}

// expect counts one comparison and fails it unless ok.
func (r *run) expect(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) onClose(f func() error) { r.cleanups = append(r.cleanups, f) }

// close shuts down what the run started, last started first, and removes
// the run's directory.
func (r *run) close() error {
	var first error
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		if err := r.cleanups[i](); err != nil && first == nil {
			first = err
		}
	}
	r.cleanups = nil
	if err := os.RemoveAll(r.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// serve puts h behind a loopback listener and returns its base URL. On a
// traced run the handler value the product returned is wrapped in a span
// recorder, unless where is empty; with tracing off it is served as is.
func (r *run) serve(where string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if r.tr != nil && where != "" {
		h = r.tr.wrap(where, h)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always returns ErrServerClosed after Close
	}()
	r.onClose(func() error {
		err := srv.Close()
		<-done
		return err
	})
	return "http://" + ln.Addr().String(), nil
}

// serveEngine serves e's /v1 API and closes e when the run ends.
func (r *run) serveEngine(where string, e *trajmatch.Engine) (string, error) {
	r.onClose(e.Close)
	return r.serve(where, trajmatch.NewAPIHandler(e, trajmatch.HandlerOptions{}))
}

// client is one connection's worth of requests: a closed-loop client
// owns one, so the benchmark holds at most as many connections as it has
// clients.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	buf  bytes.Buffer
}

func (r *run) newClient(base string) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	r.onClose(func() error { tp.CloseIdleConnections(); return nil })
	return &client{hc: &http.Client{Transport: tp, Timeout: 60 * time.Second}, base: base, tr: r.tr}
}

// traceHeader carries the request id of a traced request to the handler
// wrapper; the router does not forward it, so node spans fall back to
// the tracer's current request.
const traceHeader = "X-Bench-Request"

// post sends body and returns the status, the response bytes (valid
// until the client's next request) and the latency from the write of the
// request to the last byte of the response.
func (c *client) post(path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	span := -1
	if c.tr != nil {
		id := c.tr.nextRequest()
		req.Header.Set(traceHeader, strconv.FormatInt(id, 10))
		span = c.tr.begin("client.request", "bench", id)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	if span >= 0 {
		c.tr.end(span)
	}
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), lat, err
}

// request is one prepared /v1 request: the body is marshalled before any
// clock starts.
type request struct {
	kind string // "knn", "range", "subknn" or "prefilter"
	path string
	q    *trajmatch.Trajectory
	body []byte
}

type wireTraj struct {
	ID     int          `json:"id"`
	Points [][3]float64 `json:"points"`
}

func toWire(t *trajmatch.Trajectory) wireTraj {
	w := wireTraj{ID: t.ID, Points: make([][3]float64, len(t.Points))}
	for i, p := range t.Points {
		w.Points[i] = [3]float64{p.X, p.Y, p.T}
	}
	return w
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request types always marshal
	}
	return b
}

func searchRequest(kind string, q *trajmatch.Trajectory) request {
	body := struct {
		Kind      string   `json:"kind"`
		K         int      `json:"k,omitempty"`
		Radius    float64  `json:"radius,omitempty"`
		Prefilter bool     `json:"prefilter,omitempty"`
		Query     wireTraj `json:"query"`
	}{Kind: kind, K: knnK, Query: toWire(q)}
	switch kind {
	case "range":
		body.K, body.Radius = 0, rangeRadius
	case "prefilter":
		body.Kind, body.Prefilter = "knn", true
	}
	return request{kind: kind, path: "/v1/search", q: q, body: mustJSON(body)}
}

// neighbor is one result of a /v1/search answer.
type neighbor struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// searchAnswer is what the benchmark reads of a /v1/search response.
type searchAnswer struct {
	Results  json.RawMessage `json:"results"`
	Cached   bool            `json:"cached"`
	Degraded bool            `json:"degraded"`
}

// answers remembers the first answer each request of a sequence got, so
// every later answer to the same request — a later pass, a cache hit —
// is compared with it byte for byte.
type answers struct {
	r     *run
	first []atomic.Pointer[[]byte]
}

func newAnswers(r *run, n int) *answers {
	return &answers{r: r, first: make([]atomic.Pointer[[]byte], n)}
}

// decodeAnswer decodes one /v1/search response after its clock has
// stopped, failing the request if it is not a complete 200 answer.
func (r *run) decodeAnswer(idx int, req request, status int, body []byte) (searchAnswer, bool) {
	var ans searchAnswer
	if status != http.StatusOK {
		r.fail("%s request %d: status %d: %s", req.kind, idx, status, bytes.TrimSpace(body))
		return ans, false
	}
	if err := json.Unmarshal(body, &ans); err != nil || ans.Results == nil {
		r.fail("%s request %d: undecodable answer: %v", req.kind, idx, err)
		return ans, false
	}
	if ans.Degraded {
		r.fail("%s request %d: degraded answer", req.kind, idx)
	}
	return ans, true
}

// check compares an answer with the first answer to the same request.
func (a *answers) check(idx int, req request, ans searchAnswer) {
	got := []byte(ans.Results)
	if a.first[idx].CompareAndSwap(nil, &got) {
		return
	}
	if want := *a.first[idx].Load(); !bytes.Equal(want, got) {
		a.r.fail("%s request %d: answer differs from the first one: %s vs %s", req.kind, idx, got, want)
	}
}

// results returns the decoded first answer of request idx, or false if
// the request was never answered.
func (a *answers) results(idx int) ([]neighbor, bool) {
	p := a.first[idx].Load()
	if p == nil {
		return nil, false
	}
	var ns []neighbor
	if err := json.Unmarshal(*p, &ns); err != nil {
		return nil, false
	}
	return ns, true
}

// failedMS stands in for the latency of a request that failed: it misses
// any latency limit.
const failedMS = 60000

// loop describes one closed-loop pass: clients that each send their next
// request only after the previous answer is complete.
type loop struct {
	url     string
	reqs    []request
	clients int
	d       time.Duration      // when positive, stop after this long
	limit   int                // when positive, stop once each client has sent this many requests
	pick    func(c, i int) int // index into reqs of client c's i-th request
	ans     *answers           // nil when answers legitimately change between repeats
	// after runs in the client's goroutine once an answer has been
	// checked: the traced run's replays hang here.
	after func(idx int, req request, a searchAnswer, lat time.Duration, respBytes int)
	// untraced sends through clients that record no span, whatever the run.
	untraced bool
}

func (r *run) closedLoop(l loop) pass {
	p := pass{samples: make([][]sample, l.clients)}
	cs := make([]*client, l.clients)
	for c := range cs {
		cs[c] = r.newClient(l.url)
		if l.untraced {
			cs[c].tr = nil
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(l.d)
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				now := time.Now()
				if (l.d > 0 && !now.Before(deadline)) || (l.limit > 0 && i >= l.limit) {
					break
				}
				idx := l.pick(c, i)
				req := l.reqs[idx]
				r.attempted.Add(1)
				status, body, lat, err := cs[c].post(req.path, req.body)
				if err != nil {
					r.fail("%s request %d: %v", req.kind, idx, err)
					p.samples[c] = append(p.samples[c], sample{now.Sub(t0).Seconds(), failedMS})
					continue
				}
				p.samples[c] = append(p.samples[c], sample{now.Sub(t0).Seconds(), ms(lat)})
				a, ok := r.decodeAnswer(idx, req, status, body)
				if ok && l.ans != nil {
					l.ans.check(idx, req, a)
				}
				if ok && l.after != nil {
					l.after(idx, req, a, lat, len(body))
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	return p
}

// timedPasses splits seconds into numPasses passes and replays l's
// requests from their start in each; a pass ends when its time is up or its
// clients have reached l.limit, whichever is first.
func (r *run) timedPasses(l loop, seconds float64) passStats {
	l.d = time.Duration(seconds / numPasses * float64(time.Second))
	ps := passStats{l: l}
	for p := 0; p < numPasses; p++ {
		ps.passes = append(ps.passes, r.closedLoop(l))
	}
	return ps
}

// inOrder is the pick function of one client that walks the sequence from
// its start, wrapping around if asked for more.
func inOrder(n int) func(c, i int) int { return func(_, i int) int { return i % n } }
