package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the benchmark recorded itself, at a layer
// boundary it can see from outside: the client's request, a handler value
// the product returned, or a direct call into a layer's public function.
// Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 when no recorded span contains it
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Where   string `json:"where"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"` // duration minus the part its children cover
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	current atomic.Int64 // the request a header-less handler call belongs to
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRequest starts a new request id and makes it the current one.
func (t *tracer) nextRequest() int64 { return t.current.Add(1) }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name, where string, request int64) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Request: request, Name: name, Where: where, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// timed records f as a span of the current request and returns how long
// it took.
func (t *tracer) timed(name, where string, f func()) time.Duration {
	h := t.begin(name, where, t.current.Load())
	f()
	t.end(h)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[h].dur()
}

// lastDur returns the duration of the most recent finished span with the
// given name and place. Phases that ask have one client, so that span
// belongs to the request that has just completed.
func (t *tracer) lastDur(name, where string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Name == name && s.Where == where && s.End != 0 {
			return s.dur()
		}
	}
	return 0
}

// wrap records an http.handler span around every call of h. The request
// id comes from the benchmark client's header; a request without one (a
// router's call to its nodes) belongs to the current request, which is
// exact because traced phases that reach a router use one client.
func (t *tracer) wrap(where string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := t.current.Load()
		if v := req.Header.Get(traceHeader); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				id = n
			}
		}
		sp := t.begin("http.handler", where, id)
		h.ServeHTTP(w, req)
		t.end(sp)
	})
}

// finish links each span to its parent — the shortest span of the same
// request that contains it in time — and computes self times.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[int64][]int{}
	for i, s := range t.spans {
		byReq[s.Request] = append(byReq[s.Request], i)
	}
	for _, group := range byReq {
		for _, i := range group {
			s := &t.spans[i]
			best := -1
			for _, j := range group {
				p := t.spans[j]
				if j == i || p.Start > s.Start || p.End < s.End || p.dur() <= s.dur() {
					continue
				}
				if best < 0 || p.dur() < t.spans[best].dur() {
					best = j
				}
			}
			if best >= 0 {
				s.Parent = t.spans[best].ID
			}
		}
	}
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID])
	}
	return t.spans
}

// covered returns the length of the union of the spans' intervals.
func covered(cs []span) int64 {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total, end int64
	for _, c := range cs {
		if c.End <= end {
			continue
		}
		total += c.End - max(c.Start, end)
		end = c.End
	}
	return total
}

// layerShare is each layer's share of the client.request time of one
// class of traced requests.
type layerShare struct {
	Class string             `json:"class"`
	Share map[string]float64 `json:"share"`
}

// addShares records a class's layer times as shares of its total
// client.request time.
func (r *run) addShares(class string, clientTotal float64, layers map[string]float64) {
	sh := layerShare{Class: class, Share: map[string]float64{}}
	if clientTotal > 0 {
		for l, v := range layers {
			sh.Share[l] = v / clientTotal
		}
	}
	r.shares = append(r.shares, sh)
}

// finishTrace fills every per-layer metric the workload did not measure
// with zero: a layer that did no work took no time.
func (r *run) finishTrace(sp *spec) {
	for _, m := range sp.PerLayer {
		if _, ok := r.metrics[m.Name]; !ok {
			r.metrics[m.Name] = 0
		}
	}
	r.set("bench.failed_share", float64(r.failed.Load())/float64(max(r.attempted.Load(), 1)))
}

// writeSpans writes the span file: environment, layer shares and every
// span with its parent and self time.
func (r *run) writeSpans() error {
	out := struct {
		Workload    string       `json:"workload"`
		Seed        int64        `json:"seed"`
		Environment environment  `json:"environment"`
		Shares      []layerShare `json:"layer_shares"`
		Spans       []span       `json:"spans"`
	}{r.cfg.workload, r.cfg.seed, readEnvironment(), r.shares, r.tr.finish()}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	r.note("%d spans written to %s", len(out.Spans), r.spanPath())
	return os.WriteFile(r.spanPath(), b, 0o644)
}
