package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"time"

	"trajmatch"
	"trajmatch/internal/sketch"
)

const (
	hotClients = 2
	zipfS      = 1.1
	// cachedShare of hot-search's measured time goes to the cached phase,
	// the rest to the prefilter phase.
	cachedShare = 0.5
)

// hotSearch: the /v1/search route used the opposite way to cold-search.
// Phase cached draws k-NN requests Zipf-distributed from a small pool the
// result cache already holds, so decode, validate, cache probe and encode
// are all the work there is. Phase prefilter sends distinct k-NN requests
// with prefilter:true, which bypass the cache and put sketch admission in
// front of a fraction of the kernels.
func hotSearch(r *run) error {
	s, err := r.buildStandalone(r.sz.n, trajmatch.EngineOptions{Prefilter: true})
	if err != nil {
		return err
	}
	qs := genTaxi(r.sz.pool+r.sz.prefilter, querySeedOffset)
	recallSample := qs[r.sz.pool : r.sz.pool+r.sz.recall] // the same queries whatever the order
	qs = append(shuffled(qs[:r.sz.pool], r.cfg.seed), shuffled(qs[r.sz.pool:], r.cfg.seed)...)
	reqs := make([]request, len(qs))
	for i, q := range qs {
		kind := "knn"
		if i >= r.sz.pool {
			kind = "prefilter"
		}
		reqs[i] = searchRequest(kind, q)
	}
	ans := newAnswers(r, len(reqs))
	r.ready(s.t0)

	// Untimed warm-up: every pool query once, so the cache holds each
	// answer and ans remembers the bytes its miss produced.
	warm := loop{url: s.url, reqs: reqs, clients: hotClients, limit: (r.sz.pool + hotClients - 1) / hotClients,
		pick: func(c, i int) int { return min(i*hotClients+c, r.sz.pool-1) }, ans: ans, untraced: true}
	r.closedLoop(warm)
	warmHits := s.eng.Stats().CacheHits

	// Client c of the cached phase follows its own seeded Zipf draw,
	// wrapping around if the phase outlasts it.
	const drawn = 1 << 17
	draws := make([][]int, hotClients)
	for c := range draws {
		z := rand.NewZipf(rand.New(rand.NewSource(r.cfg.seed*31+int64(c))), zipfS, 1, uint64(r.sz.pool-1))
		draws[c] = make([]int, drawn)
		for i := range draws[c] {
			draws[c][i] = int(z.Uint64())
		}
	}
	zipfPick := func(c, i int) int { return draws[c][i%drawn] }
	cached := loop{url: s.url, reqs: reqs, clients: hotClients, pick: zipfPick, ans: ans}
	pre := reqs[r.sz.pool:]
	prefilter := loop{url: s.url, reqs: pre, clients: hotClients, limit: (len(pre) + hotClients - 1) / hotClients,
		ans: newAnswers(r, len(pre)), pick: func(c, i int) int { return (i*hotClients + c) % len(pre) }}
	if r.tr != nil {
		if err := r.tracedHot(cached, prefilter, s); err != nil {
			return err
		}
	} else {
		// A cache hit leaves the engine as it was, so the cached phase
		// repeats like any read phase: each pass follows the same draws for
		// as long as its time lasts.
		cp := r.timedPasses(cached, r.cfg.seconds*cachedShare)
		r.setSearch(cp)
		sent := 0
		for _, p := range cp.passes {
			sent += p.done()
		}
		hits := int(s.eng.Stats().CacheHits - warmHits)
		r.expect(hits == sent, "cached phase: %d cache hits for %d requests", hits, sent)
		ps := r.timedPasses(prefilter, r.cfg.seconds*(1-cachedShare))
		r.setP50("prefilter_p50_ms", ps, "prefilter")
	}
	recall, err := r.prefilterRecall(s.eng, recallSample, pre, prefilter.ans)
	if err != nil {
		return err
	}
	if r.tr == nil {
		r.set("prefilter_recall_at_10", recall)
	}
	r.checkAgainstBrute(reqs[:r.sz.pool], ans, s.db)
	return nil
}

// prefilterRecall is the mean overlap of the sample queries' prefiltered
// answers with their exact k-NN answers.
func (r *run) prefilterRecall(eng *trajmatch.Engine, sample []*trajmatch.Trajectory, reqs []request, ans *answers) (float64, error) {
	exact, err := eng.SearchBatch(context.Background(), sample, trajmatch.Query{Kind: trajmatch.QueryKNN, K: knnK})
	if err != nil {
		return 0, err
	}
	at := map[*trajmatch.Trajectory]int{}
	for i, rq := range reqs {
		at[rq.q] = i
	}
	var overlaps []float64
	for i, q := range sample {
		got, ok := ans.results(at[q])
		if !ok {
			continue // the phase ended before this request was sent
		}
		in := map[int]bool{}
		for _, e := range exact[i].Results {
			in[e.Traj.ID] = true
		}
		hit := 0
		for _, n := range got {
			if in[n.ID] {
				hit++
			}
		}
		overlaps = append(overlaps, float64(hit)/float64(len(exact[i].Results)))
	}
	r.expect(len(overlaps) > 0, "no prefiltered answer to measure recall on")
	return mean(overlaps), nil
}

// httpFloor sends l's requests to a handler that only drains the body and
// writes respBytes bytes, and returns the mean client-observed latency
// minus the handler span, in µs: what any handler behind net/http costs a
// client on this loopback, whatever the product does.
func (r *run) httpFloor(l loop, respBytes float64) (float64, error) {
	resp := bytes.Repeat([]byte{' '}, int(respBytes))
	url, err := r.serve("floor", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body) // a failed read shows as a failed request at the client
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(resp)
	}))
	if err != nil {
		return 0, err
	}
	c := r.newClient(url)
	var over []float64
	for i := 0; i < l.limit; i++ {
		req := l.reqs[l.pick(0, i)]
		if _, _, lat, err := c.post(req.path, req.body); err == nil {
			over = append(over, us(lat-r.tr.lastDur("http.handler", "floor")))
		}
	}
	return mean(over), nil
}

// tracedHot traces one client through traceCached cache hits and
// traceReqs prefiltered requests, replaying each against the engine, and
// times sketch.Index.Candidates directly on a sketch index of its own.
func (r *run) tracedHot(cached, prefilter loop, s *standalone) error {
	cached.clients, cached.limit = 1, r.sz.traceCached
	before := s.eng.Stats()
	var hitClient, hitHandler, hitEngine, reqBytes, respBytes []float64
	cached.after = func(idx int, req request, a searchAnswer, lat time.Duration, n int) {
		r.expect(a.Cached, "pool request %d was not served from the cache", idx)
		d, _ := r.replayEngine(s.eng, req)
		hitClient, hitHandler, hitEngine = append(hitClient, us(lat)), append(hitHandler, us(r.tr.lastDur("http.handler", "standalone"))), append(hitEngine, us(d))
		reqBytes, respBytes = append(reqBytes, float64(len(req.body))), append(respBytes, float64(n))
	}
	r.closedLoop(cached)
	after := s.eng.Stats()
	floor, err := r.httpFloor(cached, mean(respBytes))
	if err != nil {
		return err
	}
	r.set("server.cache_hit_share", ratio(float64(after.CacheHits-before.CacheHits), float64(after.Queries-before.Queries)))
	r.set("server.cache_hit_us", mean(hitEngine))
	r.set("server.http_self_us", mean(hitHandler)-mean(hitEngine))
	r.set("server.client_overhead_us", mean(hitClient)-mean(hitHandler))
	r.set("server.request_bytes", mean(reqBytes))
	r.set("server.response_bytes", mean(respBytes))
	r.set("bench.http_floor_us", floor)
	r.set("bench.search_p95_ms", p95(sorted(hitClient))/1000)
	// What a cache hit spends outside the handler value is net/http's
	// connection handling, loopback TCP and this benchmark's client; a
	// handler that does nothing pays the same, so that floor is split off.
	r.addShares("cached knn", mean(hitClient), map[string]float64{
		"server": mean(hitHandler), "net/http+tcp+bench floor": floor, "unexplained": mean(hitClient) - mean(hitHandler) - floor,
	})

	tb := time.Now()
	ix, err := sketch.Build(s.db, s.eng.SketchParams())
	if err != nil {
		return err
	}
	r.set("sketch.build_s", since(tb))
	// The engine asks each shard's sketch for 8k candidates or 1/24 of the
	// shard, whichever is larger (prefilterWant in internal/server).
	want := max(8*knnK, len(s.db)/24)
	prefilter.clients, prefilter.limit = 1, min(r.sz.traceReqs, len(prefilter.reqs))
	var client, handler, engine, candUS, cands, skipped, evals []float64
	prefilter.after = func(idx int, req request, _ searchAnswer, lat time.Duration, _ int) {
		d, ea := r.replayEngine(s.eng, req)
		c := r.tr.timed("sketch.candidates", "sketch", func() { ix.Candidates(req.q, want) })
		client, handler, engine, candUS = append(client, ms(lat)), append(handler, ms(r.tr.lastDur("http.handler", "standalone"))), append(engine, ms(d)), append(candUS, us(c))
		cands, skipped, evals = append(cands, float64(ea.Stats.PrefilterCandidates)), append(skipped, float64(ea.Stats.PrefilterSkipped)), append(evals, float64(ea.Stats.DistanceCalls))
	}
	r.closedLoop(prefilter)
	r.set("sketch.candidates_us", mean(candUS))
	r.set("sketch.candidates_per_query", mean(cands))
	r.set("sketch.skipped_share", ratio(mean(skipped), mean(skipped)+mean(cands)))
	r.set("sketch.verify_evals_per_query", mean(evals))
	r.set("core.distcalls_per_query", mean(evals))
	r.set("server.engine_knn_ms", mean(engine))
	sketchMS := mean(candUS) / 1000
	r.addShares("prefiltered knn", mean(client), map[string]float64{
		"sketch": sketchMS, "trajtree+core": mean(engine) - sketchMS,
		"server": mean(handler) - mean(engine), "bench": mean(client) - mean(handler),
	})
	return nil
}
