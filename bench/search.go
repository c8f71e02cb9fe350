package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"trajmatch"
	"trajmatch/internal/core"
)

// standalone builds the corpus, its TrajTree and a one-shard engine over
// it — the tree is built apart from the engine so a traced run can replay
// queries against it. It returns when the first request is sendable and
// records setup_s up to that moment.
type standalone struct {
	db   []*trajmatch.Trajectory
	idx  *trajmatch.Index
	eng  *trajmatch.Engine
	url  string
	t0   time.Time
	genS float64
}

func (r *run) buildStandalone(n int, eopt trajmatch.EngineOptions) (*standalone, error) {
	s := &standalone{t0: time.Now()}
	s.db = genTaxi(n, 0)
	s.genS = since(s.t0)
	tb := time.Now()
	idx, err := trajmatch.NewIndex(s.db, indexOptions())
	if err != nil {
		return nil, err
	}
	s.idx = idx
	buildS := since(tb)
	s.eng = trajmatch.NewEngineFromIndex(idx, eopt)
	if s.url, err = r.serveEngine("standalone", s.eng); err != nil {
		return nil, err
	}
	if r.tr != nil {
		r.set("trajtree.build_s", buildS)
		r.set("bench.synth_gen_s", s.genS)
	}
	return s, nil
}

// ready marks the end of set-up.
func (r *run) ready(t0 time.Time) {
	if r.tr == nil {
		r.set("setup_s", since(t0))
	}
}

// coldSearch: every request reaches the index. One closed-loop client
// replays a fixed mix of knn, range and subknn requests against a
// one-shard engine with its result cache off, so passes are identical.
func coldSearch(r *run) error {
	s, err := r.buildStandalone(r.sz.n, trajmatch.EngineOptions{CacheSize: -1})
	if err != nil {
		return err
	}
	reqs := searchSequence(r.sz, r.cfg.seed, true)
	ans := newAnswers(r, len(reqs))
	r.ready(s.t0)
	l := loop{url: s.url, reqs: reqs, clients: 1, limit: len(reqs), pick: inOrder(len(reqs)), ans: ans}
	if r.tr != nil {
		return r.tracedSearch(l, s, s.db)
	}
	r.reportSearch(r.timedPasses(l, r.cfg.seconds))
	r.checkAgainstBrute(reqs, ans, s.db)
	return nil
}

// reportSearch sets the metrics of a read phase that mixes knn, range and
// subknn requests.
func (r *run) reportSearch(ps passStats) {
	r.setSearch(ps)
	r.setP50("range_p50_ms", ps, "range")
	r.setP50("subknn_p50_ms", ps, "subknn")
}

// replay is what the traced run learned about one request: the
// client-observed latency, the handler span, and the same query replayed
// directly against the engine and the tree.
type replay struct {
	idx     int
	kind    string
	client  time.Duration
	handler time.Duration
	engine  time.Duration
	tree    time.Duration
	stats   trajmatch.QueryStats
	results int
}

func searchQuery(kind string) trajmatch.Query {
	switch kind {
	case "range":
		return trajmatch.Query{Kind: trajmatch.QueryRange, Radius: rangeRadius, WithStats: true}
	case "subknn":
		return trajmatch.Query{Kind: trajmatch.QuerySubKNN, K: knnK, WithStats: true}
	case "prefilter":
		return trajmatch.Query{Kind: trajmatch.QueryKNN, K: knnK, Prefilter: true, WithStats: true}
	}
	return trajmatch.Query{Kind: trajmatch.QueryKNN, K: knnK, WithStats: true}
}

// replayEngine runs req directly against Engine.Search inside an
// engine.search span.
func (r *run) replayEngine(eng *trajmatch.Engine, req request) (time.Duration, trajmatch.Answer) {
	var a trajmatch.Answer
	d := r.tr.timed("engine.search", "server", func() {
		var err error
		if a, err = eng.Search(context.Background(), req.q, searchQuery(req.kind)); err != nil {
			r.fail("engine replay of %s: %v", req.kind, err)
		}
	})
	return d, a
}

// replayTree runs a knn or range request directly against the tree inside
// a tree.search span; the engine serving the same tree is idle meanwhile.
func (r *run) replayTree(idx *trajmatch.Index, req request) time.Duration {
	return r.tr.timed("tree.search", "trajtree", func() {
		var err error
		switch req.kind {
		case "knn":
			_, _, _, err = idx.SearchKNN(req.q, knnK, nil, nil)
		case "range":
			_, _, _, err = idx.SearchRange(req.q, rangeRadius, nil)
		}
		if err != nil {
			r.fail("tree replay of %s: %v", req.kind, err)
		}
	})
}

// tracedSearch is cold-search's traced run: the first traceReqs requests
// traced with their replays, between two untraced reference passes over
// the same requests so that a process still warming up, or a host drifting,
// weighs on both sides of the tracing overhead; then the kernel sampled
// call by call.
func (r *run) tracedSearch(l loop, s *standalone, db []*trajmatch.Trajectory) error {
	rawURL, err := r.serve("", trajmatch.NewAPIHandler(s.eng, trajmatch.HandlerOptions{}))
	if err != nil {
		return err
	}
	l.limit = min(r.sz.traceReqs, len(l.reqs))
	ref := l
	ref.url, ref.untraced = rawURL, true
	before := r.closedLoop(ref)

	var reps []replay
	var reqBytes, respBytes []float64
	l.after = func(idx int, req request, a searchAnswer, lat time.Duration, n int) {
		rp := replay{idx: idx, kind: req.kind, client: lat, handler: r.tr.lastDur("http.handler", "standalone")}
		var ea trajmatch.Answer
		rp.engine, ea = r.replayEngine(s.eng, req)
		rp.stats, rp.results = ea.Stats, len(ea.Results)
		if req.kind != "subknn" {
			rp.tree = r.replayTree(s.idx, req)
		}
		reps = append(reps, rp)
		reqBytes, respBytes = append(reqBytes, float64(len(req.body))), append(respBytes, float64(n))
	}
	traced := r.closedLoop(l)
	after := r.closedLoop(ref)

	dists := r.checkAgainstBrute(l.reqs, l.ans, db)
	k := r.sampleKernel(l.reqs, reps, dists, db)

	knn := byKind(reps, "knn")
	if len(knn) == 0 {
		return fmt.Errorf("the traced pass held no knn request")
	}
	kernelMS := k.estimateMS(knn)
	treeMS := meanOf(knn, func(p replay) float64 { return ms(p.tree) })
	engMS := meanOf(knn, func(p replay) float64 { return ms(p.engine) })
	handlerMS := meanOf(knn, func(p replay) float64 { return ms(p.handler) })
	clientMS := meanOf(knn, func(p replay) float64 { return ms(p.client) })
	distcalls := meanOf(knn, func(p replay) float64 { return float64(p.stats.DistanceCalls) })

	r.set("core.edwp_full_us", k.fullUS)
	r.set("core.edwp_abandon_us", k.abandonUS)
	r.set("core.abandon_cost_ratio", ratio(k.abandonUS, k.fullUS))
	r.set("core.distcalls_per_query", distcalls)
	r.set("core.abandons_per_query", meanOf(knn, func(p replay) float64 { return float64(p.stats.EarlyAbandons) }))
	r.set("core.full_evals_per_query", meanOf(knn, func(p replay) float64 { return float64(p.stats.DistanceCalls - p.stats.EarlyAbandons) }))
	r.set("core.kernel_ms_per_query_est", kernelMS)
	if sub := byKind(reps, "subknn"); len(sub) > 0 {
		r.set("core.subscan_us_per_traj", meanOf(sub, func(p replay) float64 { return us(p.engine) })/float64(len(db)))
	}
	r.set("trajtree.knn_ms", treeMS)
	r.set("trajtree.range_ms", meanOf(byKind(reps, "range"), func(p replay) float64 { return ms(p.tree) }))
	r.set("trajtree.self_ms", treeMS-kernelMS)
	r.set("trajtree.lb_calls_per_query", meanOf(knn, func(p replay) float64 { return float64(p.stats.LowerBoundCalls) }))
	r.set("trajtree.nodes_visited_per_query", meanOf(knn, func(p replay) float64 { return float64(p.stats.NodesVisited) }))
	r.set("trajtree.nodes_pruned_per_query", meanOf(knn, func(p replay) float64 { return float64(p.stats.NodesPruned) }))
	r.set("trajtree.touched_share", distcalls/float64(len(db)))
	r.set("trajtree.evals_per_result", ratio(distcalls, meanOf(knn, func(p replay) float64 { return float64(p.results) })))
	r.set("server.engine_knn_ms", engMS)
	r.set("server.engine_self_us", (engMS-treeMS)*1000)
	r.set("server.http_self_us", (handlerMS-engMS)*1000)
	r.set("server.client_overhead_us", (clientMS-handlerMS)*1000)
	r.set("server.request_bytes", mean(reqBytes))
	r.set("server.response_bytes", mean(respBytes))
	seen := make([]float64, len(knn))
	for i, p := range knn {
		seen[i] = ms(p.client)
	}
	r.set("bench.search_p95_ms", p95(sorted(seen)))
	knnP50 := func(p pass) float64 { return p50(sorted(passStats{l: l, passes: []pass{p}}.latencies("knn")[0])) }
	r.set("bench.trace_overhead_share", ratio(knnP50(traced), (knnP50(before)+knnP50(after))/2)-1)
	r.addShares("knn", clientMS, map[string]float64{
		"core": kernelMS, "trajtree": treeMS - kernelMS, "server": handlerMS - treeMS, "bench": clientMS - handlerMS,
	})
	return nil
}

// kernel is the EDwP kernel timed one call at a time.
type kernel struct {
	fullUS    float64 // a complete core.AvgDistance
	abandonUS float64 // a core.AvgDistanceBounded that gives up against the k-th best
}

// estimateMS prices the kernel calls of the given requests: full
// evaluations at fullUS, abandoned ones at abandonUS, per query.
func (k kernel) estimateMS(reps []replay) float64 {
	return meanOf(reps, func(p replay) float64 {
		full := float64(p.stats.DistanceCalls - p.stats.EarlyAbandons)
		return (full*k.fullUS + float64(p.stats.EarlyAbandons)*k.abandonUS) / 1000
	})
}

// sampleKernel times the kernel on (query, trajectory) pairs like the
// ones a search evaluates. For each sampled knn request the brute-force
// distances rank the corpus: the k nearest are the evaluations the search
// completes, and the trajectories ranked after them, as far down as the
// search made distance calls, stand for the ones it abandons — each is
// run against the final k-th best distance, which is the tightest limit
// the search ever used, so abandonUS is a lower estimate.
func (r *run) sampleKernel(reqs []request, reps []replay, dists map[int][]float64, db []*trajmatch.Trajectory) kernel {
	calls := map[int]int{}
	for _, p := range reps {
		calls[p.idx] = p.stats.DistanceCalls
	}
	var sample []int
	for idx := range dists {
		if reqs[idx].kind == "knn" && calls[idx] > knnK {
			sample = append(sample, idx)
		}
	}
	sort.Ints(sample)
	sample = sample[:min(len(sample), r.sz.coreSample)]
	var full, abandon []float64
	for _, idx := range sample {
		q, d := reqs[idx].q, dists[idx]
		order := ranked(d, db)
		kth := d[order[knnK-1]]
		touched := order[knnK:min(calls[idx], len(order))]
		for _, i := range order[:knnK] {
			full = append(full, us(r.tr.timed("core.sample", "core", func() { core.AvgDistance(q, db[i]) })))
		}
		step := max(1, len(touched)/20)
		for j := 0; j < len(touched); j += step {
			t := db[touched[j]]
			full = append(full, us(r.tr.timed("core.sample", "core", func() { core.AvgDistance(q, t) })))
			abandon = append(abandon, us(r.tr.timed("core.sample", "core", func() { core.AvgDistanceBounded(q, t, kth) })))
		}
	}
	return kernel{fullUS: mean(full), abandonUS: mean(abandon)}
}

func byKind(reps []replay, kind string) []replay {
	var out []replay
	for _, p := range reps {
		if p.kind == kind {
			out = append(out, p)
		}
	}
	return out
}

func meanOf(reps []replay, f func(replay) float64) float64 {
	v := make([]float64, len(reps))
	for i, p := range reps {
		v[i] = f(p)
	}
	return mean(v)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
