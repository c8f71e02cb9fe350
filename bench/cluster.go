package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"trajmatch"
)

// clusterShards is the global shard count of cluster-hop, one per node.
const clusterShards = 2

// clusterHop: cold-search's corpus in two global shards, one partition
// engine per node behind the cluster node handler, a router over the two
// node URLs, everything on loopback in this process. One closed-loop
// client sends cold-search's knn and range requests through the router,
// so the difference from cold-search prices the hop, the re-encode and
// the wait for the slower node.
func clusterHop(r *run) error {
	t0 := time.Now()
	db := genTaxi(r.sz.n, 0)
	genS := since(t0)
	nodes := make([]*trajmatch.Engine, clusterShards)
	urls := make([]string, clusterShards)
	for i := range nodes {
		e, err := trajmatch.NewEngine(db, indexOptions(), trajmatch.EngineOptions{
			CacheSize: -1,
			Partition: &trajmatch.EnginePartition{Total: clusterShards, Owned: []int{i}},
		})
		if err != nil {
			return err
		}
		r.onClose(e.Close)
		nodes[i] = e
		if urls[i], err = r.serve(nodeName(i), trajmatch.NewClusterNodeHandler(e, trajmatch.HandlerOptions{})); err != nil {
			return err
		}
	}
	tp := &http.Transport{}
	r.onClose(func() error { tp.CloseIdleConnections(); return nil })
	rt, err := trajmatch.NewClusterRouter(context.Background(), trajmatch.ClusterConfig{Nodes: urls, Client: &http.Client{Transport: tp}})
	if err != nil {
		return err
	}
	url, err := r.serve("router", trajmatch.NewClusterRouterHandler(rt))
	if err != nil {
		return err
	}
	reqs := searchSequence(r.sz, r.cfg.seed, false)
	ans := newAnswers(r, len(reqs))
	r.ready(t0)
	l := loop{url: url, reqs: reqs, clients: 1, limit: len(reqs), pick: inOrder(len(reqs)), ans: ans}
	if r.tr != nil {
		r.set("bench.synth_gen_s", genS)
		if err := r.tracedCluster(l, nodes, db); err != nil {
			return err
		}
	} else {
		r.reportSearch(r.timedPasses(l, r.cfg.seconds))
	}
	st := rt.Stats()
	r.expect(st.Retries == 0, "router retried %d requests", st.Retries)
	r.expect(st.Degraded == 0, "router gave %d degraded answers", st.Degraded)
	if r.tr != nil {
		r.set("cluster.retries", float64(st.Retries))
		r.set("cluster.degraded_answers", float64(st.Degraded))
	}
	// Brute force is the oracle cold-search's answers are held to as well,
	// so agreeing with it is agreeing with cold-search on these requests.
	r.checkAgainstBrute(reqs, ans, db)
	return nil
}

func nodeName(i int) string { return fmt.Sprintf("node%d", i) }

// tracedCluster sends the first traceReqs requests through the router
// with spans around the router and node handlers, and after each one
// sends the same request to a two-shard standalone engine over HTTP and
// replays it against that engine and against each node's engine.
func (r *run) tracedCluster(l loop, nodes []*trajmatch.Engine, db []*trajmatch.Trajectory) error {
	two, err := trajmatch.NewEngine(db, indexOptions(), trajmatch.EngineOptions{CacheSize: -1, Shards: clusterShards})
	if err != nil {
		return err
	}
	r.onClose(two.Close)
	twoURL, err := r.serve("shards2", trajmatch.NewAPIHandler(two, trajmatch.HandlerOptions{}))
	if err != nil {
		return err
	}
	twoClient := r.newClient(twoURL)

	type hop struct {
		kind                string
		client, router      time.Duration
		node                [clusterShards]time.Duration
		nodeCalls, twoCalls int
		twoHTTP, twoEngine  time.Duration
	}
	var hops []hop
	l.limit = min(r.sz.traceReqs, len(l.reqs))
	l.after = func(idx int, req request, a searchAnswer, lat time.Duration, _ int) {
		h := hop{kind: req.kind, client: lat, router: r.tr.lastDur("http.handler", "router")}
		for i := range nodes {
			h.node[i] = r.tr.lastDur("http.handler", nodeName(i))
		}
		r.attempted.Add(1)
		status, body, twoLat, err := twoClient.post(req.path, req.body)
		if err != nil {
			r.fail("two-shard standalone, request %d: %v", idx, err)
			return
		}
		h.twoHTTP = twoLat
		// The two-shard standalone must give the router's answer exactly.
		ta, _ := r.decodeAnswer(idx, req, status, body)
		r.expect(string(ta.Results) == string(a.Results), "request %d: router answer %s differs from the standalone's %s", idx, a.Results, ta.Results)
		var ea trajmatch.Answer
		h.twoEngine, ea = r.replayEngine(two, req)
		h.twoCalls = ea.Stats.DistanceCalls
		for _, e := range nodes {
			_, na := r.replayEngine(e, req)
			h.nodeCalls += na.Stats.DistanceCalls
		}
		hops = append(hops, h)
	}
	r.closedLoop(l)

	var knn []hop
	for _, h := range hops {
		if h.kind == "knn" {
			knn = append(knn, h)
		}
	}
	if len(knn) == 0 {
		return fmt.Errorf("the traced pass held no knn request")
	}
	col := func(f func(hop) time.Duration) []float64 {
		v := make([]float64, len(knn))
		for i, h := range knn {
			v[i] = ms(f(h))
		}
		return v
	}
	slowest := func(h hop) time.Duration { return max(h.node[0], h.node[1]) }
	clientMS := col(func(h hop) time.Duration { return h.client })
	twoMS := col(func(h hop) time.Duration { return h.twoHTTP })
	nodeCalls, twoCalls := 0, 0
	for _, h := range knn {
		nodeCalls += h.nodeCalls
		twoCalls += h.twoCalls
	}
	r.set("cluster.node_handler_ms", mean(append(col(func(h hop) time.Duration { return h.node[0] }), col(func(h hop) time.Duration { return h.node[1] })...)))
	r.set("cluster.node_skew_ms", mean(col(func(h hop) time.Duration { return slowest(h) - min(h.node[0], h.node[1]) })))
	r.set("cluster.router_self_ms", mean(col(func(h hop) time.Duration { return h.router - slowest(h) })))
	r.set("cluster.hop_ms", p50(sorted(clientMS))-p50(sorted(twoMS)))
	r.set("cluster.extra_evals_share", ratio(float64(nodeCalls), float64(twoCalls))-1)
	r.set("server.shards2_http_ms", p50(sorted(twoMS)))
	r.set("server.engine_knn_ms", mean(col(func(h hop) time.Duration { return h.twoEngine })))
	r.set("server.client_overhead_us", 1000*mean(col(func(h hop) time.Duration { return h.client - h.router })))
	r.set("core.distcalls_per_query", float64(nodeCalls)/float64(len(knn)))
	r.set("bench.search_p95_ms", p95(sorted(clientMS)))
	slowestMS := mean(col(slowest))
	r.addShares("knn", mean(clientMS), map[string]float64{
		"bench":                mean(clientMS) - mean(col(func(h hop) time.Duration { return h.router })),
		"cluster":              mean(col(func(h hop) time.Duration { return h.router - slowest(h) })),
		"server+trajtree+core": slowestMS,
	})
	return nil
}
