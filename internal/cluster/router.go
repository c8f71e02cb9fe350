package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/server"
	"trajmatch/internal/traj"
)

// Config configures a Router.
type Config struct {
	// Nodes are the shard nodes' base URLs (e.g. http://10.0.0.7:8080).
	// Nodes announcing identical owned-shard sets form a replica group;
	// together the groups must cover every global shard exactly once.
	Nodes []string
	// Timeout bounds each shard request (and each boot-time info probe);
	// 0 means 10s. A request that times out counts as a node failure and
	// triggers the bounded retry to a replica.
	Timeout time.Duration
	// Sequential makes the fan-out visit shard groups one at a time in
	// shard order, shipping the freshest merged k-th-best bound to each —
	// the minimum-work, maximum-latency shape, and the deterministic one
	// the work-counter tests compare against the single-process
	// shared-bound baseline. Default (false) dispatches all groups
	// concurrently, each seeded with the bound known at dispatch time.
	Sequential bool
	// Client is the HTTP client to use; nil means a fresh default
	// client (connection pooling per router).
	Client *http.Client
}

// endpoint is one shard node as the router sees it: its base URL plus
// lazily tracked health. There is no background prober — an endpoint is
// marked unhealthy when a request to it fails and healthy when one
// succeeds, and a group with no healthy endpoint retries the unhealthy
// ones on the next request, which is how a rejoined node is discovered
// without chatter.
type endpoint struct {
	base    string
	healthy atomic.Bool

	requests atomic.Uint64
	failures atomic.Uint64

	mu      sync.Mutex
	lastErr string
}

func (ep *endpoint) fail(err error) {
	ep.healthy.Store(false)
	ep.failures.Add(1)
	ep.mu.Lock()
	ep.lastErr = err.Error()
	ep.mu.Unlock()
}

func (ep *endpoint) ok() {
	ep.healthy.Store(true)
	ep.mu.Lock()
	ep.lastErr = ""
	ep.mu.Unlock()
}

// group is a replica set: the endpoints announcing one identical owned
// shard set. Any member can answer the group's slice of a query.
type group struct {
	shards    []int // owned global indices, ascending
	endpoints []*endpoint
	next      atomic.Uint64 // rotation origin, spreads load across replicas
}

// Router is the stateless fan-out front of a cluster: it owns query
// parsing (its HTTP surface), hash placement, per-group dispatch with
// timeout/retry/health, and the (distance, ID) merge. It keeps no
// corpus state — any number of routers can front the same nodes.
type Router struct {
	total  int // global shard count, agreed by every node
	groups []*group
	client *http.Client
	cfg    Config

	queries  atomic.Uint64
	degraded atomic.Uint64
	retries  atomic.Uint64
}

// New probes every configured node's /cluster/v1/info, groups replicas
// by identical owned-shard sets, and verifies the groups tile the
// global placement: every shard covered, no shard claimed by two
// different sets (replicas of the same set are fine). A node that is
// down at boot is an error — the first fan-out would be degraded
// anyway, and a typo'd address should not boot quietly.
func New(ctx context.Context, cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{client: client, cfg: cfg}
	byKey := map[string]*group{}
	claimed := map[int]string{} // shard -> owning set key
	for _, base := range cfg.Nodes {
		base = strings.TrimRight(base, "/")
		var info NodeInfo
		if err := rt.getJSON(ctx, base+infoPath, &info); err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", base, err)
		}
		if info.Shards < 1 || len(info.Owned) == 0 {
			return nil, fmt.Errorf("cluster: node %s: malformed info (shards=%d owned=%v)", base, info.Shards, info.Owned)
		}
		if rt.total == 0 {
			rt.total = info.Shards
		} else if info.Shards != rt.total {
			return nil, fmt.Errorf("cluster: node %s places over %d shards, cluster uses %d", base, info.Shards, rt.total)
		}
		owned := append([]int(nil), info.Owned...)
		sort.Ints(owned)
		key := fmt.Sprint(owned)
		g := byKey[key]
		if g == nil {
			g = &group{shards: owned}
			byKey[key] = g
			for _, s := range owned {
				if other, ok := claimed[s]; ok && other != key {
					return nil, fmt.Errorf("cluster: shard %d claimed by both node sets %s and %s", s, other, key)
				}
				claimed[s] = key
			}
		}
		ep := &endpoint{base: base}
		ep.healthy.Store(true)
		g.endpoints = append(g.endpoints, ep)
	}
	for s := 0; s < rt.total; s++ {
		if _, ok := claimed[s]; !ok {
			return nil, fmt.Errorf("cluster: no node serves shard %d of %d", s, rt.total)
		}
	}
	// Deterministic group order by first shard: the sequential fan-out's
	// visit order, and the stats listing order.
	for _, g := range byKey {
		rt.groups = append(rt.groups, g)
	}
	sort.Slice(rt.groups, func(i, j int) bool { return rt.groups[i].shards[0] < rt.groups[j].shards[0] })
	return rt, nil
}

// ClusterShards returns the global shard count.
func (rt *Router) ClusterShards() int { return rt.total }

// groupFor returns the replica group serving global shard s.
func (rt *Router) groupFor(s int) *group {
	for _, g := range rt.groups {
		for _, o := range g.shards {
			if o == s {
				return g
			}
		}
	}
	return nil // unreachable: New verified coverage
}

// getJSON issues one GET under the router timeout and decodes the body.
func (rt *Router) getJSON(ctx context.Context, url string, dst any) error {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(dst)
}

// postNode issues one POST to a specific endpoint under the router
// timeout, decoding a 2xx body into dst and a non-2xx body into the
// engine's error envelope. An envelope error is returned as *nodeError
// — the node answered, it just refused — which is NOT a health failure.
func (rt *Router) postNode(ctx context.Context, ep *endpoint, path string, body, dst any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	ep.requests.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 500 {
		// Server-side failure: treat like a dead node (retry a replica).
		return fmt.Errorf("%s%s: %s: %s", ep.base, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if resp.StatusCode != http.StatusOK {
		var envelope server.ErrorResponse
		if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
			return &nodeError{status: resp.StatusCode, code: envelope.Code, msg: envelope.Error}
		}
		return &nodeError{status: resp.StatusCode, msg: strings.TrimSpace(string(data))}
	}
	return json.Unmarshal(data, dst)
}

// nodeError is a node's own JSON error envelope: the node is up and
// answered deliberately, so the router reports the refusal to the
// client instead of failing over to a replica (which would answer the
// same way).
type nodeError struct {
	status int
	code   string
	msg    string
}

func (e *nodeError) Error() string { return e.msg }

// Status and Code surface the node's HTTP status and envelope code so
// the router's HTTP layer can forward them verbatim.
func (e *nodeError) Status() int  { return e.status }
func (e *nodeError) Code() string { return e.code }

// askGroup runs one request against a replica group with bounded
// retry: endpoints are tried at most once each, healthy ones first
// (starting at the rotation cursor), then — when none are healthy or
// all healthy ones just failed — the unhealthy ones, which is how a
// rejoined node is rediscovered. A *nodeError stops the retry loop
// (the node answered; replicas would answer identically).
func (rt *Router) askGroup(ctx context.Context, g *group, path string, body, dst any) error {
	n := len(g.endpoints)
	start := int(g.next.Add(1)-1) % n
	order := make([]*endpoint, 0, n)
	for i := 0; i < n; i++ {
		if ep := g.endpoints[(start+i)%n]; ep.healthy.Load() {
			order = append(order, ep)
		}
	}
	for i := 0; i < n; i++ {
		if ep := g.endpoints[(start+i)%n]; !ep.healthy.Load() {
			order = append(order, ep)
		}
	}
	var lastErr error
	for i, ep := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := rt.postNode(ctx, ep, path, body, dst)
		if err == nil {
			ep.ok()
			return nil
		}
		var ne *nodeError
		if errors.As(err, &ne) {
			ep.ok() // the node is alive; its refusal is the answer
			return err
		}
		ep.fail(err)
		lastErr = err
		if i+1 < len(order) {
			rt.retries.Add(1)
		}
	}
	return fmt.Errorf("cluster: shards %v unavailable: %w", g.shards, lastErr)
}

// wireTraj converts the internal trajectory to its JSON form.
func wireTraj(t *traj.Trajectory) *server.WireTrajectory {
	pts := make([][3]float64, len(t.Points))
	for i, p := range t.Points {
		pts[i] = [3]float64{p.X, p.Y, p.T}
	}
	return &server.WireTrajectory{ID: t.ID, Label: t.Label, Points: pts}
}

// stubResults converts a node's wire neighbours into merge candidates.
// Only identity and distance travel over the wire, so the Traj carries
// ID and label alone — exactly what the router's own wire answers need.
func stubResults(ns []server.Neighbor) []backend.Result {
	out := make([]backend.Result, len(ns))
	for i, n := range ns {
		out[i] = backend.Result{Traj: &traj.Trajectory{ID: n.ID, Label: n.Label}, Dist: n.Dist}
	}
	return out
}

// addStats folds a node's wire stats into the running total.
func addStats(dst *backend.Stats, st *server.WireStats) {
	if st == nil {
		return
	}
	dst.DistanceCalls += st.DistanceCalls
	dst.EarlyAbandons += st.EarlyAbandons
	dst.ScreenRejects += st.ScreenRejects
	dst.LowerBoundCalls += st.LowerBoundCalls
	dst.NodesVisited += st.NodesVisited
	dst.NodesPruned += st.NodesPruned
	dst.PrefilterCandidates += st.PrefilterCandidates
	dst.PrefilterSkipped += st.PrefilterSkipped
}

// shipBound tightens the per-node request's Limit to the router's
// current merged k-th best: both the caller's Limit and the merged k-th
// best are admissible upper bounds on the global k-th best, so the
// smaller of the two seeds the node's SharedBound without changing any
// answer — only the work.
func shipBound(req server.Query, kb *backend.KBest) server.Query {
	if req.Kind == server.KindRange {
		return req
	}
	if b := kb.Bound(); !math.IsInf(b, 1) {
		if req.Limit == 0 || b < req.Limit {
			req.Limit = b
		}
	}
	return req
}

// Search executes one query across the cluster and merges the per-group
// answers by (distance, ID) — byte-identical to a single-process engine
// over the union corpus when every group answers. When a whole group is
// unreachable the answer covers the reachable shards and Degraded is
// set; an error is returned only for request-level failures (bad query,
// canceled context, a node's deliberate refusal).
func (rt *Router) Search(ctx context.Context, q *traj.Trajectory, req server.Query) (server.Answer, error) {
	rt.queries.Add(1)
	// The node request always asks for stats: the router's own WithStats
	// answer and its cumulative counters need them. The client-visible
	// with_stats still gates the answer copy.
	wq := wireTraj(q)
	if rt.cfg.Sequential && req.Kind != server.KindRange {
		return rt.searchSequential(ctx, wq, req)
	}
	type groupAnswer struct {
		resp server.SearchResponse
		err  error
	}
	answers := make([]groupAnswer, len(rt.groups))
	var wg sync.WaitGroup
	for i, g := range rt.groups {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			nreq := server.SearchRequest{Query: req, QueryTraj: wq}
			nreq.WithStats = true
			answers[i].err = rt.askGroup(ctx, g, "/v1/search", nreq, &answers[i].resp)
		}(i, g)
	}
	wg.Wait()
	return rt.mergeAnswers(req, func(i int) (server.SearchResponse, error) {
		return answers[i].resp, answers[i].err
	})
}

// searchSequential is the bound-shipping fan-out in its tightest form:
// groups are visited in shard order and each request carries the merged
// k-th best of all earlier groups. With single-worker nodes this makes
// the cluster's total full evaluations deterministic and no worse than
// the single-process engine's inline shared-bound loop over the same
// shards (the shipped bound is the merged k-th best of every earlier
// shard, at least as tight as the single process's bound at the same
// point).
func (rt *Router) searchSequential(ctx context.Context, wq *server.WireTrajectory, req server.Query) (server.Answer, error) {
	kb := backend.NewKBest(req.K)
	var stats backend.Stats
	truncated, degraded := false, false
	for _, g := range rt.groups {
		nreq := server.SearchRequest{Query: shipBound(req, kb), QueryTraj: wq}
		nreq.WithStats = true
		var resp server.SearchResponse
		if err := rt.askGroup(ctx, g, "/v1/search", nreq, &resp); err != nil {
			var ne *nodeError
			if errors.As(err, &ne) {
				return server.Answer{}, err
			}
			if err := ctx.Err(); err != nil {
				return server.Answer{}, err
			}
			degraded = true
			continue
		}
		for _, r := range stubResults(resp.Results) {
			kb.Offer(r.Traj, r.Dist)
		}
		addStats(&stats, resp.Stats)
		truncated = truncated || resp.Truncated
	}
	if degraded {
		rt.degraded.Add(1)
	}
	ans := server.Answer{Results: kb.Results(), Truncated: truncated, Degraded: degraded}
	if req.WithStats {
		ans.Stats = stats
	}
	return ans, nil
}

// mergeAnswers folds per-group responses into one Answer: KBest for the
// k-NN kinds, a full (distance, ID) sort for range. A group that failed
// at transport level degrades the answer; a group that refused
// (nodeError) fails the whole query — the refusal is about the request,
// not the node.
func (rt *Router) mergeAnswers(req server.Query, get func(int) (server.SearchResponse, error)) (server.Answer, error) {
	var stats backend.Stats
	truncated, degraded := false, false
	var all []backend.Result
	for i := range rt.groups {
		resp, err := get(i)
		if err != nil {
			var ne *nodeError
			if errors.As(err, &ne) {
				return server.Answer{}, err
			}
			degraded = true
			continue
		}
		all = append(all, stubResults(resp.Results)...)
		addStats(&stats, resp.Stats)
		truncated = truncated || resp.Truncated
	}
	if degraded {
		rt.degraded.Add(1)
	}
	var res []backend.Result
	if req.Kind == server.KindRange {
		sort.Slice(all, func(i, j int) bool {
			if all[i].Dist != all[j].Dist {
				return all[i].Dist < all[j].Dist
			}
			return all[i].Traj.ID < all[j].Traj.ID
		})
		res = all
	} else {
		kb := backend.NewKBest(req.K)
		for _, r := range all {
			kb.Offer(r.Traj, r.Dist)
		}
		res = kb.Results()
	}
	ans := server.Answer{Results: res, Truncated: truncated, Degraded: degraded}
	if req.WithStats {
		ans.Stats = stats
	}
	return ans, nil
}

// Insert routes one trajectory to the node group owning its shard. A
// transport-level group failure is an error — unlike a search, a
// mutation cannot be partially right.
func (rt *Router) Insert(ctx context.Context, t *traj.Trajectory) error {
	g := rt.groupFor(server.ShardOf(t.ID, rt.total))
	body := server.InsertRequest{Trajectories: []server.WireTrajectory{*wireTraj(t)}}
	var resp server.InsertResponse
	return rt.askGroup(ctx, g, "/v1/insert", body, &resp)
}

// Delete routes one delete to the owning group, reporting presence.
func (rt *Router) Delete(ctx context.Context, id int) (bool, error) {
	g := rt.groupFor(server.ShardOf(id, rt.total))
	var resp server.DeleteResponse
	if err := rt.askGroup(ctx, g, "/v1/delete", server.DeleteRequest{IDs: []int{id}}, &resp); err != nil {
		return false, err
	}
	return resp.Deleted > 0, nil
}

// NodeStatus is one endpoint's slice of the router's /v1/stats: the
// per-node health the partial-answer disposition points operators at.
type NodeStatus struct {
	Endpoint  string `json:"endpoint"`
	Shards    []int  `json:"shards"`
	Healthy   bool   `json:"healthy"`
	Requests  uint64 `json:"requests"`
	Failures  uint64 `json:"failures"`
	LastError string `json:"last_error,omitempty"`
}

// Stats is the router's /v1/stats payload. The router holds no corpus,
// so its stats are routing facts: placement, traffic, degradation, and
// per-node health.
type Stats struct {
	ClusterShards int          `json:"cluster_shards"`
	ShardGroups   int          `json:"shard_groups"`
	Queries       uint64       `json:"queries"`
	Degraded      uint64       `json:"degraded_answers"`
	Retries       uint64       `json:"retries"`
	Nodes         []NodeStatus `json:"nodes"`
}

// Stats snapshots the router counters and per-node health.
func (rt *Router) Stats() Stats {
	st := Stats{
		ClusterShards: rt.total,
		ShardGroups:   len(rt.groups),
		Queries:       rt.queries.Load(),
		Degraded:      rt.degraded.Load(),
		Retries:       rt.retries.Load(),
	}
	for _, g := range rt.groups {
		for _, ep := range g.endpoints {
			ep.mu.Lock()
			lastErr := ep.lastErr
			ep.mu.Unlock()
			st.Nodes = append(st.Nodes, NodeStatus{
				Endpoint:  ep.base,
				Shards:    g.shards,
				Healthy:   ep.healthy.Load(),
				Requests:  ep.requests.Load(),
				Failures:  ep.failures.Load(),
				LastError: lastErr,
			})
		}
	}
	return st
}

// Nodes returns the configured node base URLs (for /v1/version).
func (rt *Router) Nodes() []string {
	var out []string
	for _, g := range rt.groups {
		for _, ep := range g.endpoints {
			out = append(out, ep.base)
		}
	}
	sort.Strings(out)
	return out
}
