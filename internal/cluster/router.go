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
	"trajmatch/internal/par"
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
	// QueryTimeout, when positive, bounds every search RouterHandler
	// serves, fan-out included; an expiry answers 504 deadline_exceeded.
	// The deadline is the caller's, so it marks no node unhealthy. 0
	// leaves searches bounded by Timeout per node request only.
	QueryTimeout time.Duration
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

// Router is the stateless fan-out front of a cluster: it owns hash
// placement and per-group dispatch with timeout/retry/health, and runs
// its searches through the engine's own fan-out and merge
// (server.FanOut), each replica group standing in for one shard. It
// keeps no corpus state — any number of routers can front the same
// nodes.
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
	// Deterministic group order by first shard: the one-group-at-a-time
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
// server.WriteSearchError forwards them verbatim.
func (e *nodeError) Status() int { return e.status }
func (e *nodeError) Code() string {
	if e.code == "" {
		return server.CodeInternal // the node's body was not an envelope
	}
	return e.code
}

// unavailableError is a replica group none of whose endpoints answered.
// A search degrades past it; a mutation, which cannot be partially
// right, fails with 503 unavailable.
type unavailableError struct {
	shards []int
	last   error
}

func (e *unavailableError) Error() string {
	return fmt.Sprintf("cluster: shards %v unavailable: %v", e.shards, e.last)
}
func (e *unavailableError) Status() int  { return http.StatusServiceUnavailable }
func (e *unavailableError) Code() string { return server.CodeUnavailable }

// askGroup runs one request against a replica group with bounded
// retry: endpoints are tried at most once each, healthy ones first
// (starting at the rotation cursor), then — when none are healthy or
// all healthy ones just failed — the unhealthy ones, which is how a
// rejoined node is rediscovered. A *nodeError stops the retry loop
// (the node answered; replicas would answer identically), and so does
// the caller's context firing: that is ctx.Err(), not a node failure,
// and touches no health, failure or retry count. Every endpoint failing
// is an *unavailableError.
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
		if err := ctx.Err(); err != nil {
			return err
		}
		ep.fail(err)
		lastErr = err
		if i+1 < len(order) {
			rt.retries.Add(1)
		}
	}
	return &unavailableError{shards: g.shards, last: lastErr}
}

// wireTraj converts the internal trajectory to its JSON form.
func wireTraj(t *traj.Trajectory) *server.WireTrajectory {
	pts := make([][3]float64, len(t.Points))
	for i, p := range t.Points {
		pts[i] = [3]float64{p.X, p.Y, p.T}
	}
	return &server.WireTrajectory{ID: t.ID, Label: t.Label, Points: pts}
}

// Search executes one query across the cluster, dispatching every
// replica group concurrently, and merges the answers by (distance, ID) —
// byte-identical to a single-process engine over the union corpus when
// every group answers. When a whole group is unreachable the answer
// covers the reachable shards and Degraded is set; an error is returned
// only for request-level failures (bad query, the caller's context, a
// node's deliberate refusal).
func (rt *Router) Search(ctx context.Context, q *traj.Trajectory, req server.Query) (server.Answer, error) {
	if q == nil {
		return server.Answer{}, fmt.Errorf("%w: nil query trajectory", server.ErrInvalidQuery)
	}
	if err := req.Validate(); err != nil {
		return server.Answer{}, err
	}
	return rt.search(ctx, q, req, len(rt.groups))
}

// SearchBatch executes the same Query for every trajectory of qs: each
// query is a Search (every group at once) and the queries share a
// GOMAXPROCS-wide pool, so a batch of Q costs at most Q node round trips
// in sequence, and in-flight requests stay bounded by the pool times the
// group count. Once ctx fires, SearchBatch returns the answers finished
// so far alongside ctx's error.
func (rt *Router) SearchBatch(ctx context.Context, qs []*traj.Trajectory, req server.Query) ([]server.Answer, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("%w: nil query trajectory at index %d", server.ErrInvalidQuery, i)
		}
	}
	answers := make([]server.Answer, len(qs))
	err := par.ForErr(0, len(qs), func(i int) (err error) {
		answers[i], err = rt.search(ctx, qs[i], req, len(rt.groups))
		return err
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		return answers, ctxErr
	}
	return answers, err
}

// search runs one validated query through server.FanOut with group i as
// shard i, workers wide. A group's search is one POST /v1/search to the
// group, carrying the shared bound as the query's Limit: the caller's
// Limit, or a range query's radius (FanOut's seed), tightened by the
// k-th best of every group that has already answered. Both are
// admissible upper bounds on the global k-th best, so the shipped Limit
// removes node work, never results.
// Search and SearchBatch start every group at once (workers =
// len(rt.groups)); workers = 1 visits them in shard order instead,
// trading a round trip per group for the tighter shipped bound.
func (rt *Router) search(ctx context.Context, q *traj.Trajectory, req server.Query, workers int) (server.Answer, error) {
	rt.queries.Add(1)
	var ctl *backend.Ctl
	if ctx.Done() != nil {
		// No evaluation budget here: MaxEvals travels to every node.
		ctl = backend.NewCtl(ctx, 0)
		defer ctl.Release()
	}
	wq := wireTraj(q)
	var degraded atomic.Bool
	res, st, truncated, err := server.FanOut(len(rt.groups), workers, req, ctl, func(i, k int, bound *backend.SharedBound) ([]backend.Result, backend.Stats, bool, error) {
		// Nodes always report stats: the router's WithStats answer needs
		// them, and the caller's with_stats still gates the answer copy.
		nreq := server.SearchRequest{Query: req, QueryTraj: wq}
		nreq.WithStats = true
		// A nil bound means the caller gave no finite seed; +Inf has no
		// JSON encoding, 0 is the wire's "unbounded". A range query ships
		// its radius, which the node ignores for the radius it already has.
		nreq.Limit = 0
		if bound != nil {
			if b := bound.Load(); !math.IsInf(b, 1) {
				nreq.Limit = b
			}
		}
		var resp server.SearchResponse
		err := rt.askGroup(ctx, rt.groups[i], "/v1/search", nreq, &resp)
		var down *unavailableError
		if errors.As(err, &down) {
			degraded.Store(true)
			return nil, backend.Stats{}, false, nil
		}
		if err != nil {
			return nil, backend.Stats{}, false, err
		}
		ans := resp.Answer()
		if bound != nil && len(ans.Results) >= k {
			bound.Tighten(ans.Results[k-1].Dist)
		}
		return ans.Results, ans.Stats, ans.Truncated, nil
	})
	if err != nil {
		return server.Answer{}, err
	}
	ans := server.Answer{Results: res, Truncated: truncated, Degraded: degraded.Load()}
	if ans.Degraded {
		rt.degraded.Add(1)
	}
	if req.WithStats {
		ans.Stats = st
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
