package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/server"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// testDB builds n short trajectories scattered over a grid,
// deterministic in seed (the same generator the server tests use).
func testDB(n int, seed int64) []*traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	db := make([]*traj.Trajectory, n)
	for i := range db {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		pts := make([]traj.Point, 5)
		for j := range pts {
			x += rng.Float64()*20 - 10
			y += rng.Float64()*20 - 10
			pts[j] = traj.P(x, y, float64(j)*10)
		}
		db[i] = traj.New(i, pts)
	}
	return db
}

// withTies appends exact geometric duplicates of the first dup corpus
// members under fresh IDs: every duplicate ties its original at
// distance zero from the original's own geometry, and the pairs hash to
// unrelated shards — the cross-node boundary-tie case the (distance,
// ID) merge order must resolve identically in every deployment shape.
func withTies(db []*traj.Trajectory, dup int) []*traj.Trajectory {
	out := append([]*traj.Trajectory(nil), db...)
	for i := 0; i < dup; i++ {
		c := db[i].Clone()
		c.ID = len(db) + i
		out = append(out, c)
	}
	return out
}

var testTreeOpt = trajtree.Options{Seed: 1, LeafSize: 5}

// newNodeEngine builds one shard node's engine: the given slice of a
// total-shard placement over db, single worker, no cache (work counters
// must reflect every query).
func newNodeEngine(t testing.TB, db []*traj.Trajectory, total int, owned []int) *server.Engine {
	t.Helper()
	e, err := server.NewEngineFromDB(db, testTreeOpt, server.Options{
		CacheSize: -1,
		Workers:   1,
		Partition: &server.Partition{Total: total, Owned: owned},
	})
	if err != nil {
		t.Fatalf("node engine (shards %v of %d): %v", owned, total, err)
	}
	return e
}

// newSingleEngine builds the single-process reference: the same corpus
// in the same total-shard placement, one process.
func newSingleEngine(t testing.TB, db []*traj.Trajectory, total int) *server.Engine {
	t.Helper()
	e, err := server.NewEngineFromDB(db, testTreeOpt, server.Options{
		CacheSize: -1,
		Workers:   1,
		Shards:    total,
	})
	if err != nil {
		t.Fatalf("single engine: %v", err)
	}
	return e
}

// bootCluster serves one NodeHandler per owned-set over httptest and
// assembles a router over them.
func bootCluster(t testing.TB, db []*traj.Trajectory, total int, owns [][]int) (*Router, func()) {
	t.Helper()
	var urls []string
	var srvs []*httptest.Server
	for _, owned := range owns {
		e := newNodeEngine(t, db, total, owned)
		srv := httptest.NewServer(NodeHandler(e, server.HandlerOptions{}))
		srvs = append(srvs, srv)
		urls = append(urls, srv.URL)
	}
	rt, err := New(context.Background(), Config{Nodes: urls, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	return rt, func() {
		for _, s := range srvs {
			s.Close()
		}
	}
}

// layout distributes total global shards over n nodes: round-robin when
// nodes <= total, full replica groups otherwise.
func layout(total, nodes int) [][]int {
	owns := make([][]int, nodes)
	if nodes <= total {
		for g := 0; g < total; g++ {
			owns[g%nodes] = append(owns[g%nodes], g)
		}
		return owns
	}
	for j := range owns {
		owns[j] = []int{j % total}
	}
	return owns
}

func sameResults(t *testing.T, label string, got, want []backend.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Traj.ID != want[i].Traj.ID || got[i].Dist != want[i].Dist || got[i].Traj.Label != want[i].Traj.Label {
			t.Fatalf("%s: rank %d: got (id=%d label=%d dist=%v), want (id=%d label=%d dist=%v)",
				label, i,
				got[i].Traj.ID, got[i].Traj.Label, got[i].Dist,
				want[i].Traj.ID, want[i].Traj.Label, want[i].Dist)
		}
	}
}

// searchShapes are the router's entry points and its two fan-out shapes:
// Search and SearchBatch dispatch every group at once, shardOrder visits
// them one at a time shipping the bound the earlier groups tightened.
var searchShapes = []struct {
	name string
	run  func(rt *Router, qs []*traj.Trajectory, req server.Query) ([]server.Answer, error)
}{
	{"Search", func(rt *Router, qs []*traj.Trajectory, req server.Query) ([]server.Answer, error) {
		out := make([]server.Answer, len(qs))
		for i, q := range qs {
			ans, err := rt.Search(context.Background(), q, req)
			if err != nil {
				return nil, err
			}
			out[i] = ans
		}
		return out, nil
	}},
	{"SearchBatch", func(rt *Router, qs []*traj.Trajectory, req server.Query) ([]server.Answer, error) {
		return rt.SearchBatch(context.Background(), qs, req)
	}},
	{"shardOrder", func(rt *Router, qs []*traj.Trajectory, req server.Query) ([]server.Answer, error) {
		out := make([]server.Answer, len(qs))
		for i, q := range qs {
			ans, err := rt.search(context.Background(), q, req, 1)
			if err != nil {
				return nil, err
			}
			out[i] = ans
		}
		return out, nil
	}},
}

// TestClusterByteIdenticalToSingleProcess is the tentpole property: a
// 2- or 4-node cluster over {2,4,8} global shards answers every query
// kind byte-identically to one single-shard engine over the union corpus
// — including exact cross-node distance ties (duplicated geometry under
// different IDs) — through every fan-out shape. The reference has no
// placement in common with the cluster, so an answer that depended on
// which shard holds which member would show here.
func TestClusterByteIdenticalToSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster property corpus in -short mode")
	}
	db := withTies(testDB(120, 7), 10)
	queries := testDB(6, 99)
	// Queries that coincide exactly with duplicated corpus members force
	// zero-distance ties straddling the k cut.
	for i := 0; i < 4; i++ {
		q := db[i].Clone()
		q.ID = 2_000_000 + i
		queries = append(queries, q)
	}
	kinds := []server.Query{
		{Kind: server.KindKNN, K: 5},
		{Kind: server.KindKNN, K: 1},
		{Kind: server.KindKNN, K: 25},
		{Kind: server.KindRange, Radius: 120},
		{Kind: server.KindSubKNN, K: 3},
	}
	single := newSingleEngine(t, db, 1)
	for _, total := range []int{2, 4, 8} {
		for _, nodes := range []int{2, 4} {
			rt, cleanup := bootCluster(t, db, total, layout(total, nodes))
			for _, shape := range searchShapes {
				t.Run(fmt.Sprintf("shards=%d/nodes=%d/%s", total, nodes, shape.name), func(t *testing.T) {
					for ki, req := range kinds {
						got, err := shape.run(rt, queries, req)
						if err != nil {
							t.Fatalf("kind %d: cluster search: %v", ki, err)
						}
						for qi, q := range queries {
							want, err := single.Search(context.Background(), q, req)
							if err != nil {
								t.Fatalf("single search: %v", err)
							}
							if got[qi].Degraded {
								t.Fatalf("query %d kind %d: degraded answer with every node up", qi, ki)
							}
							if got[qi].Truncated != want.Truncated {
								t.Fatalf("query %d kind %d: truncated %v != %v", qi, ki, got[qi].Truncated, want.Truncated)
							}
							sameResults(t, fmt.Sprintf("query %d kind %s", qi, req.Kind), got[qi].Results, want.Results)
						}
					}
				})
			}
			cleanup()
		}
	}
}

// TestShippedBoundNoExtraEvals pins the acceptance bound: a search that
// visits the groups in shard order shipping the tightened bound spends
// no more exact distance evaluations across the cluster than the
// single-process inline shared-bound loop over the same shards — a
// group's merged k-th best is at most the minimum of its shards' k-th
// bests, so the shipped bound is at least as tight as the single
// process's bound at the same point, and the cluster can only skip more.
func TestShippedBoundNoExtraEvals(t *testing.T) {
	db := testDB(300, 7)
	const total = 4
	single := newSingleEngine(t, db, total)
	rt, cleanup := bootCluster(t, db, total, [][]int{{0, 1}, {2, 3}})
	defer cleanup()

	// A full evaluation is a distance computation the abandon bound did
	// not cut short — the expensive unit the acceptance criterion counts.
	// (Raw DistanceCalls can tick up under a shipped bound: a tighter
	// bound converts full DP evaluations into near-immediate abandons,
	// and those cheap starts still increment the call counter.)
	fullEvals := func(st backend.Stats) int { return st.DistanceCalls - st.EarlyAbandons }

	queries := testDB(8, 99)
	req := server.Query{Kind: server.KindKNN, K: 10, WithStats: true}
	totalSingle, totalCluster, screened := 0, 0, 0
	for qi, q := range queries {
		// SearchBatch with one worker runs the inline shard loop — the
		// PR 3 shared-bound baseline the acceptance criterion names.
		base, err := single.SearchBatch(context.Background(), []*traj.Trajectory{q}, req)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		got, err := rt.search(context.Background(), q, req, 1)
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		sameResults(t, fmt.Sprintf("query %d", qi), got.Results, base[0].Results)
		if fullEvals(got.Stats) > fullEvals(base[0].Stats) {
			t.Errorf("query %d: cluster spent %d full evaluations, single-process baseline %d",
				qi, fullEvals(got.Stats), fullEvals(base[0].Stats))
		}
		totalSingle += fullEvals(base[0].Stats)
		totalCluster += fullEvals(got.Stats)
		screened += got.Stats.ScreenRejects
		if got.Stats.ScreenRejects > got.Stats.EarlyAbandons {
			t.Errorf("query %d: %d screen rejects among %d abandons", qi, got.Stats.ScreenRejects, got.Stats.EarlyAbandons)
		}
	}
	if screened == 0 {
		t.Error("the router folded no screen rejects out of its nodes' stats")
	}
	if totalCluster > totalSingle {
		t.Fatalf("cluster total %d full evaluations > baseline %d", totalCluster, totalSingle)
	}
	t.Logf("full evaluations: cluster %d, single-process baseline %d", totalCluster, totalSingle)
}

// TestRouterMutationsRouting drives inserts and deletes through the
// router: hash placement must land each mutation on its owning node,
// visible to the next search, and a misrouted direct mutation must
// bounce with 421 not_owned.
func TestRouterMutationsRouting(t *testing.T) {
	db := testDB(60, 7)
	const total = 4
	rt, cleanup := bootCluster(t, db, total, [][]int{{0, 1}, {2, 3}})
	defer cleanup()

	// Insert a fresh trajectory through the router, then find it.
	nt := testDB(1, 555)[0]
	nt.ID = 9_001
	if err := rt.Insert(context.Background(), nt); err != nil {
		t.Fatalf("insert: %v", err)
	}
	q := nt.Clone()
	q.ID = 9_002
	ans, err := rt.Search(context.Background(), q, server.Query{Kind: server.KindKNN, K: 1})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(ans.Results) != 1 || ans.Results[0].Traj.ID != nt.ID {
		t.Fatalf("inserted trajectory not the nearest neighbour of its own geometry: %+v", ans.Results)
	}

	// Delete it again; presence must be reported, then gone.
	ok, err := rt.Delete(context.Background(), nt.ID)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if !ok {
		t.Fatalf("delete reported the trajectory missing")
	}
	ok, err = rt.Delete(context.Background(), nt.ID)
	if err != nil {
		t.Fatalf("second delete: %v", err)
	}
	if ok {
		t.Fatalf("second delete reported the trajectory still present")
	}

	// A mutation sent directly to the wrong node answers 421 not_owned.
	wrong := rt.groupFor(server.ShardOf(nt.ID, total))
	var other *group
	for _, g := range rt.groups {
		if g != wrong {
			other = g
			break
		}
	}
	body, _ := json.Marshal(server.InsertRequest{Trajectories: []server.WireTrajectory{*wireTraj(nt)}})
	resp, err := http.Post(other.endpoints[0].base+"/v1/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("direct insert: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted insert: status %d, want 421", resp.StatusCode)
	}
	var envelope server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Code != server.CodeNotOwned {
		t.Fatalf("misrouted insert envelope: %+v (err %v), want code %q", envelope, err, server.CodeNotOwned)
	}
}

// TestRouterHTTPSurface exercises the router's public HTTP layer: the
// /v1 wire formats must match a standalone server's, /v1/version must
// report the router role and nodes, /v1/stats the per-node health.
func TestRouterHTTPSurface(t *testing.T) {
	db := testDB(60, 7)
	const total = 2
	rt, cleanup := bootCluster(t, db, total, [][]int{{0}, {1}})
	defer cleanup()
	front := httptest.NewServer(RouterHandler(rt))
	defer front.Close()

	// Search over HTTP matches the in-process router answer.
	q := testDB(1, 99)[0]
	req := server.SearchRequest{
		Query:     server.Query{Kind: server.KindKNN, K: 5, WithStats: true},
		QueryTraj: wireTraj(q),
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(front.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	var sr server.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	want, err := rt.Search(context.Background(), q, req.Query)
	if err != nil {
		t.Fatalf("router search: %v", err)
	}
	sameWire := func(label string, got server.WireAnswer, want server.Answer) {
		t.Helper()
		sameResults(t, label, got.Answer().Results, want.Results)
		if got.Stats == nil {
			t.Fatalf("%s: with_stats answer carries no stats", label)
		}
	}
	sameWire("HTTP search", sr.WireAnswer, want)

	// A "queries" batch over HTTP matches the in-process router batch.
	qs := testDB(3, 101)
	breq := server.SearchRequest{Query: req.Query}
	for _, q := range qs {
		breq.Queries = append(breq.Queries, *wireTraj(q))
	}
	body, _ = json.Marshal(breq)
	resp, err = http.Post(front.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("batch search: %v", err)
	}
	var br server.SearchBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Answers) != len(qs) {
		t.Fatalf("batch search: status %d, %d answers for %d queries", resp.StatusCode, len(br.Answers), len(qs))
	}
	wantBatch, err := rt.SearchBatch(context.Background(), qs, req.Query)
	if err != nil {
		t.Fatalf("router batch: %v", err)
	}
	for i := range qs {
		sameWire(fmt.Sprintf("HTTP batch query %d", i), br.Answers[i], wantBatch[i])
	}

	// Version: role router, the configured nodes, the global modulus.
	resp, err = http.Get(front.URL + "/v1/version")
	if err != nil {
		t.Fatalf("version: %v", err)
	}
	var vi server.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&vi); err != nil {
		t.Fatalf("decode version: %v", err)
	}
	resp.Body.Close()
	if vi.Role != server.RoleRouter {
		t.Fatalf("role %q, want %q", vi.Role, server.RoleRouter)
	}
	if vi.ClusterShards != total || len(vi.Nodes) != 2 {
		t.Fatalf("version payload: %+v", vi)
	}

	// Stats: every node listed healthy, zero degraded answers.
	resp, err = http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.ClusterShards != total || st.ShardGroups != 2 || len(st.Nodes) != 2 {
		t.Fatalf("router stats shape: %+v", st)
	}
	for _, n := range st.Nodes {
		if !n.Healthy {
			t.Fatalf("node %s unhealthy with no failures injected: %+v", n.Endpoint, n)
		}
	}
	if st.Degraded != 0 {
		t.Fatalf("degraded answers with every node up: %d", st.Degraded)
	}

	// A shard node's version reports its owned slice.
	resp, err = http.Get(rt.groups[0].endpoints[0].base + "/v1/version")
	if err != nil {
		t.Fatalf("node version: %v", err)
	}
	var nvi server.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&nvi); err != nil {
		t.Fatalf("decode node version: %v", err)
	}
	resp.Body.Close()
	if nvi.Role != server.RoleShard || nvi.ClusterShards != total || len(nvi.OwnedShards) != 1 {
		t.Fatalf("node version payload: %+v", nvi)
	}
}

// TestRouterBootValidation pins the placement sanity checks: gaps and
// conflicting ownership must fail at boot, not degrade at query time.
func TestRouterBootValidation(t *testing.T) {
	db := testDB(40, 7)
	const total = 4
	serve := func(owned []int) *httptest.Server {
		e := newNodeEngine(t, db, total, owned)
		return httptest.NewServer(NodeHandler(e, server.HandlerOptions{}))
	}

	// Gap: shard 3 unserved.
	a, b := serve([]int{0, 1}), serve([]int{2})
	defer a.Close()
	defer b.Close()
	if _, err := New(context.Background(), Config{Nodes: []string{a.URL, b.URL}, Timeout: time.Second}); err == nil {
		t.Fatalf("router admitted a placement with shard 3 unserved")
	}

	// Overlap between distinct owned sets: shard 1 claimed twice.
	c, d := serve([]int{0, 1}), serve([]int{1, 2, 3})
	defer c.Close()
	defer d.Close()
	if _, err := New(context.Background(), Config{Nodes: []string{c.URL, d.URL}, Timeout: time.Second}); err == nil {
		t.Fatalf("router admitted overlapping distinct owned sets")
	}

	// A dead node at boot is an error, not a silent degraded start.
	e := serve([]int{2, 3})
	e.Close()
	f := serve([]int{0, 1})
	defer f.Close()
	if _, err := New(context.Background(), Config{Nodes: []string{f.URL, e.URL}, Timeout: time.Second}); err == nil {
		t.Fatalf("router admitted a dead node at boot")
	}
}

// TestRouterHugeK: k is request data, and a k far beyond the corpus must
// answer with every member through both fan-out shapes — a single
// "query" and a "queries" batch. A merge buffer sized by k would ask the
// runtime for 16 TiB at k = 2⁴⁰ — a fatal out-of-memory error that no
// handler recovery can catch.
func TestRouterHugeK(t *testing.T) {
	db := testDB(40, 7)
	rt, cleanup := bootCluster(t, db, 2, [][]int{{0}, {1}})
	defer cleanup()
	front := httptest.NewServer(RouterHandler(rt))
	defer front.Close()
	q := wireTraj(testDB(1, 99)[0])
	huge := server.Query{Kind: server.KindKNN, K: 1 << 40}
	for _, shape := range []server.SearchRequest{
		{Query: huge, QueryTraj: q},
		{Query: huge, Queries: []server.WireTrajectory{*q}},
	} {
		body, _ := json.Marshal(shape)
		resp, err := http.Post(front.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("batch=%v: %v", shape.Queries != nil, err)
		}
		var out struct {
			server.WireAnswer
			Answers []server.WireAnswer `json:"answers"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			t.Fatalf("batch=%v: status %d (decode %v)", shape.Queries != nil, resp.StatusCode, derr)
		}
		if len(out.Answers) == 1 {
			out.WireAnswer = out.Answers[0]
		}
		if len(out.Results) != len(db) {
			t.Fatalf("batch=%v: %d results, want every one of %d members", shape.Queries != nil, len(out.Results), len(db))
		}
	}
}

// TestRouterRangeEdges: the router ships a range query's radius as the
// search's seed, so radius 0 answers exactly the members at distance 0
// and a radius below every distance answers empty — the same answer
// through a 2-node router as from one engine at 1 and at 2 shards.
func TestRouterRangeEdges(t *testing.T) {
	db := withTies(testDB(120, 7), 10)
	rt, cleanup := bootCluster(t, db, 2, layout(2, 2))
	defer cleanup()
	exact := db[3].Clone()
	exact.ID = 2_000_000
	off := db[4].Clone()
	off.ID = 2_000_001
	for i := range off.Points {
		off.Points[i].X += 7
	}
	ctx := context.Background()
	one := newSingleEngine(t, db, 1)
	nearest, err := one.Search(ctx, off, server.Query{Kind: server.KindKNN, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    *traj.Trajectory
		req  server.Query
		want []int
	}{
		{"radius 0", exact, server.Query{Kind: server.KindRange, Radius: 0}, []int{3, 123}},
		{"below every distance", off, server.Query{Kind: server.KindRange, Radius: nearest.Results[0].Dist / 2}, nil},
	} {
		for _, s := range []struct {
			name   string
			search func(context.Context, *traj.Trajectory, server.Query) (server.Answer, error)
		}{
			{"1 shard", one.Search},
			{"2 shards", newSingleEngine(t, db, 2).Search},
			{"2-node router", rt.Search},
		} {
			ans, err := s.search(ctx, c.q, c.req)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, s.name, err)
			}
			var got []int
			for _, r := range ans.Results {
				got = append(got, r.Traj.ID)
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) || ans.Degraded {
				t.Fatalf("%s, %s: answer %v (degraded %v), want %v", c.name, s.name, got, ans.Degraded, c.want)
			}
		}
	}
}
