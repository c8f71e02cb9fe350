package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trajmatch/internal/server"
)

// restartable is a shard node whose process can die and rejoin on the
// same address — the recovery scenario the router's lazy health model
// must survive without operator action.
type restartable struct {
	t       *testing.T
	addr    string
	handler http.Handler
	mu      sync.Mutex
	srv     *http.Server
	done    chan struct{}
}

func startRestartable(t *testing.T, handler http.Handler) *restartable {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	n := &restartable{t: t, addr: l.Addr().String(), handler: handler}
	n.serve(l)
	t.Cleanup(n.kill)
	return n
}

func (n *restartable) serve(l net.Listener) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.srv = &http.Server{Handler: n.handler}
	n.done = make(chan struct{})
	srv, done := n.srv, n.done
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
}

// kill closes the node's listener and every established connection —
// in-flight requests fail like a crashed process.
func (n *restartable) kill() {
	n.mu.Lock()
	srv, done := n.srv, n.done
	n.srv = nil
	n.mu.Unlock()
	if srv == nil {
		return
	}
	srv.Close()
	<-done
}

// restart rebinds the node's original address. The listen can race the
// dying server's port release, so it retries briefly.
func (n *restartable) restart() {
	n.t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ {
		l, err = net.Listen("tcp", n.addr)
		if err == nil {
			n.serve(l)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	n.t.Fatalf("rebind %s: %v", n.addr, err)
}

// TestClusterNodeFailureAndRejoin kills a shard node under the router,
// expecting degraded (never wrong, never hanging) answers while it is
// down and full answers again after it rebinds — with no router
// restart in between.
func TestClusterNodeFailureAndRejoin(t *testing.T) {
	db := testDB(120, 7)
	const total = 4
	single := newSingleEngine(t, db, total)

	nodeA := startRestartable(t, NodeHandler(newNodeEngine(t, db, total, []int{0, 1}), server.HandlerOptions{}))
	nodeB := startRestartable(t, NodeHandler(newNodeEngine(t, db, total, []int{2, 3}), server.HandlerOptions{}))
	rt, err := New(context.Background(), Config{
		Nodes:   []string{"http://" + nodeA.addr, "http://" + nodeB.addr},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}

	q := testDB(1, 99)[0]
	req := server.Query{Kind: server.KindKNN, K: 5}
	full, err := single.Search(context.Background(), q, req)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	check := func(label string, wantDegraded bool) {
		t.Helper()
		ans, err := rt.Search(context.Background(), q, req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ans.Degraded != wantDegraded {
			t.Fatalf("%s: degraded=%v, want %v", label, ans.Degraded, wantDegraded)
		}
		if !wantDegraded {
			sameResults(t, label, ans.Results, full.Results)
			return
		}
		// A degraded answer is the surviving shards' exact merge: every
		// entry must still be a true member of the full answer's order.
		for _, r := range ans.Results {
			owner := server.ShardOf(r.Traj.ID, total)
			if owner == 2 || owner == 3 {
				t.Fatalf("%s: result id=%d from dead shards", label, r.Traj.ID)
			}
		}
	}

	check("both nodes up", false)

	nodeB.kill()
	check("node B down", true)
	check("node B still down", true)

	nodeB.restart()
	check("node B rejoined", false)

	st := rt.Stats()
	if st.Degraded < 2 {
		t.Fatalf("router stats recorded %d degraded answers, want >= 2", st.Degraded)
	}
	healthy := 0
	failures := uint64(0)
	for _, n := range st.Nodes {
		if n.Healthy {
			healthy++
		}
		failures += n.Failures
	}
	if healthy != 2 {
		t.Fatalf("after rejoin: %d/2 nodes healthy: %+v", healthy, st.Nodes)
	}
	if failures == 0 {
		t.Fatalf("no failures recorded across the kill")
	}
}

// TestClusterReplicaFailover kills one of two replicas of the same
// shards: the router must retry the survivor and keep answering
// full-fidelity, recording the retry.
func TestClusterReplicaFailover(t *testing.T) {
	db := testDB(120, 7)
	const total = 2
	single := newSingleEngine(t, db, total)

	mk := func() *restartable {
		return startRestartable(t, NodeHandler(newNodeEngine(t, db, total, []int{0, 1}), server.HandlerOptions{}))
	}
	r1, r2 := mk(), mk()
	rt, err := New(context.Background(), Config{
		Nodes:   []string{"http://" + r1.addr, "http://" + r2.addr},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}

	q := testDB(1, 99)[0]
	req := server.Query{Kind: server.KindKNN, K: 5}
	full, err := single.Search(context.Background(), q, req)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	r1.kill()
	for i := 0; i < 4; i++ {
		ans, err := rt.Search(context.Background(), q, req)
		if err != nil {
			t.Fatalf("query %d with a replica down: %v", i, err)
		}
		if ans.Degraded {
			t.Fatalf("query %d degraded with a live replica", i)
		}
		sameResults(t, fmt.Sprintf("query %d", i), ans.Results, full.Results)
	}
	st := rt.Stats()
	if st.Degraded != 0 {
		t.Fatalf("replica failover degraded %d answers", st.Degraded)
	}
	if st.Retries == 0 {
		t.Fatalf("no retries recorded with a dead replica in rotation")
	}
}

// TestClusterSlowNodeDeadline pins the timeout path: a node that stops
// answering (accepts connections, never responds) costs at most the
// configured per-request timeout and produces a degraded answer — not a
// hang, not an error.
func TestClusterSlowNodeDeadline(t *testing.T) {
	db := testDB(60, 7)
	const total = 2

	fast := startRestartable(t, NodeHandler(newNodeEngine(t, db, total, []int{0}), server.HandlerOptions{}))
	bHandler := NodeHandler(newNodeEngine(t, db, total, []int{1}), server.HandlerOptions{})
	var wedged atomic.Bool
	slow := startRestartable(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wedged.Load() {
			<-r.Context().Done() // wedge until the client gives up
			return
		}
		bHandler.ServeHTTP(w, r)
	}))

	const timeout = 500 * time.Millisecond
	rt, err := New(context.Background(), Config{
		Nodes:   []string{"http://" + fast.addr, "http://" + slow.addr},
		Timeout: timeout,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}

	q := testDB(1, 99)[0]
	req := server.Query{Kind: server.KindKNN, K: 5}
	if ans, err := rt.Search(context.Background(), q, req); err != nil || ans.Degraded {
		t.Fatalf("healthy query: degraded=%v err=%v", ans.Degraded, err)
	}

	wedged.Store(true)
	t0 := time.Now()
	ans, err := rt.Search(context.Background(), q, req)
	took := time.Since(t0)
	if err != nil {
		t.Fatalf("query against a wedged node: %v", err)
	}
	if !ans.Degraded {
		t.Fatalf("wedged node did not degrade the answer")
	}
	if took > 4*timeout {
		t.Fatalf("wedged node cost %v, budget %v per request", took, timeout)
	}

	wedged.Store(false)
	if ans, err := rt.Search(context.Background(), q, req); err != nil || ans.Degraded {
		t.Fatalf("recovered query: degraded=%v err=%v", ans.Degraded, err)
	}
}

// requireAllHealthy fails unless the router recorded no degraded answer
// and no node failure, with every node still healthy.
func requireAllHealthy(t *testing.T, rt *Router) {
	t.Helper()
	st := rt.Stats()
	if st.Degraded != 0 || st.Retries != 0 {
		t.Fatalf("router stats: degraded=%d retries=%d, want 0 and 0", st.Degraded, st.Retries)
	}
	for _, n := range st.Nodes {
		if !n.Healthy || n.Failures != 0 {
			t.Fatalf("node %s: healthy=%v failures=%d (%s), want healthy with none", n.Endpoint, n.Healthy, n.Failures, n.LastError)
		}
	}
}

// TestClusterCallerDeadlineIsNotANodeFailure: when the caller's own
// deadline fires while a slow-but-alive node is still answering, the
// query fails with the caller's error — not a degraded answer — and the
// node keeps its health: the deadline was the caller's, not the node's.
func TestClusterCallerDeadlineIsNotANodeFailure(t *testing.T) {
	db := testDB(60, 7)
	const total = 2
	fast := startRestartable(t, NodeHandler(newNodeEngine(t, db, total, []int{0}), server.HandlerOptions{}))
	bHandler := NodeHandler(newNodeEngine(t, db, total, []int{1}), server.HandlerOptions{})
	slow := startRestartable(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(300 * time.Millisecond):
			bHandler.ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	rt, err := New(context.Background(), Config{
		Nodes:   []string{"http://" + fast.addr, "http://" + slow.addr},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	ans, err := rt.Search(ctx, testDB(1, 99)[0], server.Query{Kind: server.KindKNN, K: 5})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search past the caller's deadline: err=%v degraded=%v results=%d, want context.DeadlineExceeded",
			err, ans.Degraded, len(ans.Results))
	}
	requireAllHealthy(t, rt)
}

// TestRouterQueryTimeout: Config.QueryTimeout bounds a search served by
// RouterHandler even when the per-node Timeout is far longer — a wedged
// node costs the query budget, answers 504 deadline_exceeded, and is not
// marked unhealthy for the caller's deadline.
func TestRouterQueryTimeout(t *testing.T) {
	db := testDB(60, 7)
	const total = 2
	fast := startRestartable(t, NodeHandler(newNodeEngine(t, db, total, []int{0}), server.HandlerOptions{}))
	// The wedged node answers the boot-time info probe, then nothing.
	wedged := startRestartable(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == infoPath {
			server.WriteJSON(w, http.StatusOK, NodeInfo{Shards: total, Owned: []int{1}})
			return
		}
		<-r.Context().Done()
	}))

	const budget = 200 * time.Millisecond
	rt, err := New(context.Background(), Config{
		Nodes:        []string{"http://" + fast.addr, "http://" + wedged.addr},
		Timeout:      5 * time.Second,
		QueryTimeout: budget,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	front := httptest.NewServer(RouterHandler(rt))
	defer front.Close()
	body, _ := json.Marshal(server.SearchRequest{
		Query:     server.Query{Kind: server.KindKNN, K: 5},
		QueryTraj: wireTraj(testDB(1, 99)[0]),
	})
	t0 := time.Now()
	resp, err := http.Post(front.URL+"/v1/search", "application/json", bytes.NewReader(body))
	took := time.Since(t0)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	var envelope server.ErrorResponse
	derr := json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || derr != nil || envelope.Code != server.CodeDeadlineExceeded {
		t.Fatalf("search against a wedged node: status %d envelope %+v (decode %v), want 504 %q",
			resp.StatusCode, envelope, derr, server.CodeDeadlineExceeded)
	}
	if took > 4*budget {
		t.Fatalf("wedged node cost %v, query budget %v", took, budget)
	}
	requireAllHealthy(t, rt)
}

// TestClusterKillDuringQueryStream hammers the router from several
// goroutines while a shard node dies and rejoins mid-stream: every
// answer must be either full or degraded-but-correct, with no error
// other than degradation, no panic and no hang. Run with -race in CI.
func TestClusterKillDuringQueryStream(t *testing.T) {
	db := testDB(120, 7)
	const total = 4
	single := newSingleEngine(t, db, total)

	nodeA := startRestartable(t, NodeHandler(newNodeEngine(t, db, total, []int{0, 1}), server.HandlerOptions{}))
	nodeB := startRestartable(t, NodeHandler(newNodeEngine(t, db, total, []int{2, 3}), server.HandlerOptions{}))
	rt, err := New(context.Background(), Config{
		Nodes:   []string{"http://" + nodeA.addr, "http://" + nodeB.addr},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}

	queries := testDB(4, 99)
	req := server.Query{Kind: server.KindKNN, K: 5}
	want := make([][]int, len(queries))
	for i, q := range queries {
		ans, err := single.Search(context.Background(), q, req)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, r := range ans.Results {
			want[i] = append(want[i], r.Traj.ID)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (w + i) % len(queries)
				ans, err := rt.Search(context.Background(), queries[qi], req)
				if err != nil {
					select {
					case errc <- fmt.Errorf("worker %d: %v", w, err):
					default:
					}
					return
				}
				if ans.Degraded {
					continue // partial answers are the contract while a node is down
				}
				if len(ans.Results) != len(want[qi]) {
					select {
					case errc <- fmt.Errorf("worker %d: full answer with %d results, want %d", w, len(ans.Results), len(want[qi])):
					default:
					}
					return
				}
				for j, r := range ans.Results {
					if r.Traj.ID != want[qi][j] {
						select {
						case errc <- fmt.Errorf("worker %d: full answer rank %d id=%d, want %d", w, j, r.Traj.ID, want[qi][j]):
						default:
						}
						return
					}
				}
			}
		}(w)
	}

	// Two kill/rejoin cycles under load.
	for cycle := 0; cycle < 2; cycle++ {
		time.Sleep(150 * time.Millisecond)
		nodeB.kill()
		time.Sleep(150 * time.Millisecond)
		nodeB.restart()
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The stream must end fully recovered.
	ans, err := rt.Search(context.Background(), queries[0], req)
	if err != nil {
		t.Fatalf("post-stream query: %v", err)
	}
	if ans.Degraded {
		t.Fatalf("still degraded after rejoin")
	}
}
