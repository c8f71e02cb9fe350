package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trajmatch/internal/dtwindex"
	"trajmatch/internal/trajtree"
)

// postGet GETs path and decodes the JSON body into dst.
func postGet(t *testing.T, srv *httptest.Server, path string, dst any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp
}

// newMultiServer boots an httptest server over the three-metric engine.
func newMultiServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	db := testDB(60, 7)
	e, err := NewMultiEngineFromDB(db, multiSpecs(db, trajtree.Options{Seed: 1, LeafSize: 5}), Options{CacheSize: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	t.Cleanup(srv.Close)
	return srv, e
}

// TestV1SearchMetric drives POST /v1/search with a "metric" body field
// through every loaded backend and checks each answer against the
// engine's own routing.
func TestV1SearchMetric(t *testing.T) {
	srv, e := newMultiServer(t)
	db := testDB(60, 7)
	q := db[10].Clone()
	q.ID = 1_000_000
	wq := wire(q)

	for _, metric := range []string{"", "edwp", "dtw", "edr"} {
		var got SearchResponse
		req := SearchRequest{Query: Query{Kind: KindKNN, K: 5, Metric: metric}, QueryTraj: &wq}
		if r := postJSON(t, srv, "/v1/search", req, &got); r.StatusCode != http.StatusOK {
			t.Fatalf("metric %q: status %d", metric, r.StatusCode)
		}
		want, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 5, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("metric %q: %d results, engine %d", metric, len(got.Results), len(want.Results))
		}
		for i, n := range got.Results {
			if n.ID != want.Results[i].Traj.ID || n.Dist != want.Results[i].Dist {
				t.Fatalf("metric %q rank %d: wire (%d, %v) != engine (%d, %v)",
					metric, i, n.ID, n.Dist, want.Results[i].Traj.ID, want.Results[i].Dist)
			}
		}
	}

	// The three metrics disagree on at least one ranking for some query;
	// spot-check that dtw and edwp are actually different backends by
	// comparing distances (EDR's integer edits can never equal EDwP's
	// metres for a non-identical match).
	var edwp, edr SearchResponse
	postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 5, Metric: "edwp"}, QueryTraj: &wq}, &edwp)
	postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 5, Metric: "edr"}, QueryTraj: &wq}, &edr)
	same := true
	for i := range edwp.Results {
		if edwp.Results[i].Dist != edr.Results[i].Dist {
			same = false
		}
	}
	if same {
		t.Fatal("edwp and edr answered identical distances — routing is suspect")
	}
}

// TestV1SearchMetricErrors: an unregistered metric answers 400
// unknown_metric listing the registered names; a registered metric the
// server was not booted with answers 400 metric_not_loaded; updates and
// subknn against static backends answer 501 not_implemented.
func TestV1SearchMetricErrors(t *testing.T) {
	srv, _ := newMultiServer(t)
	db := testDB(60, 7)
	wq := wire(db[4])

	resp := postRaw(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 3, Metric: "frechet"}, QueryTraj: &wq})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown metric: status %d, want 400", resp.StatusCode)
	}
	env := decodeError(t, resp)
	if env.Code != CodeUnknownMetric {
		t.Fatalf("unknown metric: code %q, want %q", env.Code, CodeUnknownMetric)
	}
	for _, name := range []string{"edwp", "dtw", "edr"} {
		if !strings.Contains(env.Error, name) {
			t.Fatalf("unknown-metric message %q does not list registered metric %q", env.Error, name)
		}
	}

	// A server booted without dtw: registered but not loaded.
	soloE, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	solo := httptest.NewServer(NewAPIHandler(soloE, HandlerOptions{}))
	defer solo.Close()
	resp = postRaw(t, solo, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 3, Metric: dtwindex.MetricName}, QueryTraj: &wq})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unloaded metric: status %d, want 400", resp.StatusCode)
	}
	env = decodeError(t, resp)
	if env.Code != CodeMetricNotLoaded {
		t.Fatalf("unloaded metric: code %q, want %q", env.Code, CodeMetricNotLoaded)
	}
	if !strings.Contains(env.Error, "edwp") {
		t.Fatalf("not-loaded message %q does not list the loaded metrics", env.Error)
	}

	// Mutation against a multi-metric engine with static backends: 501.
	resp = postRaw(t, srv, "/v1/insert", InsertRequest{Trajectories: []WireTrajectory{wq}})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("insert with static backends: status %d, want 501", resp.StatusCode)
	}
	if env := decodeError(t, resp); env.Code != CodeNotImplemented {
		t.Fatalf("insert: code %q, want %q", env.Code, CodeNotImplemented)
	}

	// Sub-trajectory search under dtw: 501 through the search endpoint.
	resp = postRaw(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindSubKNN, K: 3, Metric: "dtw"}, QueryTraj: &wq})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("dtw subknn: status %d, want 501", resp.StatusCode)
	}
	if env := decodeError(t, resp); env.Code != CodeNotImplemented {
		t.Fatalf("dtw subknn: code %q, want %q", env.Code, CodeNotImplemented)
	}
}

// TestV1StatsPerMetric: /v1/stats carries the loaded metric list and the
// per-metric counters, and a routed query moves only its metric's row.
func TestV1StatsPerMetric(t *testing.T) {
	srv, e := newMultiServer(t)
	db := testDB(60, 7)
	wq := wire(db[9])

	postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 3, Metric: "dtw"}, QueryTraj: &wq}, &SearchResponse{})
	postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 3, Metric: "dtw"}, QueryTraj: &wq}, &SearchResponse{})
	postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 3, Metric: "edr"}, QueryTraj: &wq}, &SearchResponse{})

	var st Stats
	if r := postGet(t, srv, "/v1/stats", &st); r.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", r.StatusCode)
	}
	if len(st.Metrics) != 3 || st.Metrics[0] != "edwp" {
		t.Fatalf("stats metrics %v, want [edwp dtw edr]", st.Metrics)
	}
	byMetric := map[string]MetricStats{}
	for _, ms := range st.PerMetric {
		byMetric[ms.Metric] = ms
	}
	if byMetric["dtw"].Queries != 2 || byMetric["edr"].Queries != 1 || byMetric["edwp"].Queries != 0 {
		t.Fatalf("per-metric query counts %+v, want dtw=2 edr=1 edwp=0", st.PerMetric)
	}
	if byMetric["dtw"].DistanceCalls == 0 {
		t.Fatal("dtw distance calls did not accumulate")
	}
	// Capability matrix: only edwp mutates/persists/answers subknn.
	caps := func(m string) string { return strings.Join(byMetric[m].Capabilities, ",") }
	if !strings.Contains(caps("edwp"), "mutate") || !strings.Contains(caps("edwp"), "persist") || !strings.Contains(caps("edwp"), "subknn") {
		t.Fatalf("edwp capabilities %v missing mutate/persist/subknn", byMetric["edwp"].Capabilities)
	}
	if strings.Contains(caps("dtw"), "mutate") || strings.Contains(caps("edr"), "persist") {
		t.Fatalf("static backends claim capabilities they lack: dtw=%v edr=%v",
			byMetric["dtw"].Capabilities, byMetric["edr"].Capabilities)
	}
	// The engine's own Stats agrees with the wire.
	if got := e.Stats(); got.Queries != st.Queries {
		t.Fatalf("engine queries %d != wire %d", got.Queries, st.Queries)
	}
}

// TestV1SearchHugeK: k is request data, and a k far beyond the corpus
// answers 200 with every member under every metric. A DTW/EDR top-k
// buffer sized by k would ask the runtime for 16 TiB at k = 2⁴⁰ — a
// fatal error withRecovery cannot catch.
func TestV1SearchHugeK(t *testing.T) {
	srv, e := newMultiServer(t)
	wq := wire(testDB(60, 7)[4])
	for _, metric := range []string{"edwp", "dtw", "edr"} {
		var got SearchResponse
		req := SearchRequest{Query: Query{Kind: KindKNN, K: 1 << 40, Metric: metric}, QueryTraj: &wq}
		if r := postJSON(t, srv, "/v1/search", req, &got); r.StatusCode != http.StatusOK {
			t.Fatalf("metric %s: status %d", metric, r.StatusCode)
		}
		if len(got.Results) != e.Size() {
			t.Fatalf("metric %s: %d results, want every one of %d members", metric, len(got.Results), e.Size())
		}
	}
}
