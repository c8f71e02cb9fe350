package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"trajmatch/internal/traj"
)

func wire(t *traj.Trajectory) WireTrajectory {
	w := WireTrajectory{ID: t.ID, Label: t.Label, Points: make([][3]float64, len(t.Points))}
	for i, p := range t.Points {
		w.Points[i] = [3]float64{p.X, p.Y, p.T}
	}
	return w
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body, dst any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if dst != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	return resp
}

func TestHTTPKNNRoundTrip(t *testing.T) {
	e := newTestEngine(t, 60, Options{})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	q := testDB(60, 7)[10].Clone()
	q.ID = 1_000_000
	wq := wire(q)
	req := SearchRequest{Query: Query{Kind: KindKNN, K: 5}, QueryTraj: &wq}
	var resp SearchResponse
	httpResp := postJSON(t, srv, "/v1/search", req, &resp)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/search status %d", httpResp.StatusCode)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(resp.Results))
	}
	want := search(t, e, q, Query{Kind: KindKNN, K: 5}).Results
	for i, n := range resp.Results {
		if n.ID != want[i].Traj.ID || n.Dist != want[i].Dist {
			t.Errorf("rank %d: wire (%d, %v) != engine (%d, %v)",
				i, n.ID, n.Dist, want[i].Traj.ID, want[i].Dist)
		}
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Dist < resp.Results[i-1].Dist {
			t.Errorf("results not sorted at rank %d", i)
		}
	}
	if resp.Cached {
		t.Error("first query reported cached")
	}

	// The identical query again is served from the cache and says so.
	var again SearchResponse
	postJSON(t, srv, "/v1/search", req, &again)
	if !again.Cached {
		t.Error("repeat query not reported as cached")
	}
	if len(again.Results) != len(resp.Results) {
		t.Errorf("cached answer has %d results, want %d", len(again.Results), len(resp.Results))
	}
}

func TestHTTPRangeInsertStats(t *testing.T) {
	e := newTestEngine(t, 40, Options{})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	// Insert a trajectory far away from the grid, then range-query near it.
	far := traj.New(7000, []traj.Point{traj.P(90_000, 90_000, 0), traj.P(90_050, 90_000, 10)})
	var ins InsertResponse
	if r := postJSON(t, srv, "/v1/insert", InsertRequest{Trajectories: []WireTrajectory{wire(far)}}, &ins); r.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/insert status %d", r.StatusCode)
	}
	if ins.Inserted != 1 || ins.Size != 41 {
		t.Fatalf("insert response %+v, want inserted 1 size 41", ins)
	}

	probe := wire(traj.New(7777, []traj.Point{traj.P(90_001, 90_000, 0), traj.P(90_049, 90_000, 10)}))
	var rng SearchResponse
	if r := postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindRange, Radius: 100}, QueryTraj: &probe}, &rng); r.StatusCode != http.StatusOK {
		t.Fatalf("range status %d", r.StatusCode)
	}
	if len(rng.Results) != 1 || rng.Results[0].ID != 7000 {
		t.Fatalf("range results %+v, want exactly trajectory 7000", rng.Results)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Size != 41 || st.Inserts != 1 || st.Queries == 0 {
		t.Errorf("stats %+v: want size 41, inserts 1, queries > 0", st)
	}
}

func TestHTTPDeleteRebuild(t *testing.T) {
	e := newTestEngine(t, 40, Options{Shards: 2})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	// Delete two present IDs and one absent one in a single call.
	var del DeleteResponse
	if r := postJSON(t, srv, "/v1/delete", DeleteRequest{IDs: []int{3, 17, 99_999}}, &del); r.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/delete status %d", r.StatusCode)
	}
	if del.Deleted != 2 || len(del.Missing) != 1 || del.Missing[0] != 99_999 {
		t.Fatalf("delete response %+v, want deleted 2 missing [99999]", del)
	}
	if del.Size != 38 {
		t.Fatalf("delete response size %d, want 38", del.Size)
	}
	if e.Lookup(3) != nil || e.Lookup(17) != nil {
		t.Fatal("deleted trajectories still indexed")
	}

	// Empty ID list is a client error.
	if r := postJSON(t, srv, "/v1/delete", DeleteRequest{}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty /v1/delete status %d, want 400", r.StatusCode)
	}

	var reb RebuildResponse
	if r := postJSON(t, srv, "/v1/rebuild", nil, &reb); r.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/rebuild status %d", r.StatusCode)
	}
	if reb.Size != 38 || reb.Shards != 2 {
		t.Fatalf("rebuild response %+v, want size 38 shards 2", reb)
	}
	if got := e.Stats(); got.Rebuilds != 1 || got.Deletes != 2 {
		t.Fatalf("stats %+v, want rebuilds 1 deletes 2", got)
	}

	// The rebuilt index still answers correctly.
	q := testDB(40, 7)[5].Clone()
	q.ID = 1_000_000
	res := search(t, e, q, Query{Kind: KindKNN, K: 3}).Results
	if len(res) != 3 {
		t.Fatalf("post-rebuild KNN returned %d results", len(res))
	}
	for _, r := range res {
		if r.Traj.ID == 3 || r.Traj.ID == 17 {
			t.Fatalf("post-rebuild KNN returned deleted trajectory %d", r.Traj.ID)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	e := newTestEngine(t, 20, Options{})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz status %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	e := newTestEngine(t, 20, Options{})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	q := wire(testDB(20, 7)[0])
	point := WireTrajectory{ID: 1, Points: [][3]float64{{0, 0, 0}}}
	cases := []struct {
		name, path string
		body       any
	}{
		{"k zero", "/v1/search", SearchRequest{Query: Query{Kind: KindKNN}, QueryTraj: &q}},
		{"single point query", "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 1}, QueryTraj: &point}},
		{"negative radius", "/v1/search", SearchRequest{Query: Query{Kind: KindRange, Radius: -1}, QueryTraj: &q}},
		{"duplicate insert", "/v1/insert", InsertRequest{Trajectories: []WireTrajectory{q}}},
		{"unknown field", "/v1/search", map[string]any{"kind": "knn", "query": q, "k": 1, "bogus": true}},
	}
	for _, tc := range cases {
		if resp := postJSON(t, srv, tc.path, tc.body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}
