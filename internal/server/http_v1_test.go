package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// TestWireAnswerRoundTrip: an Answer survives the wire both ways —
// toWireAnswer, JSON, then WireAnswer.Answer — with every backend.Stats
// counter set to a distinct value by reflection, and every counter
// carries its own snake_case JSON tag, so a counter added to Stats
// without one fails here instead of reaching the wire under its Go name.
func TestWireAnswerRoundTrip(t *testing.T) {
	var st backend.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(101 + i))
		if tag := v.Type().Field(i).Tag.Get("json"); tag == "" || strings.ToLower(tag) != tag {
			t.Errorf("Stats.%s: JSON tag %q, want a snake_case name", v.Type().Field(i).Name, tag)
		}
	}
	want := Answer{
		Results: []backend.Result{
			{Traj: &traj.Trajectory{ID: 7, Label: 3}, Dist: 1.5},
			{Traj: &traj.Trajectory{ID: 2}, Dist: 2.25},
		},
		Stats:     st,
		Cached:    true,
		Truncated: true,
		Degraded:  true,
	}
	raw, err := json.Marshal(toWireAnswer(want, true))
	if err != nil {
		t.Fatal(err)
	}
	var w WireAnswer
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	got := w.Answer()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if g, w := reflect.ValueOf(got.Stats).Field(i).Int(), v.Field(i).Int(); g != w {
			t.Errorf("Stats.%s: %d after the round trip, want %d", name, g, w)
		}
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results after the round trip, want %d", len(got.Results), len(want.Results))
	}
	for i, r := range got.Results {
		if r.Traj.ID != want.Results[i].Traj.ID || r.Traj.Label != want.Results[i].Traj.Label || r.Dist != want.Results[i].Dist {
			t.Errorf("result %d: (id=%d label=%d dist=%v), want (id=%d label=%d dist=%v)", i, r.Traj.ID, r.Traj.Label, r.Dist,
				want.Results[i].Traj.ID, want.Results[i].Traj.Label, want.Results[i].Dist)
		}
	}
	if got.Cached != want.Cached || got.Truncated != want.Truncated || got.Degraded != want.Degraded {
		t.Errorf("flags: cached=%v truncated=%v degraded=%v, want all true", got.Cached, got.Truncated, got.Degraded)
	}
}

func decodeError(t *testing.T, resp *http.Response) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if e.Error == "" || e.Code == "" {
		t.Fatalf("incomplete error envelope %+v", e)
	}
	return e
}

// postRaw posts body and returns the response with its body still open,
// so callers can decode error envelopes; they must close it.
func postRaw(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestV1SearchKinds drives all three query kinds plus a batch through
// the single /v1/search endpoint and checks them against the engine.
func TestV1SearchKinds(t *testing.T) {
	e := newTestEngine(t, 60, Options{})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	db := testDB(60, 7)
	q := db[10].Clone()
	q.ID = 1_000_000
	wq := wire(q)

	var knn SearchResponse
	if r := postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 5, WithStats: true}, QueryTraj: &wq}, &knn); r.StatusCode != http.StatusOK {
		t.Fatalf("knn status %d", r.StatusCode)
	}
	if len(knn.Results) != 5 || knn.Stats == nil || knn.Stats.DistanceCalls == 0 {
		t.Fatalf("knn response %+v: want 5 results with stats", knn)
	}
	want, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range knn.Results {
		if n.ID != want.Results[i].Traj.ID || n.Dist != want.Results[i].Dist {
			t.Fatalf("knn rank %d: wire (%d, %v) != engine (%d, %v)",
				i, n.ID, n.Dist, want.Results[i].Traj.ID, want.Results[i].Dist)
		}
	}

	// Stats stay off the wire unless asked for.
	var lean SearchResponse
	postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 5}, QueryTraj: &wq}, &lean)
	if lean.Stats != nil {
		t.Fatalf("with_stats=false still returned stats %+v", *lean.Stats)
	}

	var rng SearchResponse
	if r := postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindRange, Radius: 50}, QueryTraj: &wq}, &rng); r.StatusCode != http.StatusOK {
		t.Fatalf("range status %d", r.StatusCode)
	}
	wantR, err := e.Search(context.Background(), q, Query{Kind: KindRange, Radius: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rng.Results) != len(wantR.Results) {
		t.Fatalf("range returned %d results, engine %d", len(rng.Results), len(wantR.Results))
	}

	var sub SearchResponse
	if r := postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindSubKNN, K: 3}, QueryTraj: &wq}, &sub); r.StatusCode != http.StatusOK {
		t.Fatalf("subknn status %d", r.StatusCode)
	}
	if len(sub.Results) != 3 {
		t.Fatalf("subknn returned %d results, want 3", len(sub.Results))
	}

	batch := SearchRequest{Query: Query{Kind: KindKNN, K: 3, WithStats: true}}
	for i := 0; i < 6; i++ {
		bq := db[i*9].Clone()
		bq.ID = 1_100_000 + i
		batch.Queries = append(batch.Queries, wire(bq))
	}
	var bresp SearchBatchResponse
	if r := postJSON(t, srv, "/v1/search", batch, &bresp); r.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", r.StatusCode)
	}
	if len(bresp.Answers) != 6 {
		t.Fatalf("batch returned %d answers, want 6", len(bresp.Answers))
	}
	for i, a := range bresp.Answers {
		if len(a.Results) != 3 {
			t.Fatalf("batch answer %d has %d results, want 3", i, len(a.Results))
		}
		if a.Stats == nil {
			t.Fatalf("batch answer %d lost its stats", i)
		}
	}
}

// TestV1SearchErrors: the envelope carries a stable code for every
// client error, and unknown /v1 paths answer JSON.
func TestV1SearchErrors(t *testing.T) {
	e := newTestEngine(t, 30, Options{})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	q := wire(testDB(30, 7)[0])

	// Unknown kind → invalid_query.
	r := postRaw(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: "fuzzy", K: 3}, QueryTraj: &q})
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind status %d, want 400", r.StatusCode)
	}
	if env := decodeError(t, r); env.Code != CodeInvalidQuery {
		t.Fatalf("unknown kind code %q, want %q", env.Code, CodeInvalidQuery)
	}

	// Neither query nor queries → bad_request.
	r = postRaw(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 3}})
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing query status %d, want 400", r.StatusCode)
	}
	if env := decodeError(t, r); env.Code != CodeBadRequest {
		t.Fatalf("missing query code %q, want %q", env.Code, CodeBadRequest)
	}

	// Both query and queries → bad_request.
	r = postRaw(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 3}, QueryTraj: &q, Queries: []WireTrajectory{q}})
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("both query+queries status %d, want 400", r.StatusCode)
	}

	// Wrong method on a real /v1 endpoint → 405 envelope with Allow, not
	// a misleading 404.
	resp405, err := srv.Client().Get(srv.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	defer resp405.Body.Close()
	if resp405.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search status %d, want 405", resp405.StatusCode)
	}
	if allow := resp405.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("GET /v1/search Allow header %q, want POST", allow)
	}
	if env := decodeError(t, resp405); env.Code != CodeMethodNotAllowed {
		t.Fatalf("GET /v1/search code %q, want %q", env.Code, CodeMethodNotAllowed)
	}

	// Unknown /v1 path → JSON envelope, not net/http plain text.
	resp, err := srv.Client().Get(srv.URL + "/v1/definitely-not-a-route")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", resp.StatusCode)
	}
	if env := decodeError(t, resp); env.Code != CodeNotFound {
		t.Fatalf("unknown path code %q, want %q", env.Code, CodeNotFound)
	}
}

// TestV1SearchTimeout: a server-side query timeout surfaces as the
// error envelope with a 5xx status and code deadline_exceeded, within a
// bounded wall clock.
func TestV1SearchTimeout(t *testing.T) {
	db := longDB(20, 400, 53)
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 4, PivotCandidates: 8},
		Options{CacheSize: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{QueryTimeout: 15 * time.Millisecond}))
	defer srv.Close()

	q := db[3].Clone()
	q.ID = 2_000_000
	wq := wire(q)
	t0 := time.Now()
	r := postRaw(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 5}, QueryTraj: &wq})
	elapsed := time.Since(t0)
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out search status %d, want 504", r.StatusCode)
	}
	if env := decodeError(t, r); env.Code != CodeDeadlineExceeded {
		t.Fatalf("timed-out search code %q, want %q", env.Code, CodeDeadlineExceeded)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out search answered after %v — cancellation was not prompt", elapsed)
	}

	// The engine still answers normal queries afterwards: state intact.
	fast := traj.New(2_000_001, []traj.Point{traj.P(0, 0, 0), traj.P(1, 1, 1)})
	wfast := wire(fast)
	srv2 := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv2.Close()
	var ok SearchResponse
	if resp := postJSON(t, srv2, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 1}, QueryTraj: &wfast}, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout search status %d", resp.StatusCode)
	}
	if len(ok.Results) != 1 {
		t.Fatalf("post-timeout search returned %d results", len(ok.Results))
	}
}

// TestLegacyRoutesRemoved: the nine pre-/v1 routes are gone — each old
// method and path answers 404 — while their /v1 successors are routed.
func TestLegacyRoutesRemoved(t *testing.T) {
	e := newTestEngine(t, 40, Options{})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	for _, probe := range []struct{ method, path, successor string }{
		{"POST", "/knn", "/v1/search"}, {"POST", "/knn/batch", "/v1/search"},
		{"POST", "/range", "/v1/search"}, {"POST", "/insert", "/v1/insert"},
		{"POST", "/delete", "/v1/delete"}, {"POST", "/rebuild", "/v1/rebuild"},
		{"POST", "/snapshot", "/v1/snapshot"}, {"GET", "/stats", "/v1/stats"},
		{"GET", "/healthz", "/v1/healthz"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
		// A GET reaches every successor's route (405 for the POST ones).
		succ, err := srv.Client().Get(srv.URL + probe.successor)
		if err != nil {
			t.Fatal(err)
		}
		succ.Body.Close()
		if succ.StatusCode == http.StatusNotFound {
			t.Fatalf("GET %s status 404: successor of %s not routed", probe.successor, probe.path)
		}
	}
}
