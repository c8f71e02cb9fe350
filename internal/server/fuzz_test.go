package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/dtwindex"
	"trajmatch/internal/trajtree"
)

// searchHandler serves the versioned API over a small two-shard
// edwp+dtw engine.
func searchHandler(tb testing.TB) http.Handler {
	e, err := NewMultiEngineFromDB(testDB(30, 7), []backend.Spec{
		trajtree.BackendSpec(trajtree.Options{Seed: 1, LeafSize: 5}),
		dtwindex.BackendSpec(),
	}, Options{CacheSize: -1, Shards: 2, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return NewAPIHandler(e, HandlerOptions{})
}

// FuzzV1Search drives arbitrary POST /v1/search bodies through the
// versioned handler over a small two-shard edwp+dtw engine. Every body
// must answer 200 with an answer whose every distance is finite, or the
// JSON error envelope with 400 or 501 — never a 500 (a recovered panic),
// never an empty 200 and never a dead process. The committed corpus
// (testdata/fuzz/FuzzV1Search) holds the hostile shapes: k = 2⁴⁰ and
// k = −1, huge radius/limit/max_evals, ±1e300 coordinates (beyond
// traj.MaxCoord, so a 400), all-duplicate points, a two-point query, and
// both "query" and "queries" set.
func FuzzV1Search(f *testing.F) {
	f.Add([]byte(`{"kind":"knn","k":3,"query":{"id":1,"points":[[0,0,0],[10,10,10],[20,5,20]]}}`))
	f.Add([]byte(`{"kind":"range","metric":"dtw","radius":50,"queries":[{"id":1,"points":[[0,0,0],[10,10,10]]}]}`))
	h := searchHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var ok struct {
				SearchResponse
				Answers []WireAnswer `json:"answers"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
				t.Fatalf("200 for body %q does not decode: %v: %q", body, err, rec.Body.Bytes())
			}
			for _, a := range append(ok.Answers, ok.WireAnswer) {
				for _, r := range a.Results {
					if math.IsInf(r.Dist, 0) || math.IsNaN(r.Dist) {
						t.Fatalf("200 for body %q carries distance %v", body, r.Dist)
					}
				}
			}
		case http.StatusBadRequest, http.StatusNotImplemented:
			var env ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code == "" {
				t.Fatalf("status %d without an error envelope: %q", rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// TestV1SearchRejectsHugeCoordinates pins the input limit the ±1e300
// seeds of FuzzV1Search hit: a query coordinate beyond traj.MaxCoord is a
// 400 naming the limit, for every kind and metric, rather than distances
// overflowed to +Inf, which no JSON answer can carry.
func TestV1SearchRejectsHugeCoordinates(t *testing.T) {
	h := searchHandler(t)
	for _, body := range []string{
		`{"kind":"knn","k":3,"query":{"id":901,"points":[[1e300,-1e300,0],[-1e300,1e300,1],[1e300,1e300,2]]}}`,
		`{"kind":"range","metric":"dtw","radius":1e300,"query":{"id":901,"points":[[-1e300,-1e300,0],[1e300,1e300,1]]}}`,
		`{"kind":"subknn","k":2,"query":{"id":901,"points":[[1e300,1e300,0],[-1e300,-1e300,1],[1e300,-1e300,2]]}}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		var env ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusBadRequest || err != nil ||
			!strings.Contains(env.Error, "MaxCoord") {
			t.Errorf("%s: status %d, body %q; want 400 naming MaxCoord", body, rec.Code, rec.Body.Bytes())
		}
	}
}
