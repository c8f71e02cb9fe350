package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/dtwindex"
	"trajmatch/internal/trajtree"
)

// FuzzV1Search drives arbitrary POST /v1/search bodies through the
// versioned handler over a small two-shard edwp+dtw engine. Every body
// must answer 200, or the JSON error envelope with 400 or 501 — never a
// 500 (a recovered panic) and never a dead process. (A 200 body is not
// decoded: distances that overflow to +Inf, as ±1e300 coordinates make
// them, have no JSON form and leave it empty.) The committed corpus
// (testdata/fuzz/FuzzV1Search) holds the hostile shapes: k = 2⁴⁰ and
// k = −1, huge radius/limit/max_evals, ±1e300 coordinates, all-duplicate
// points, a two-point query, and both "query" and "queries" set.
func FuzzV1Search(f *testing.F) {
	f.Add([]byte(`{"kind":"knn","k":3,"query":{"id":1,"points":[[0,0,0],[10,10,10],[20,5,20]]}}`))
	f.Add([]byte(`{"kind":"range","metric":"dtw","radius":50,"queries":[{"id":1,"points":[[0,0,0],[10,10,10]]}]}`))
	db := testDB(30, 7)
	e, err := NewMultiEngineFromDB(db, []backend.Spec{
		trajtree.BackendSpec(trajtree.Options{Seed: 1, LeafSize: 5}),
		dtwindex.BackendSpec(),
	}, Options{CacheSize: -1, Shards: 2, Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	h := NewAPIHandler(e, HandlerOptions{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
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
