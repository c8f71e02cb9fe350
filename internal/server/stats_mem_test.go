package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// TestV1StatsMemorySection pins the wire shape of the per-shard memory
// block on /v1/stats: clients and dashboards key on these exact JSON
// names, so renaming any of them is a breaking API change.
func TestV1StatsMemorySection(t *testing.T) {
	db := testDB(80, 61)
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, Options{CacheSize: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	// Decode into a raw map so the assertions hit the literal JSON keys,
	// not whatever the Go struct tags happen to decode into.
	var raw map[string]any
	if r := postGet(t, srv, "/v1/stats", &raw); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	shards, ok := raw["per_shard"].([]any)
	if !ok || len(shards) != 2 {
		t.Fatalf("per_shard missing or wrong length: %#v", raw["per_shard"])
	}
	totalMembers := 0.0
	for i, s := range shards {
		sh := s.(map[string]any)
		mem, ok := sh["mem"].(map[string]any)
		if !ok {
			t.Fatalf("shard %d: no mem section: %#v", i, sh)
		}
		for _, key := range []string{"arena", "overlay", "fold_ins", "rebuild_in_flight", "build_ms", "adopt_ms", "replayed"} {
			if _, ok := mem[key]; !ok {
				t.Fatalf("shard %d: mem missing key %q: %#v", i, key, mem)
			}
		}
		ar, ok := mem["arena"].(map[string]any)
		if !ok {
			t.Fatalf("shard %d: mem.arena not an object: %#v", i, mem["arena"])
		}
		for _, key := range []string{"members", "points", "bytes", "mapped"} {
			if _, ok := ar[key]; !ok {
				t.Fatalf("shard %d: mem.arena missing key %q: %#v", i, key, ar)
			}
		}
		if ar["bytes"].(float64) <= 0 {
			t.Fatalf("shard %d: arena bytes %v, want > 0", i, ar["bytes"])
		}
		if ar["mapped"].(bool) {
			t.Fatalf("shard %d: heap-built arena claims to be mmap-backed", i)
		}
		if mem["overlay"].(float64) != 0 {
			t.Fatalf("shard %d: fresh build has overlay %v, want 0", i, mem["overlay"])
		}
		totalMembers += ar["members"].(float64)
	}
	if int(totalMembers) != len(db) {
		t.Fatalf("arena members sum %v, want %d", totalMembers, len(db))
	}

	// Inserts land in the heap overlay; a rebuild folds them into fresh
	// slabs and bumps the fold-in counter. Both transitions must be
	// visible through the endpoint.
	nt := traj.New(9_900_001, db[0].Points)
	if err := e.Insert(nt); err != nil {
		t.Fatal(err)
	}
	overlayTotal := func() (o, f float64) {
		var st Stats
		if r := postGet(t, srv, "/v1/stats", &st); r.StatusCode != http.StatusOK {
			t.Fatalf("status %d", r.StatusCode)
		}
		for _, ss := range st.PerShard {
			if ss.Mem == nil {
				t.Fatalf("shard %d lost its mem section", ss.Shard)
			}
			o += float64(ss.Mem.Overlay)
			f += float64(ss.Mem.FoldIns)
		}
		return o, f
	}
	if o, _ := overlayTotal(); o != 1 {
		t.Fatalf("overlay after insert = %v, want 1", o)
	}
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if o, f := overlayTotal(); o != 0 || f < 1 {
		t.Fatalf("after rebuild overlay=%v fold_ins=%v, want 0 and >=1", o, f)
	}
	for _, ss := range e.Stats().PerShard {
		if ss.Mem.RebuildInFlight || ss.Mem.BuildMs <= 0 || ss.Mem.Replayed != 0 {
			t.Fatalf("shard %d after an explicit rebuild: %+v", ss.Shard, ss.Mem)
		}
	}
}
