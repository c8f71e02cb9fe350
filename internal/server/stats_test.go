package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// The engine must fold per-query kernel instrumentation into its
// cumulative counters for both the single-query and batch paths, and the
// early-abandon counter must actually move on a workload where pruning
// can fire.
func TestEngineAccumulatesKernelStats(t *testing.T) {
	e := newTestEngine(t, 80, Options{CacheSize: -1})
	db := testDB(80, 7)

	q := db[3].Clone()
	q.ID = 900_000
	st := search(t, e, q, Query{Kind: KindKNN, K: 5}).Stats
	got := e.Stats()
	if got.DistanceCalls == 0 || got.DistanceCalls != st.DistanceCalls {
		t.Errorf("cumulative distance calls %d, want %d", got.DistanceCalls, st.DistanceCalls)
	}
	if got.LowerBoundCalls != st.LowerBoundCalls {
		t.Errorf("cumulative lower-bound calls %d, want %d", got.LowerBoundCalls, st.LowerBoundCalls)
	}
	if got.EarlyAbandons != st.EarlyAbandons {
		t.Errorf("cumulative early abandons %d, want %d", got.EarlyAbandons, st.EarlyAbandons)
	}
	if got.ScreenRejects != st.ScreenRejects || st.ScreenRejects > st.EarlyAbandons {
		t.Errorf("cumulative screen rejects %d, query's %d of %d abandons", got.ScreenRejects, st.ScreenRejects, st.EarlyAbandons)
	}

	// Batch path: counters grow by the batch total, flushed once.
	qs := make([]*traj.Trajectory, 6)
	wantDist := got.DistanceCalls
	for i := range qs {
		qs[i] = db[(i*11)%len(db)].Clone()
		qs[i].ID = 910_000 + i
	}
	if _, err := e.SearchBatch(context.Background(), qs, Query{Kind: KindKNN, K: 5}); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.DistanceCalls <= wantDist {
		t.Errorf("batch did not advance distance calls: %d -> %d", wantDist, after.DistanceCalls)
	}
	if after.Queries != 1+uint64(len(qs)) {
		t.Errorf("queries %d, want %d", after.Queries, 1+len(qs))
	}

	// Range searches accumulate too. Each runs at half its query's
	// 5th-nearest distance, so members whose bounding boxes pass the
	// radius still lie beyond it: the verify step abandons them, and its
	// member screen decides some before any kernel starts. (A radius
	// near 0 shows neither: the members' bounding boxes cut every member
	// but the query's source before the verify step.)
	var rst backend.Stats
	for i := 3; i < len(db); i += 19 {
		rq := db[i].Clone()
		rq.ID = 920_000 + i
		fifth := search(t, e, rq, Query{Kind: KindKNN, K: 5}).Results[4].Dist
		before := e.Stats()
		st := search(t, e, rq, Query{Kind: KindRange, Radius: fifth / 2}).Stats
		rst.Add(st)
		got := e.Stats()
		if got.EarlyAbandons != before.EarlyAbandons+st.EarlyAbandons {
			t.Errorf("early abandons %d, want %d", got.EarlyAbandons, before.EarlyAbandons+st.EarlyAbandons)
		}
		if got.ScreenRejects != before.ScreenRejects+st.ScreenRejects {
			t.Errorf("screen rejects %d, want %d", got.ScreenRejects, before.ScreenRejects+st.ScreenRejects)
		}
	}
	if rst.EarlyAbandons == 0 || rst.ScreenRejects == 0 {
		t.Errorf("range searches inside the 5th-nearest distance abandoned %d, screened %d: want both", rst.EarlyAbandons, rst.ScreenRejects)
	}
	// The per-metric row carries the same count.
	final := e.Stats()
	if pm := final.PerMetric[0]; pm.ScreenRejects != final.ScreenRejects {
		t.Errorf("per-metric screen rejects %d, engine total %d", pm.ScreenRejects, final.ScreenRejects)
	}
}

// TestStatsJSONKeys pins the JSON key sets of GET /v1/stats (top level
// and per_metric row) and of a with_stats answer's stats object: clients
// read every work counter under its snake_case name in all three. Each
// shard holds more members than the prefilter's 32-candidate floor, so
// the query skips members and the omitempty prefilter pair is present
// everywhere.
func TestStatsJSONKeys(t *testing.T) {
	counters := []string{"distance_calls", "early_abandons", "lower_bound_calls", "nodes_pruned",
		"nodes_visited", "prefilter_candidates", "prefilter_skipped", "screen_rejects"}
	wantStats := []string{"cache_hits", "cache_len", "deletes", "height", "inserts", "metrics",
		"per_metric", "per_shard", "prefilter", "queries", "rebuilds", "shards", "size",
		"snapshots", "stream", "workers"}
	wantMetric := []string{"cache_hits", "capabilities", "metric", "queries"}

	db := testDB(100, 7)
	e, err := NewMultiEngineFromDB(db, multiSpecs(db, trajtree.Options{Seed: 1, LeafSize: 5}),
		Options{CacheSize: -1, Shards: 2, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	keys := func(raw json.RawMessage) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	check := func(what string, raw json.RawMessage, want ...[]string) {
		t.Helper()
		all := slices.Sorted(slices.Values(slices.Concat(want...)))
		if got := keys(raw); !slices.Equal(got, all) {
			t.Errorf("%s keys %q, want %q", what, got, all)
		}
	}

	wq := wire(db[9])
	var ans struct {
		Stats json.RawMessage `json:"stats"`
	}
	postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 3, Prefilter: true, WithStats: true}, QueryTraj: &wq}, &ans)
	check("with_stats answer", ans.Stats, counters)

	var st struct {
		PerMetric []json.RawMessage `json:"per_metric"`
	}
	var raw json.RawMessage
	postGet(t, srv, "/v1/stats", &raw)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	check("/v1/stats", raw, wantStats, counters)
	check("/v1/stats per_metric[0]", st.PerMetric[0], wantMetric, counters)
}
