package server

import (
	"context"
	"testing"

	"trajmatch/internal/traj"
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
	if got.DistanceCalls == 0 || got.DistanceCalls != uint64(st.DistanceCalls) {
		t.Errorf("cumulative distance calls %d, want %d", got.DistanceCalls, st.DistanceCalls)
	}
	if got.LowerBoundCalls != uint64(st.LowerBoundCalls) {
		t.Errorf("cumulative lower-bound calls %d, want %d", got.LowerBoundCalls, st.LowerBoundCalls)
	}
	if got.EarlyAbandons != uint64(st.EarlyAbandons) {
		t.Errorf("cumulative early abandons %d, want %d", got.EarlyAbandons, st.EarlyAbandons)
	}
	if got.ScreenRejects != uint64(st.ScreenRejects) || st.ScreenRejects > st.EarlyAbandons {
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

	// Range search accumulates too, and a tight radius forces abandons.
	rst := search(t, e, q, Query{Kind: KindRange, Radius: 1e-6}).Stats
	final := e.Stats()
	if rst.EarlyAbandons == 0 {
		t.Error("tight-radius range search never abandoned")
	}
	if final.EarlyAbandons != after.EarlyAbandons+uint64(rst.EarlyAbandons) {
		t.Errorf("early abandons %d, want %d", final.EarlyAbandons, after.EarlyAbandons+uint64(rst.EarlyAbandons))
	}
	// At that radius the member screen decides most of them before any
	// kernel starts, and the per-metric row carries the same count.
	if rst.ScreenRejects == 0 || final.ScreenRejects != after.ScreenRejects+uint64(rst.ScreenRejects) {
		t.Errorf("screen rejects %d after a range search with %d, before %d", final.ScreenRejects, rst.ScreenRejects, after.ScreenRejects)
	}
	if pm := final.PerMetric[0]; pm.ScreenRejects != final.ScreenRejects {
		t.Errorf("per-metric screen rejects %d, engine total %d", pm.ScreenRejects, final.ScreenRejects)
	}
}
