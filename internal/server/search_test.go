package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"trajmatch/internal/core"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// TestSearchSubKNNMatchesBrute verifies kind subknn against a
// brute-force EDwPsub scan, across shard counts (the fan-out must not
// change the answer set).
func TestSearchSubKNNMatchesBrute(t *testing.T) {
	db := testDB(90, 17)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for it := 0; it < 6; it++ {
			full := db[(it*19)%len(db)]
			pts := append([]traj.Point(nil), full.Points[1:4]...)
			q := traj.New(4_000_000+it, pts)
			k := 1 + it%5

			type pair struct {
				id int
				d  float64
			}
			ref := make([]pair, 0, len(db))
			for _, tr := range db {
				ref = append(ref, pair{tr.ID, core.SubDistance(q, tr)})
			}
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].d != ref[j].d {
					return ref[i].d < ref[j].d
				}
				return ref[i].id < ref[j].id
			})

			ans, err := e.Search(ctx, q, Query{Kind: KindSubKNN, K: k, WithStats: true})
			if err != nil {
				t.Fatalf("shards=%d it=%d: %v", shards, it, err)
			}
			if len(ans.Results) != k {
				t.Fatalf("shards=%d it=%d: %d results, want %d", shards, it, len(ans.Results), k)
			}
			for i, r := range ans.Results {
				if math.Abs(r.Dist-ref[i].d) > 1e-9 {
					t.Fatalf("shards=%d it=%d rank %d: dist %v, brute %v", shards, it, i, r.Dist, ref[i].d)
				}
			}
			if ans.Stats.DistanceCalls == 0 {
				t.Fatalf("shards=%d it=%d: no distance calls recorded", shards, it)
			}
		}
	}
}

// TestSearchBatchKeepsPerQueryStats: SearchBatch returns one Answer per
// query carrying that query's stats, the engine's cumulative counters
// advance by exactly the per-query sum — each query accumulated once —
// and each answer, computed by the batch path's inline shard loop,
// equals the concurrent fan-out of a single-query Search.
func TestSearchBatchKeepsPerQueryStats(t *testing.T) {
	db := testDB(120, 23)
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, Options{CacheSize: -1, Shards: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*traj.Trajectory, 12)
	for i := range qs {
		qs[i] = db[(i*7)%len(db)].Clone()
		qs[i].ID = 5_000_000 + i
	}
	before := e.Stats()
	answers, err := e.SearchBatch(context.Background(), qs, Query{Kind: KindKNN, K: 4, WithStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(qs) {
		t.Fatalf("%d answers, want %d", len(answers), len(qs))
	}
	var sum trajtree.Stats
	for i, a := range answers {
		if a.Stats.DistanceCalls == 0 {
			t.Fatalf("answer %d lost its per-query stats", i)
		}
		sum.Add(a.Stats)
	}
	after := e.Stats()
	if got, want := after.DistanceCalls-before.DistanceCalls, sum.DistanceCalls; got != want {
		t.Fatalf("cumulative distance calls advanced by %d, per-query sum is %d", got, want)
	}
	if got, want := after.EarlyAbandons-before.EarlyAbandons, sum.EarlyAbandons; got != want {
		t.Fatalf("cumulative early abandons advanced by %d, per-query sum is %d", got, want)
	}
	if got, want := after.ScreenRejects-before.ScreenRejects, sum.ScreenRejects; got != want {
		t.Fatalf("cumulative screen rejects advanced by %d, per-query sum is %d", got, want)
	}
	if got, want := after.Queries-before.Queries, uint64(len(qs)); got != want {
		t.Fatalf("queries counter advanced by %d, want %d", got, want)
	}

	// Each answer matches its single-query Search.
	for i, q := range qs {
		single, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("batch query %d", i), answers[i].Results, single.Results)
	}
}

// longDB builds few, very long trajectories so a single EDwP evaluation
// is expensive — the workload where cancellation latency matters.
func longDB(n, points int, seed int64) []*traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	db := make([]*traj.Trajectory, n)
	for i := range db {
		pts := make([]traj.Point, points)
		x, y := rng.Float64()*100, rng.Float64()*100
		for j := range pts {
			x += rng.NormFloat64() * 4
			y += rng.NormFloat64() * 4
			pts[j] = traj.P(x, y, float64(j))
		}
		db[i] = traj.New(i, pts)
	}
	return db
}

// TestSearchCancellation drives the tentpole's cancellation contract: a
// context cancelled mid-search surfaces context.Canceled promptly, and
// the engine stays fully consistent — a subsequent Search answers
// byte-identically to a fresh engine over the same data.
func TestSearchCancellation(t *testing.T) {
	db := longDB(24, 400, 31)
	topt := trajtree.Options{Seed: 1, LeafSize: 4, PivotCandidates: 8}
	e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := db[5].Clone()
	q.ID = 6_000_000

	// Uncancelled reference timing and answer.
	t0 := time.Now()
	want, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	t0 = time.Now()
	ans, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 5})
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Search returned err=%v (answer %d results), want context.Canceled", err, len(ans.Results))
	}
	if len(ans.Results) != 0 {
		t.Fatalf("cancelled Search leaked %d results", len(ans.Results))
	}
	// Bounded wall clock: the search must stop far short of running to
	// completion (one DP-row check of slack plus scheduling noise).
	if elapsed > full/2+100*time.Millisecond {
		t.Fatalf("cancelled search took %v of an uncancelled %v — cancellation was not prompt", elapsed, full)
	}

	// Engine state unharmed: identical answers to a fresh engine.
	again, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "post-cancel vs pre-cancel", again.Results, want.Results)
	fresh, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	freshAns, err := fresh.Search(context.Background(), q, Query{Kind: KindKNN, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "post-cancel vs fresh engine", again.Results, freshAns.Results)

	// A pre-expired deadline surfaces DeadlineExceeded without touching
	// any shard.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := e.Search(dctx, q, Query{Kind: KindKNN, K: 5}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestSearchBatchCancellation: a cancelled batch returns the context
// error and the engine remains consistent afterwards.
func TestSearchBatchCancellation(t *testing.T) {
	db := longDB(16, 300, 37)
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 4, PivotCandidates: 8},
		Options{CacheSize: -1, Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*traj.Trajectory, 8)
	for i := range qs {
		qs[i] = db[i].Clone()
		qs[i].ID = 7_000_000 + i
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = e.SearchBatch(ctx, qs, Query{Kind: KindKNN, K: 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out batch returned %v, want context.DeadlineExceeded", err)
	}
	// Engine still answers exactly.
	ans, err := e.Search(context.Background(), qs[0], Query{Kind: KindKNN, K: 3})
	if err != nil || len(ans.Results) != 3 {
		t.Fatalf("post-cancel Search: err=%v results=%d", err, len(ans.Results))
	}
}

// TestSearchMaxEvalsTruncates: an evaluation budget bounds the work of a
// query across its whole fan-out and marks the answer truncated; such
// answers never enter the result cache.
func TestSearchMaxEvalsTruncates(t *testing.T) {
	db := testDB(150, 43)
	// Reference answer and work measurement on an uncached twin engine.
	ref, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := db[7].Clone()
	q.ID = 8_000_000
	fullAns, err := ref.Search(context.Background(), q, Query{Kind: KindKNN, K: 10, WithStats: true})
	if err != nil {
		t.Fatal(err)
	}
	budget := fullAns.Stats.DistanceCalls / 3
	if budget == 0 {
		t.Fatal("full search made no distance calls")
	}

	// The engine under test has its result cache on; the truncated query
	// runs first, so anything the later exact query finds in the cache
	// could only have come from it.
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 10, MaxEvals: budget, WithStats: true})
	if err != nil {
		t.Fatalf("budgeted search errored: %v", err)
	}
	if !ans.Truncated {
		t.Fatalf("budget %d of %d evals did not truncate", budget, fullAns.Stats.DistanceCalls)
	}
	if ans.Stats.DistanceCalls > budget {
		t.Fatalf("query spent %d evals, budget %d", ans.Stats.DistanceCalls, budget)
	}
	if ans.Cached {
		t.Fatal("truncated answer claimed to be cached")
	}
	// The truncated answer must not have poisoned the cache: the next
	// exact query recomputes and matches the uncached exact answer.
	exact, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cached {
		t.Fatal("exact query after truncated one was served from the cache")
	}
	sameResults(t, "exact after truncated", exact.Results, fullAns.Results)
}

// TestSearchValidation: malformed queries surface ErrInvalidQuery and
// never touch the counters' query path.
func TestSearchValidation(t *testing.T) {
	e := newTestEngine(t, 40, Options{})
	q := testDB(40, 7)[3]
	cases := []Query{
		{},                                  // missing kind
		{Kind: "fuzzy", K: 3},               // unknown kind
		{Kind: KindKNN},                     // k missing
		{Kind: KindKNN, K: -2},              // negative k
		{Kind: KindSubKNN},                  // k missing
		{Kind: KindRange, Radius: -1},       // negative radius
		{Kind: KindKNN, K: 3, Limit: -1},    // negative limit
		{Kind: KindKNN, K: 3, MaxEvals: -5}, // negative budget
	}
	for i, bad := range cases {
		if _, err := e.Search(context.Background(), q, bad); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("case %d (%+v): err = %v, want ErrInvalidQuery", i, bad, err)
		}
	}
	if _, err := e.Search(context.Background(), nil, Query{Kind: KindKNN, K: 3}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("nil trajectory: err = %v, want ErrInvalidQuery", err)
	}
}

// TestSearchLimitSeedsBound: an admissible Limit prunes the answer set
// to distances ≤ Limit while keeping the surviving prefix byte-identical
// to the unbounded search.
func TestSearchLimitSeedsBound(t *testing.T) {
	db := testDB(130, 47)
	for _, shards := range []int{1, 4} {
		e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, Options{CacheSize: -1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		q := db[9].Clone()
		q.ID = 9_000_000
		full, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Results) < 4 {
			t.Fatal("not enough results to seed a limit")
		}
		// An admissible external bound: the exact 4th-best distance.
		limit := full.Results[3].Dist
		ans, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 10, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Results) == 0 || len(ans.Results) > len(full.Results) {
			t.Fatalf("shards=%d: limited search returned %d results", shards, len(ans.Results))
		}
		for i, r := range ans.Results {
			if r.Dist > limit {
				t.Fatalf("shards=%d: result %d dist %v exceeds limit %v", shards, i, r.Dist, limit)
			}
			if r.Traj.ID != full.Results[i].Traj.ID || r.Dist != full.Results[i].Dist {
				t.Fatalf("shards=%d: limited prefix diverges at %d", shards, i)
			}
		}
	}
}
