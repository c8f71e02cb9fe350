package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/dtwindex"
	"trajmatch/internal/edrindex"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// multiSpecs returns the standard three-metric boot over db: EDwP (tree),
// DTW and EDR, with EDR's ε derived from the whole corpus exactly as the
// serving stack derives it.
func multiSpecs(db []*traj.Trajectory, topt trajtree.Options) []backend.Spec {
	return []backend.Spec{
		trajtree.BackendSpec(topt),
		dtwindex.BackendSpec(),
		edrindex.BackendSpec(edrindex.DefaultEps(db)),
	}
}

func exactSameResults(t *testing.T, label string, got, want []backend.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Traj.ID != want[i].Traj.ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: rank %d: (%d, %v), want (%d, %v)",
				label, i, got[i].Traj.ID, got[i].Dist, want[i].Traj.ID, want[i].Dist)
		}
	}
}

// TestEngineBackendsMatchStandaloneAcrossShards is the acceptance
// property of the pluggable-backend redesign: Engine.Search routed to
// the DTW and EDR backends is byte-identical to the corresponding
// standalone Index.SearchKNN over the whole database, across shard counts
// {1, 2, 4, 8} — the shared-bound fan-out and the (distance, ID) merge
// change nothing about the answer, only about the work.
func TestEngineBackendsMatchStandaloneAcrossShards(t *testing.T) {
	db := testDB(160, 11)
	// Duplicated trajectories under fresh IDs force exact distance ties,
	// the case where only deterministic tie ordering keeps the property.
	for i := 0; i < 20; i++ {
		dup := db[i*7%len(db)].Clone()
		dup.ID = 100_000 + i
		db = append(db, dup)
	}
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	eps := edrindex.DefaultEps(db)
	dtwRef := dtwindex.New(db)
	edrRef := edrindex.New(db, eps)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(53))
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := NewMultiEngineFromDB(db, multiSpecs(db, topt), Options{CacheSize: -1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for it := 0; it < 12; it++ {
				q := db[rng.Intn(len(db))].Clone()
				q.ID = 3_000_000 + it
				if it%3 == 0 {
					for i := range q.Points {
						q.Points[i].X += rng.NormFloat64() * 15
						q.Points[i].Y += rng.NormFloat64() * 15
					}
				}
				k := 1 + rng.Intn(10)

				dans, err := e.Search(ctx, q, Query{Kind: KindKNN, K: k, Metric: "dtw", WithStats: true})
				if err != nil {
					t.Fatalf("it=%d: dtw Search: %v", it, err)
				}
				dref, _, _, _ := dtwRef.SearchKNN(q, k, nil, nil)
				exactSameResults(t, fmt.Sprintf("dtw it=%d k=%d", it, k), dans.Results, dref)
				if dans.Stats.DistanceCalls == 0 {
					t.Fatalf("it=%d: dtw search reported no distance calls", it)
				}

				eans, err := e.Search(ctx, q, Query{Kind: KindKNN, K: k, Metric: "edr", WithStats: true})
				if err != nil {
					t.Fatalf("it=%d: edr Search: %v", it, err)
				}
				eref, _, _, _ := edrRef.SearchKNN(q, k, nil, nil)
				exactSameResults(t, fmt.Sprintf("edr it=%d k=%d", it, k), eans.Results, eref)

				// Range queries agree with the standalone indexes too.
				radius := []float64{20, 80, 300}[it%3]
				drans, err := e.Search(ctx, q, Query{Kind: KindRange, Radius: radius, Metric: "dtw"})
				if err != nil {
					t.Fatalf("it=%d: dtw range: %v", it, err)
				}
				drref, _, _, _ := dtwRef.SearchKNN(q, math.MaxInt, backend.NewSharedBound(radius), nil)
				exactSameResults(t, fmt.Sprintf("dtw range it=%d r=%v", it, radius), drans.Results, drref)
			}
		})
	}
}

// TestSearchMetricRouting: the metric list distinguishes a mistyped metric
// from a known one that was not booted, the empty metric resolves
// to the first boot order, and every loaded metric routes to its own
// backend.
func TestSearchMetricRouting(t *testing.T) {
	db := testDB(80, 7)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := db[3].Clone()
	q.ID = 900_000

	// dtw is registered (this test binary links it) but not loaded here.
	if _, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 3, Metric: "dtw"}); !errors.Is(err, ErrMetricNotLoaded) {
		t.Fatalf("unloaded metric: err = %v, want ErrMetricNotLoaded", err)
	}
	// A name nothing registered is unknown.
	if _, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 3, Metric: "frechet"}); !errors.Is(err, ErrUnknownMetric) {
		t.Fatalf("unknown metric: err = %v, want ErrUnknownMetric", err)
	}

	// A dtw-first engine resolves the empty metric to dtw.
	me, err := NewMultiEngineFromDB(db, []backend.Spec{dtwindex.BackendSpec(), trajtree.BackendSpec(topt)}, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := me.Search(context.Background(), q, Query{Kind: KindKNN, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	dtw, err := me.Search(context.Background(), q, Query{Kind: KindKNN, K: 5, Metric: "dtw"})
	if err != nil {
		t.Fatal(err)
	}
	exactSameResults(t, "default vs explicit dtw", def.Results, dtw.Results)
	if got := me.Metrics(); got[0] != "dtw" || got[1] != "edwp" {
		t.Fatalf("Metrics() = %v, want boot order [dtw edwp]", got)
	}
}

// TestMetricCacheIsolation: the LRU cache keys on (metric, query), so
// the same geometry queried under two metrics never cross-serves.
func TestMetricCacheIsolation(t *testing.T) {
	db := testDB(90, 19)
	e, err := NewMultiEngineFromDB(db, multiSpecs(db, trajtree.Options{Seed: 1, LeafSize: 5}), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := db[5].Clone()
	q.ID = 950_000
	ctx := context.Background()
	edwp1, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	dtw1, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 5, Metric: "dtw"})
	if err != nil {
		t.Fatal(err)
	}
	if dtw1.Cached {
		t.Fatal("dtw query served from the edwp cache entry")
	}
	dtwRef, _, _, _ := dtwindex.New(db).SearchKNN(q, 5, nil, nil)
	exactSameResults(t, "dtw after cached edwp", dtw1.Results, dtwRef)
	// Both metrics hit their own entries on repeat.
	edwp2, _ := e.Search(ctx, q, Query{Kind: KindKNN, K: 5})
	dtw2, _ := e.Search(ctx, q, Query{Kind: KindKNN, K: 5, Metric: "dtw"})
	if !edwp2.Cached || !dtw2.Cached {
		t.Fatalf("repeat queries not cached (edwp=%v dtw=%v)", edwp2.Cached, dtw2.Cached)
	}
	exactSameResults(t, "cached edwp", edwp2.Results, edwp1.Results)
	exactSameResults(t, "cached dtw", dtw2.Results, dtw1.Results)
}

// TestBackendCancellation: a context fired mid-scan aborts a DTW/EDR
// backend search within bounded wall clock — the flat scans poll the
// Ctl between candidates and their DP kernels poll it per row.
func TestBackendCancellation(t *testing.T) {
	db := longDB(32, 900, 31)
	specs := []backend.Spec{dtwindex.BackendSpec(), edrindex.BackendSpec(edrindex.DefaultEps(db))}
	e, err := NewMultiEngineFromDB(db, specs, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := db[5].Clone()
	q.ID = 6_000_000
	for _, metric := range []string{"dtw", "edr"} {
		t.Run(metric, func(t *testing.T) {
			t0 := time.Now()
			want, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 5, Metric: metric})
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
			ans, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 5, Metric: metric})
			elapsed := time.Since(t0)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Search returned err=%v (answer %d results), want context.Canceled", err, len(ans.Results))
			}
			if len(ans.Results) != 0 {
				t.Fatalf("cancelled Search leaked %d results", len(ans.Results))
			}
			if elapsed > full/2+100*time.Millisecond {
				t.Fatalf("cancelled %s search took %v of an uncancelled %v — cancellation was not prompt", metric, elapsed, full)
			}
			// The engine answers exactly afterwards.
			again, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 5, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			exactSameResults(t, "post-cancel", again.Results, want.Results)
		})
	}
}

// TestBackendMaxEvalsTruncates: the evaluation budget is metric-agnostic
// — a DTW query that exhausts it stops early and reports truncation.
func TestBackendMaxEvalsTruncates(t *testing.T) {
	db := testDB(150, 43)
	e, err := NewMultiEngineFromDB(db, []backend.Spec{dtwindex.BackendSpec()}, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := db[7].Clone()
	q.ID = 8_000_000
	full, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 10, WithStats: true})
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Stats.DistanceCalls / 3
	if budget == 0 {
		t.Fatal("full search made no distance calls")
	}
	ans, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 10, MaxEvals: budget, WithStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Truncated {
		t.Fatalf("budget %d of %d evals did not truncate", budget, full.Stats.DistanceCalls)
	}
	if ans.Stats.DistanceCalls > budget {
		t.Fatalf("query spent %d evals, budget %d", ans.Stats.DistanceCalls, budget)
	}
}

// TestMutationCapabilityGate: updates require every loaded backend to be
// mutable; with a static DTW index loaded, Insert/Rebuild surface
// ErrNotSupported, Delete reports nothing deleted, and sub-trajectory
// search under a metric without one is ErrNotSupported too.
func TestMutationCapabilityGate(t *testing.T) {
	db := testDB(60, 7)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	e, err := NewMultiEngineFromDB(db, multiSpecs(db, topt), Options{CacheSize: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := testDB(61, 99)[60]
	tr.ID = 700_000
	if err := e.Insert(tr); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("Insert with static backends: err = %v, want ErrNotSupported", err)
	}
	if e.Delete(db[0].ID) {
		t.Fatal("Delete succeeded despite static backends")
	}
	if err := e.Rebuild(); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("Rebuild with static backends: err = %v, want ErrNotSupported", err)
	}
	if err := e.CanMutate(); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("CanMutate: err = %v, want ErrNotSupported", err)
	}
	// Sub-trajectory search exists only for EDwP.
	q := db[3].Clone()
	q.ID = 710_000
	if _, err := e.Search(context.Background(), q, Query{Kind: KindSubKNN, K: 3, Metric: "dtw"}); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("dtw subknn: err = %v, want ErrNotSupported", err)
	}
	if _, err := e.Search(context.Background(), q, Query{Kind: KindSubKNN, K: 3, Metric: "edwp"}); err != nil {
		t.Fatalf("edwp subknn should work in a multi-metric engine: %v", err)
	}
	// An EDwP-only engine still mutates.
	solo, err := NewEngineFromDB(db, topt, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.Insert(tr); err != nil {
		t.Fatalf("edwp-only Insert: %v", err)
	}
	if err := solo.CanMutate(); err != nil {
		t.Fatalf("edwp-only CanMutate: %v", err)
	}
}

// TestSnapshotCapability: a snapshot needs a persistent (tree-backed)
// backend; a DTW-only engine answers ErrNotSupported, and a multi-metric
// engine persists its EDwP set with the manifest recording exactly that.
func TestSnapshotCapability(t *testing.T) {
	db := testDB(80, 23)
	dir := t.TempDir()
	dtwOnly, err := NewMultiEngineFromDB(db, []backend.Spec{dtwindex.BackendSpec()}, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dtwOnly.SaveSnapshot(dir); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("dtw-only snapshot: err = %v, want ErrNotSupported", err)
	}
}

// TestLoadSnapshotSpecsRebuildsMetrics: a snapshot written by a
// multi-metric engine restores the persisted EDwP trees byte-identically
// and rebuilds the requested static metrics from the loaded corpus, so
// every metric answers exactly as before the round trip.
func TestLoadSnapshotSpecsRebuildsMetrics(t *testing.T) {
	db := testDB(120, 43)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	dir := t.TempDir()
	e, err := NewMultiEngineFromDB(db, multiSpecs(db, topt), Options{CacheSize: -1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadSnapshotSpecs(dir, func(corpus []*traj.Trajectory) ([]backend.Spec, error) {
		return multiSpecs(corpus, topt), nil
	}, Options{CacheSize: -1})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got, want := loaded.Metrics(), []string{"edwp", "dtw", "edr"}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("loaded metrics %v, want %v", got, want)
	}
	if loaded.Shards() != 3 {
		t.Fatalf("loaded %d shards, want 3", loaded.Shards())
	}
	ctx := context.Background()
	for it := 0; it < 6; it++ {
		q := db[it*17%len(db)].Clone()
		q.ID = 2_000_000 + it
		for _, metric := range []string{"edwp", "dtw", "edr"} {
			want, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 5, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Search(ctx, q, Query{Kind: KindKNN, K: 5, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			exactSameResults(t, fmt.Sprintf("%s it=%d", metric, it), got.Results, want.Results)
		}
	}
}

// TestEngineLimitBoundsAnswers: Query.Limit caps every distance in the
// answer under the flat metrics too. A DTW or EDR kernel can run to
// completion above the limit it was given — its last row's minimum was
// within the limit, the final cell is not — without reporting an
// abandon, and such a value must not enter the answer. Limit sits at
// the unbounded search's 4th-best distance (+0.5 for EDR's edit
// counts), so the bounded answer is exactly the unbounded one's prefix
// within it, at 1 and 2 shards.
func TestEngineLimitBoundsAnswers(t *testing.T) {
	db := testDB(160, 11)
	specs := multiSpecs(db, trajtree.Options{Seed: 1, LeafSize: 5})
	for _, shards := range []int{1, 2} {
		e, err := NewMultiEngineFromDB(db, specs, Options{CacheSize: -1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		for it := 0; it < 30; it++ {
			q := db[rng.Intn(len(db))].Clone()
			q.ID = 3_000_000 + it
			for i := range q.Points {
				q.Points[i].X += rng.NormFloat64() * 15
				q.Points[i].Y += rng.NormFloat64() * 15
			}
			for _, metric := range []string{"dtw", "edr"} {
				label := fmt.Sprintf("shards=%d %s it=%d", shards, metric, it)
				full := search(t, e, q, Query{Kind: KindKNN, K: 10, Metric: metric}).Results
				limit := full[3].Dist
				if metric == "edr" {
					limit += 0.5
				}
				if limit == 0 {
					continue // 0 is the wire's "unbounded"
				}
				var want []backend.Result
				for _, r := range full {
					if r.Dist <= limit {
						want = append(want, r)
					}
				}
				got := search(t, e, q, Query{Kind: KindKNN, K: 10, Metric: metric, Limit: limit}).Results
				exactSameResults(t, label, got, want)
			}
		}
	}
}

// TestEngineRangeEdges: a range query seeds its search at the radius
// itself, so radius 0 answers exactly the members at distance 0 — not
// the whole corpus, as a 0 read as "unbounded" would — and a radius
// below every distance answers empty, for every metric and the same at
// 1 and 2 shards.
func TestEngineRangeEdges(t *testing.T) {
	db := withTies(testDB(160, 11))
	specs := multiSpecs(db, trajtree.Options{Seed: 1, LeafSize: 5})
	exact := db[1].Clone()
	exact.ID = 2_000_000
	off := db[2].Clone()
	off.ID = 2_000_001
	for i := range off.Points {
		off.Points[i].X += 7
	}
	var one *Engine
	for _, shards := range []int{1, 2} {
		e, err := NewMultiEngineFromDB(db, specs, Options{CacheSize: -1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if one == nil {
			one = e
		}
		for _, metric := range []string{"edwp", "dtw", "edr"} {
			label := fmt.Sprintf("shards=%d %s", shards, metric)
			all := search(t, one, exact, Query{Kind: KindKNN, K: len(db), Metric: metric}).Results
			var zero []backend.Result
			for _, r := range all {
				if r.Dist == 0 {
					zero = append(zero, r)
				}
			}
			if len(zero) < 5 || len(zero) == len(db) {
				t.Fatalf("%s: %d members at distance 0, want the duplicate group of 5", label, len(zero))
			}
			got := search(t, e, exact, Query{Kind: KindRange, Radius: 0, Metric: metric}).Results
			exactSameResults(t, label+" radius 0", got, zero)

			nearest := search(t, one, off, Query{Kind: KindKNN, K: 1, Metric: metric}).Results[0].Dist
			if nearest == 0 {
				t.Fatalf("%s: the shifted query sits on a member", label)
			}
			if got := search(t, e, off, Query{Kind: KindRange, Radius: nearest / 2, Metric: metric}).Results; len(got) != 0 {
				t.Fatalf("%s: radius %v below every distance answered %d members", label, nearest/2, len(got))
			}
		}
	}
}
