package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// sameResults asserts two result lists agree exactly: same IDs, same
// distances, same order. The sharded fan-out must be byte-identical to
// the single-tree reference, not approximately equal — the shared bound
// only ever prunes work, never changes answers.
func sameResults(t *testing.T, label string, got, want []trajtree.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Traj.ID != want[i].Traj.ID {
			t.Fatalf("%s: rank %d is T%d, want T%d", label, i, got[i].Traj.ID, want[i].Traj.ID)
		}
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s: rank %d dist %v != %v (T%d)", label, i, got[i].Dist, want[i].Dist, got[i].Traj.ID)
		}
	}
}

// bruteKNN is the exact EDwPavg k-NN of q over db by unbounded scan,
// exact ties decided by ID (backend.KBest): the reference an engine's
// answer must equal byte for byte.
func bruteKNN(db []*traj.Trajectory, q *traj.Trajectory, k int) []backend.Result {
	ans := backend.NewKBest(k)
	for _, tr := range db {
		ans.Offer(tr, core.AvgDistance(q, tr))
	}
	return ans.Results()
}

// withTies returns db plus four clones of each of its first three
// members under fresh IDs, which hash to unrelated shards. A clone ties
// its original at every distance, so a query near one of them meets a
// group of five members at one distance (zero for the member's own
// geometry), and a k that cuts the group is decided by ID alone.
func withTies(db []*traj.Trajectory) []*traj.Trajectory {
	out := append([]*traj.Trajectory(nil), db...)
	for i := 0; i < 12; i++ {
		c := db[i%3].Clone()
		c.ID = 10_000 + i
		out = append(out, c)
	}
	return out
}

// TestShardedKNNMatchesSingleTree is the acceptance property of the
// sharded engine: for shard counts 1, 2, 4 and 8 over the same corpus,
// k-NN and range answers of Search are identical to the single
// reference tree's, query for query. On a corpus with exact ties the
// answer must not depend on the deployment at all: for every metric, and
// for subknn under EDwP, 1, 2, 3, 4 and 8 shards answer as one shard
// built over the corpus in another order.
func TestShardedKNNMatchesSingleTree(t *testing.T) {
	db := testDB(160, 11)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	ref, err := trajtree.New(db, topt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if e.Shards() != shards {
				t.Fatalf("engine has %d shards, want %d", e.Shards(), shards)
			}
			if e.Size() != len(db) {
				t.Fatalf("engine size %d, want %d", e.Size(), len(db))
			}
			for it := 0; it < 20; it++ {
				q := db[rng.Intn(len(db))].Clone()
				q.ID = 1_000_000 + it
				if it%3 == 0 { // off-database shapes too
					for i := range q.Points {
						q.Points[i].X += rng.NormFloat64() * 15
						q.Points[i].Y += rng.NormFloat64() * 15
					}
				}
				k := 1 + rng.Intn(10)
				ans := search(t, e, q, Query{Kind: KindKNN, K: k})
				want, _, _, _ := ref.SearchKNN(q, k, nil, nil)
				sameResults(t, fmt.Sprintf("KNN it=%d k=%d", it, k), ans.Results, want)
				if ans.Stats.DistanceCalls == 0 {
					t.Fatalf("it=%d: fan-out reported zero distance calls", it)
				}

				radius := []float64{5, 20, 80}[it%3]
				gotR := search(t, e, q, Query{Kind: KindRange, Radius: radius}).Results
				wantR, _, _, _ := ref.SearchRange(q, radius, nil)
				sameResults(t, fmt.Sprintf("Range it=%d r=%v", it, radius), gotR, wantR)
			}
		})
	}

	tied := withTies(db)
	specs := multiSpecs(tied, topt)
	perm := make([]*traj.Trajectory, len(tied))
	for i, j := range rng.Perm(len(tied)) {
		perm[i] = tied[j].Clone()
	}
	single, err := NewMultiEngineFromDB(perm, specs, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	var queries []*traj.Trajectory
	for i := 0; i < 3; i++ {
		exact, near := tied[i].Clone(), tied[i].Clone()
		exact.ID, near.ID = 2_000_000+i, 2_100_000+i
		for j := range near.Points {
			near.Points[j].X += 3
		}
		queries = append(queries, exact, near)
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("ties/shards=%d", shards), func(t *testing.T) {
			e, err := NewMultiEngineFromDB(tied, specs, Options{CacheSize: -1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, metric := range []string{"edwp", "dtw", "edr"} {
				kinds := []Query{{Kind: KindKNN, K: 1}, {Kind: KindKNN, K: 3}, {Kind: KindKNN, K: 7}}
				if metric == "edwp" {
					kinds = append(kinds, Query{Kind: KindSubKNN, K: 3})
				}
				for _, req := range kinds {
					req.Metric = metric
					for qi, q := range queries {
						label := fmt.Sprintf("%s %s k=%d query %d", metric, req.Kind, req.K, qi)
						sameResults(t, label, search(t, e, q, req).Results, search(t, single, q, req).Results)
					}
				}
			}
		})
	}
}

// TestShardedUpdatesRouteAndStayExact drives inserts and deletes through
// the hash router and verifies lookup routing, duplicate rejection across
// the sharded index, and continued exactness against a brute-force
// reference after the churn.
func TestShardedUpdatesRouteAndStayExact(t *testing.T) {
	db := testDB(90, 29)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	extra := testDB(130, 31)[90:]
	for i, tr := range extra {
		tr.ID = 50_000 + i
		if err := e.Insert(tr); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := e.Insert(extra[0]); err == nil {
		t.Fatal("duplicate insert across shards succeeded")
	}
	for i := 0; i < len(extra); i += 3 {
		if !e.Delete(50_000 + i) {
			t.Fatalf("delete %d reported not present", 50_000+i)
		}
	}
	if e.Delete(50_000) {
		t.Fatal("second delete reported present")
	}
	if e.Lookup(50_001) == nil {
		t.Fatal("lookup lost a surviving insert")
	}
	if e.Lookup(50_000) != nil {
		t.Fatal("lookup found a deleted trajectory")
	}

	// Current membership: the original db plus surviving extras.
	var members []*traj.Trajectory
	members = append(members, db...)
	for i, tr := range extra {
		if i%3 != 0 {
			members = append(members, tr)
		}
	}
	if e.Size() != len(members) {
		t.Fatalf("size %d, want %d", e.Size(), len(members))
	}
	q := db[5].Clone()
	q.ID = 3_000_000
	got := search(t, e, q, Query{Kind: KindKNN, K: 7}).Results
	sameResults(t, "post-churn KNN", got, bruteKNN(members, q, 7))

	if err := e.Rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	got = search(t, e, q, Query{Kind: KindKNN, K: 7}).Results
	sameResults(t, "post-rebuild KNN", got, bruteKNN(members, q, 7))
}

// TestShardedConcurrentReadersAndWriters is the race acceptance test for
// the per-shard locking discipline: readers fan out across shards while
// writers hammer inserts, deletes, rebuilds and snapshots concurrently.
// Run with -race.
func TestShardedConcurrentReadersAndWriters(t *testing.T) {
	db := testDB(80, 37)
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5},
		Options{CacheSize: 64, Shards: 4, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 6
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(readers)
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := db[(r*25+i)%len(db)].Clone()
				q.ID = 4_000_000 + r*25 + i
				if ans, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 3}); err != nil || len(ans.Results) == 0 {
					errs <- fmt.Errorf("reader %d query %d: empty answer (err %v)", r, i, err)
					return
				}
				if i%5 == 0 {
					if _, err := e.SearchBatch(ctx, []*traj.Trajectory{q}, Query{Kind: KindKNN, K: 2}); err != nil {
						errs <- fmt.Errorf("reader %d batch %d: %v", r, i, err)
						return
					}
				}
				if i%7 == 0 {
					if _, err := e.Search(ctx, q, Query{Kind: KindRange, Radius: 50}); err != nil {
						errs <- fmt.Errorf("reader %d range %d: %v", r, i, err)
						return
					}
					e.Stats() // sums the metric counters other readers are adding to
				}
			}
		}(r)
	}
	extra := testDB(140, 41)[80:]
	for i, tr := range extra {
		tr.ID = 60_000 + i
		if err := e.Insert(tr); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%4 == 0 {
			e.Delete(60_000 + i)
		}
		if i == len(extra)/2 {
			if err := e.SaveSnapshot(e.SnapshotDir()); err != nil {
				t.Fatalf("concurrent snapshot: %v", err)
			}
		}
	}
	if err := e.Rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The snapshot taken mid-churn must be loadable: each manifest size
	// is captured under the same lock hold as the shard stream, so live
	// writers cannot desynchronise the two.
	loaded, err := LoadSnapshot(e.SnapshotDir(), Options{CacheSize: -1})
	if err != nil {
		t.Fatalf("loading mid-churn snapshot: %v", err)
	}
	probe := db[0].Clone()
	probe.ID = 4_900_000
	if res := search(t, loaded, probe, Query{Kind: KindKNN, K: 3}).Results; len(res) == 0 {
		t.Fatal("mid-churn snapshot answers nothing")
	}

	st := e.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats shards %d / per-shard %d, want 4", st.Shards, len(st.PerShard))
	}
	sum, maxH := 0, 0
	for _, ps := range st.PerShard {
		sum += ps.Size
		if ps.Height > maxH {
			maxH = ps.Height
		}
	}
	if sum != st.Size || maxH != st.Height {
		t.Fatalf("per-shard sum %d/max %d disagree with totals %d/%d", sum, maxH, st.Size, st.Height)
	}
	if st.Snapshots != 1 {
		t.Fatalf("snapshots counter %d, want 1", st.Snapshots)
	}
	// Per reader: 25 k-NN, 5 one-query batches, 4 range searches.
	if want := uint64(readers * (25 + 5 + 4)); st.Queries != want || st.PerMetric[0].Queries != want {
		t.Fatalf("queries %d (per metric %d), want %d", st.Queries, st.PerMetric[0].Queries, want)
	}
}

// TestShardRoutingIsStable pins the placement hash: shard assignment is
// part of the snapshot format, so accidental changes must fail loudly.
func TestShardRoutingIsStable(t *testing.T) {
	if shardIndex(0, 1) != 0 || shardIndex(12345, 1) != 0 {
		t.Fatal("single shard must own everything")
	}
	for _, n := range []int{2, 4, 8} {
		counts := make([]int, n)
		for id := 0; id < 4096; id++ {
			s := shardIndex(id, n)
			if s < 0 || s >= n {
				t.Fatalf("shardIndex(%d, %d) = %d out of range", id, n, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c < 4096/n/2 || c > 4096/n*2 {
				t.Fatalf("n=%d: shard %d holds %d of 4096 — placement badly skewed", n, s, c)
			}
		}
	}
}
