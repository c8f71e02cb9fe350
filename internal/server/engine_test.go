package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// testDB builds n short trajectories scattered over a grid, deterministic
// in seed.
func testDB(n int, seed int64) []*traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	db := make([]*traj.Trajectory, n)
	for i := range db {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		pts := make([]traj.Point, 5)
		for j := range pts {
			x += rng.Float64()*20 - 10
			y += rng.Float64()*20 - 10
			pts[j] = traj.P(x, y, float64(j)*10)
		}
		db[i] = traj.New(i, pts)
	}
	return db
}

func newTestEngine(t testing.TB, n int, opt Options) *Engine {
	t.Helper()
	e, err := NewEngineFromDB(testDB(n, 7), trajtree.Options{Seed: 1, LeafSize: 5}, opt)
	if err != nil {
		t.Fatalf("NewEngineFromDB: %v", err)
	}
	return e
}

func TestEngineKNNMatchesTree(t *testing.T) {
	db := testDB(80, 7)
	tree, err := trajtree.New(db, trajtree.Options{Seed: 1, LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tree, Options{CacheSize: -1})
	for qi := 0; qi < 5; qi++ {
		q := db[qi*13].Clone()
		q.ID = 1_000_000 + qi
		got := search(t, e, q, Query{Kind: KindKNN, K: 5}).Results
		sameResults(t, fmt.Sprintf("query %d", qi), got, bruteKNN(db, q, 5))
	}
}

func TestEngineCache(t *testing.T) {
	e := newTestEngine(t, 60, Options{CacheSize: 16})
	q := testDB(60, 7)[3].Clone()
	q.ID = 1_000_000

	first := search(t, e, q, Query{Kind: KindKNN, K: 4}).Results
	if hits := e.Stats().CacheHits; hits != 0 {
		t.Fatalf("cold query reported %d cache hits", hits)
	}
	second := search(t, e, q.Clone(), Query{Kind: KindKNN, K: 4}).Results // fresh object, same geometry
	if hits := e.Stats().CacheHits; hits != 1 {
		t.Fatalf("repeat query reported %d cache hits, want 1", hits)
	}
	for i := range first {
		if first[i].Traj.ID != second[i].Traj.ID {
			t.Fatalf("cached answer differs at rank %d", i)
		}
	}
	// Different k must miss.
	search(t, e, q, Query{Kind: KindKNN, K: 5})
	if hits := e.Stats().CacheHits; hits != 1 {
		t.Fatalf("k=5 after k=4 reported %d cache hits, want 1", hits)
	}

	// An insert bumps the tree generation and invalidates cached answers.
	nt := testDB(61, 99)[60]
	nt.ID = 5000
	if err := e.Insert(nt); err != nil {
		t.Fatal(err)
	}
	search(t, e, q, Query{Kind: KindKNN, K: 4})
	if hits := e.Stats().CacheHits; hits != 1 {
		t.Fatalf("post-insert query reported %d cache hits, want 1 (stale entry served)", hits)
	}
}

func TestEngineInsertDeleteVisibleToQueries(t *testing.T) {
	e := newTestEngine(t, 40, Options{})
	tr := traj.New(4000, []traj.Point{traj.P(5000, 5000, 0), traj.P(5010, 5000, 10)})
	if err := e.Insert(tr); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(tr); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	q := traj.New(9999, []traj.Point{traj.P(5001, 5000, 0), traj.P(5009, 5000, 10)})
	res := search(t, e, q, Query{Kind: KindKNN, K: 1}).Results
	if len(res) != 1 || res[0].Traj.ID != 4000 {
		t.Fatalf("inserted trajectory not found, got %v", res)
	}
	if !e.Delete(4000) {
		t.Fatal("delete reported not present")
	}
	if e.Delete(4000) {
		t.Fatal("second delete reported present")
	}
	res = search(t, e, q, Query{Kind: KindKNN, K: 1}).Results
	if len(res) == 1 && res[0].Traj.ID == 4000 {
		t.Fatal("deleted trajectory still returned")
	}
}

// TestEngineConcurrentKNNDuringInsert is the acceptance test for the
// engine's concurrency claim: 8 goroutines issue k-NN queries in a loop
// while the main goroutine inserts and deletes trajectories. Run with
// -race; the RWMutex discipline is what keeps it quiet.
func TestEngineConcurrentKNNDuringInsert(t *testing.T) {
	e := newTestEngine(t, 60, Options{CacheSize: 64})
	db := testDB(60, 7)

	const readers = 8
	const queriesPerReader = 30
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(readers)
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < queriesPerReader; i++ {
				q := db[(r*queriesPerReader+i)%len(db)].Clone()
				q.ID = 1_000_000 + r*queriesPerReader + i
				ans, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 3})
				if err != nil || len(ans.Results) == 0 {
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
				}
			}
		}(r)
	}

	// Writer: interleave inserts and deletes with the reader storm.
	extra := testDB(100, 31)[60:]
	for i, tr := range extra {
		tr.ID = 10_000 + i
		if err := e.Insert(tr); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%3 == 0 {
			e.Delete(10_000 + i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := e.Stats()
	if st.Inserts != uint64(len(extra)) {
		t.Errorf("stats inserts %d, want %d", st.Inserts, len(extra))
	}
	wantSize := 60 + len(extra) - (len(extra)+2)/3
	if st.Size != wantSize {
		t.Errorf("final size %d, want %d", st.Size, wantSize)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	k1 := cacheKey{metric: "edwp", hash: 1, k: 1}
	k2 := cacheKey{metric: "edwp", hash: 2, k: 1}
	k3 := cacheKey{metric: "edwp", hash: 3, k: 1}
	c.put(k1, 0, nil)
	c.put(k2, 0, nil)
	c.get(k1, 0) // touch k1 so k2 becomes LRU
	c.put(k3, 0, nil)
	if _, ok := c.get(k2, 0); ok {
		t.Error("LRU entry k2 survived eviction")
	}
	if _, ok := c.get(k1, 0); !ok {
		t.Error("recently used k1 was evicted")
	}
	if c.len() != 2 {
		t.Errorf("cache len %d, want 2", c.len())
	}
	// Stale generation is a miss and removes the entry.
	if _, ok := c.get(k1, 1); ok {
		t.Error("stale-generation entry served")
	}
	if c.len() != 1 {
		t.Errorf("cache len %d after stale eviction, want 1", c.len())
	}
}
