package server

import (
	"context"
	"fmt"
	"testing"

	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// search runs one query through Engine.Search with stats on, failing the
// test on error. Call it from the test goroutine only.
func search(t testing.TB, e *Engine, q *traj.Trajectory, query Query) Answer {
	t.Helper()
	query.WithStats = true
	ans, err := e.Search(context.Background(), q, query)
	if err != nil {
		t.Fatalf("Search %s: %v", query.Kind, err)
	}
	return ans
}

// sameAnswer runs one query on both engines and requires the same IDs,
// distances and order, and the same per-query work counters.
func sameAnswer(t *testing.T, label string, got, want *Engine, q *traj.Trajectory, query Query) {
	t.Helper()
	query.WithStats = true
	g, err := got.Search(context.Background(), q, query)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	w, err := want.Search(context.Background(), q, query)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameResults(t, label, g.Results, w.Results)
	if g.Stats != w.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, g.Stats, w.Stats)
	}
}

// TestSnapshotMmapBoot pins what Options.Mmap selects: a snapshot loaded
// with it serves every shard from its mapped file, one loaded without it
// from a heap buffer — visible through the per-shard memory stats — and
// both answer byte-identically to the engine that saved the directory.
func TestSnapshotMmapBoot(t *testing.T) {
	db := testDB(120, 43)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			// One worker: a sequential fan-out makes the per-query work
			// counters repeatable.
			e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Workers: 1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			heap, err := LoadSnapshot(dir, Options{CacheSize: -1, Workers: 1})
			if err != nil {
				t.Fatalf("heap load: %v", err)
			}
			mm, err := LoadSnapshot(dir, Options{CacheSize: -1, Workers: 1, Mmap: true})
			if err != nil {
				t.Fatalf("mmap load: %v", err)
			}
			for i, ss := range mm.Stats().PerShard {
				if ss.Mem == nil || !ss.Mem.Arena.Mapped {
					t.Fatalf("shard %d not mmap-backed: %+v", i, ss.Mem)
				}
			}
			for i, ss := range heap.Stats().PerShard {
				if ss.Mem == nil || ss.Mem.Arena.Mapped {
					t.Fatalf("heap-loaded shard %d claims to be mapped: %+v", i, ss.Mem)
				}
			}
			for it := 0; it < 10; it++ {
				q := db[(it*13)%len(db)].Clone()
				q.ID = 6_000_000 + it
				for _, loaded := range []*Engine{mm, heap} {
					sameAnswer(t, fmt.Sprintf("KNN it=%d", it), loaded, e, q, Query{Kind: KindKNN, K: 6})
					sameAnswer(t, fmt.Sprintf("Range it=%d", it), loaded, e, q, Query{Kind: KindRange, Radius: 30})
				}
			}
			// A mapped engine stays fully mutable; the rebuild folds the
			// insert in and moves the shard onto fresh heap slabs.
			nt := testDB(121, 47)[120]
			nt.ID = 70_001
			if err := mm.Insert(nt); err != nil {
				t.Fatalf("post-mmap-load insert: %v", err)
			}
			if err := mm.Rebuild(); err != nil {
				t.Fatalf("post-mmap-load rebuild: %v", err)
			}
			if mm.Lookup(70_001) == nil {
				t.Fatal("inserted trajectory lost across rebuild")
			}
		})
	}
}
