package server

import (
	"context"
	"testing"

	"trajmatch/internal/trajtree"
)

// BenchmarkSnapshotBoot measures warm boot: LoadSnapshot plus the first
// k-NN answer, the shard files mapped against the same files read onto
// the heap. Both arms decode the same bytes — the CRC pass over the file
// plus O(nodes + members) pointer stitching — so what separates them is
// one read of the file into a buffer. The prefilter=true arm boots the
// heap arm's files from a snapshot that records a sketch, so it adds
// the per-shard sketch builds a prefiltered engine's boot runs. The
// churned arm heap-boots the same corpus after a quarter of it was
// replaced by Delete and Insert and never rebuilt: its files hold the
// live members only, as a fresh build's do, and its members come back
// arena-resident. -short (what CI runs) drops the 100k corpus to 5k to
// keep the setup cheap.
func BenchmarkSnapshotBoot(b *testing.B) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	db := testDB(n, 71)
	dir := b.TempDir()
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1}, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.SaveSnapshot(dir); err != nil {
		b.Fatal(err)
	}
	// The same shards, saved again by an engine serving the prefilter.
	pf, err := LoadSnapshot(dir, Options{CacheSize: -1, Prefilter: true})
	if err != nil {
		b.Fatal(err)
	}
	pfDir := b.TempDir()
	if err := pf.SaveSnapshot(pfDir); err != nil {
		b.Fatal(err)
	}
	// A quarter of the corpus replaced, and no rebuild to fold the
	// inserts into the arena before the save.
	ch, err := NewEngineFromDB(testDB(n, 71), trajtree.Options{Seed: 1}, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i, tr := range testDB(n/4, 72) {
		if !ch.Delete(4 * i) {
			b.Fatalf("delete %d: not found", 4*i)
		}
		tr.ID = n + i
		if err := ch.Insert(tr); err != nil {
			b.Fatal(err)
		}
	}
	chDir := b.TempDir()
	if err := ch.SaveSnapshot(chDir); err != nil {
		b.Fatal(err)
	}
	q := db[len(db)/2].Clone()
	q.ID = 9_000_000

	for _, arm := range []struct {
		name string
		dir  string
		mmap bool
	}{{"mmap=true", dir, true}, {"mmap=false", dir, false}, {"prefilter=true", pfDir, false}, {"churned", chDir, false}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := LoadSnapshot(arm.dir, Options{CacheSize: -1, Mmap: arm.mmap})
				if err != nil {
					b.Fatal(err)
				}
				ans, err := eng.Search(context.Background(), q, Query{Kind: KindKNN, K: 3})
				if err != nil || len(ans.Results) == 0 {
					b.Fatalf("first query: %v (%d results)", err, len(ans.Results))
				}
			}
		})
	}
}
