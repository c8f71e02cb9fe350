package server

import (
	"context"
	"fmt"
	"testing"

	"trajmatch/internal/trajtree"
)

// BenchmarkSnapshotBoot measures warm boot: LoadSnapshot plus the first
// k-NN answer, the shard files mapped against the same files read onto
// the heap. Both arms decode the same bytes — the CRC pass over the file
// plus O(nodes + members) pointer stitching — so what separates them is
// one read of the file into a buffer. -short (what CI runs) drops the
// 100k corpus to 5k to keep the setup cheap.
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
	q := db[len(db)/2].Clone()
	q.ID = 9_000_000

	for _, mm := range []bool{true, false} {
		b.Run(fmt.Sprintf("mmap=%v", mm), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := LoadSnapshot(dir, Options{CacheSize: -1, Mmap: mm})
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
