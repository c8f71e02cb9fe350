package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

func TestResolvePlacementValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Partition
		ok   bool
	}{
		{"valid slice", Partition{Total: 4, Owned: []int{0, 2}}, true},
		{"full ownership", Partition{Total: 2, Owned: []int{0, 1}}, true},
		{"single shard", Partition{Total: 1, Owned: []int{0}}, true},
		{"empty owned", Partition{Total: 4, Owned: nil}, false},
		{"out of range", Partition{Total: 4, Owned: []int{4}}, false},
		{"negative shard", Partition{Total: 4, Owned: []int{-1}}, false},
		{"total zero", Partition{Total: 0, Owned: []int{0}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewEngineFromDB(testDB(20, 7), trajtree.Options{Seed: 1, LeafSize: 5},
				Options{CacheSize: -1, Partition: &tc.p})
			if tc.ok && err != nil {
				t.Fatalf("placement %+v rejected: %v", tc.p, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("placement %+v admitted", tc.p)
			}
		})
	}

	// Owned is documented as normalised, not validated: unsorted input
	// with duplicates resolves to the ascending deduplicated set.
	e, err := NewEngineFromDB(testDB(20, 7), trajtree.Options{Seed: 1, LeafSize: 5},
		Options{CacheSize: -1, Partition: &Partition{Total: 4, Owned: []int{3, 1, 3, 1}}})
	if err != nil {
		t.Fatalf("normalisable placement rejected: %v", err)
	}
	if got := e.OwnedShards(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("OwnedShards %v after normalisation, want [1 3]", got)
	}
	if e.Shards() != 2 {
		t.Fatalf("local shards %d after dedup, want 2", e.Shards())
	}
}

// TestPartitionFullOwnershipCollapses pins the identity case: owning
// every shard of the modulus is just a sharded standalone engine — the
// streaming layer and mutations must stay fully available.
func TestPartitionFullOwnershipCollapses(t *testing.T) {
	e := newTestEngine(t, 30, Options{CacheSize: -1, Partition: &Partition{Total: 4, Owned: []int{0, 1, 2, 3}}})
	if e.place.partitioned() {
		t.Fatalf("full ownership reports Partitioned")
	}
	if e.Shards() != 4 || e.ClusterShards() != 4 {
		t.Fatalf("shards %d cluster %d, want 4/4", e.Shards(), e.ClusterShards())
	}
	if _, err := e.Append(10_000, 0, []traj.Point{traj.P(0, 0, 0), traj.P(1, 1, 10)}); err != nil {
		t.Fatalf("append on full ownership: %v", err)
	}
}

// TestPartitionedOwnership walks every ownership-gated surface of a
// true partition: foreign IDs are invisible to Lookup, rejected by
// mutations, and the streaming layer is offline entirely.
func TestPartitionedOwnership(t *testing.T) {
	db := testDB(60, 7)
	const total = 4
	owned := []int{1, 3}
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5},
		Options{CacheSize: -1, Partition: &Partition{Total: total, Owned: owned}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if !e.place.partitioned() {
		t.Fatalf("partial ownership does not report Partitioned")
	}
	if e.ClusterShards() != total {
		t.Fatalf("ClusterShards %d, want %d", e.ClusterShards(), total)
	}
	if got := e.OwnedShards(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("OwnedShards %v, want %v", got, owned)
	}
	if e.Shards() != 2 {
		t.Fatalf("local shard count %d, want 2", e.Shards())
	}

	ownedCount := 0
	for _, tr := range db {
		g := ShardOf(tr.ID, total)
		isOwned := g == 1 || g == 3
		if owns := e.place.localShard(tr.ID) >= 0; owns != isOwned {
			t.Fatalf("owns(%d)=%v, shard %d with owned %v", tr.ID, owns, g, owned)
		}
		if got := e.Lookup(tr.ID); (got != nil) != isOwned {
			t.Fatalf("Lookup(%d) visible=%v, owned=%v", tr.ID, got != nil, isOwned)
		}
		if isOwned {
			ownedCount++
		}
	}
	if e.Size() != ownedCount {
		t.Fatalf("Size %d, want the %d owned trajectories", e.Size(), ownedCount)
	}

	// A foreign insert must bounce with ErrNotOwned, an owned one land.
	foreign := testDB(1, 555)[0]
	for id := 10_000; ; id++ {
		if g := ShardOf(id, total); g != 1 && g != 3 {
			foreign.ID = id
			break
		}
	}
	if err := e.Insert(foreign); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("foreign insert: %v, want ErrNotOwned", err)
	}
	local := testDB(1, 556)[0]
	for id := 20_000; ; id++ {
		if g := ShardOf(id, total); g == 1 || g == 3 {
			local.ID = id
			break
		}
	}
	if err := e.Insert(local); err != nil {
		t.Fatalf("owned insert: %v", err)
	}
	if e.Lookup(local.ID) == nil {
		t.Fatalf("owned insert not visible")
	}

	// Foreign delete reports absence without error.
	if e.Delete(foreign.ID) {
		t.Fatalf("foreign delete reported a deletion")
	}

	// Streaming is single-node this PR: partitioned engines refuse it.
	if _, err := e.Append(local.ID, 0, []traj.Point{traj.P(0, 0, 100)}); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("partitioned append: %v, want ErrNotSupported", err)
	}
	if _, err := e.Watch(db[0], "", 100, 1, false); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("partitioned watch: %v, want ErrNotSupported", err)
	}
}

// TestPartitionShardByteIdentity is the placement invariant snapshot
// shipping relies on: a node's local tree for global shard g is the
// same tree the single-process engine holds at position g, so shipped
// sections drop into any deployment shape.
func TestPartitionShardByteIdentity(t *testing.T) {
	db := testDB(80, 7)
	const total = 4
	single := newTestEngine(t, 80, Options{CacheSize: -1, Shards: total})
	node, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5},
		Options{CacheSize: -1, Partition: &Partition{Total: total, Owned: []int{2}}})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	// Same members...
	for _, tr := range db {
		if ShardOf(tr.ID, total) != 2 {
			continue
		}
		if node.Lookup(tr.ID) == nil {
			t.Fatalf("node missing shard-2 member %d", tr.ID)
		}
	}
	// ...and same answers for queries restricted to that shard's slice.
	for _, q := range testDB(4, 99) {
		req := Query{Kind: KindKNN, K: 3}
		want, err := single.Search(context.Background(), q, req)
		if err != nil {
			t.Fatalf("single: %v", err)
		}
		got, err := node.Search(context.Background(), q, req)
		if err != nil {
			t.Fatalf("node: %v", err)
		}
		// The node's answer must be exactly the shard-2 members of the
		// single engine's candidate ranking. Recompute by filtering the
		// single answer's full corpus ranking to shard 2.
		full, err := single.Search(context.Background(), q, Query{Kind: KindKNN, K: len(db)})
		if err != nil {
			t.Fatalf("full ranking: %v", err)
		}
		var filtered []int
		for _, r := range full.Results {
			if ShardOf(r.Traj.ID, total) == 2 && len(filtered) < req.K {
				filtered = append(filtered, r.Traj.ID)
			}
		}
		if len(got.Results) != len(filtered) {
			t.Fatalf("node answered %d results, want %d", len(got.Results), len(filtered))
		}
		for i, r := range got.Results {
			if r.Traj.ID != filtered[i] {
				t.Fatalf("rank %d: node id=%d, filtered single ranking id=%d", i, r.Traj.ID, filtered[i])
			}
		}
		_ = want
	}
}

// TestPartialSnapshotRoundTrip saves a partitioned node's snapshot and
// reloads it under the same, a conflicting, and a missing partition.
func TestPartialSnapshotRoundTrip(t *testing.T) {
	db := testDB(80, 7)
	const total = 4
	owned := []int{0, 2}
	dir := t.TempDir()
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5},
		Options{CacheSize: -1, Workers: 1, Partition: &Partition{Total: total, Owned: owned}, SnapshotDir: dir})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	info, err := ReadSnapshotInfo(dir)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Shards != total || len(info.Covered) != 2 {
		t.Fatalf("snapshot info %+v, want 4 shards, 2 covered", info)
	}

	// Same placement loads and matches, from the heap and from a mapping.
	for _, mm := range []bool{false, true} {
		re, err := LoadSnapshot(dir, Options{CacheSize: -1, Workers: 1, Mmap: mm, Partition: &Partition{Total: total, Owned: owned}})
		if err != nil {
			t.Fatalf("reload (mmap=%v): %v", mm, err)
		}
		defer re.Close()
		if re.Size() != e.Size() {
			t.Fatalf("reloaded %d trajectories, saved %d", re.Size(), e.Size())
		}
		for it := 0; it < 6; it++ {
			q := db[(it*13)%len(db)].Clone()
			q.ID = 6_100_000 + it
			sameAnswer(t, fmt.Sprintf("mmap=%v it=%d", mm, it), re, e, q, Query{Kind: KindKNN, K: 5})
		}
	}

	// A conflicting modulus is rejected.
	if _, err := LoadSnapshot(dir, Options{CacheSize: -1, Partition: &Partition{Total: 8, Owned: owned}}); err == nil {
		t.Fatalf("mismatched Total admitted")
	}
	// Loading shards the manifest does not cover is rejected.
	if _, err := LoadSnapshot(dir, Options{CacheSize: -1, Partition: &Partition{Total: total, Owned: []int{1}}}); err == nil {
		t.Fatalf("uncovered shard admitted")
	}
	// An unpartitioned load of a partial manifest cannot serve the gaps.
	if _, err := LoadSnapshot(dir, Options{CacheSize: -1}); err == nil {
		t.Fatalf("unpartitioned load of a partial snapshot admitted")
	}
}
