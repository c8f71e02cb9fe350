package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"trajmatch/internal/server"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// snapshotSource builds a full 4-shard engine with a saved snapshot and
// serves it through the cluster node handler.
func snapshotSource(t *testing.T, db []*traj.Trajectory, total int) (*server.Engine, string, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	e, err := server.NewEngineFromDB(db, testTreeOpt, server.Options{
		CacheSize:   -1,
		Workers:     1,
		Shards:      total,
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatalf("source engine: %v", err)
	}
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatalf("save snapshot: %v", err)
	}
	srv := httptest.NewServer(NodeHandler(e, server.HandlerOptions{}))
	t.Cleanup(srv.Close)
	return e, dir, srv
}

// TestFetchSnapshotWarmBoot is the snapshot-shipping tentpole piece: a
// replica owning shards {1,3} warm-boots by fetching just its sections
// from a peer over HTTP and answers identically to a fresh partitioned
// build from the same corpus.
func TestFetchSnapshotWarmBoot(t *testing.T) {
	db := testDB(200, 7)
	const total = 4
	_, srcDir, srv := snapshotSource(t, db, total)

	owned := []int{1, 3}
	dst := t.TempDir()
	info, err := FetchSnapshot(context.Background(), srv.URL, dst, owned, nil)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if info.Shards != total {
		t.Fatalf("fetched manifest records %d shards, want %d", info.Shards, total)
	}

	// The shipped shard files are byte-identical to the source's.
	for _, name := range server.SnapshotFiles(owned) {
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil {
			t.Fatalf("fetched %s: %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatalf("source %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the source after shipping", name)
		}
	}

	// Reference: the same partition built cold from the corpus.
	cold := newNodeEngine(t, db, total, owned)
	for _, mm := range []bool{false, true} {
		replica, err := server.LoadSnapshot(dst, server.Options{
			CacheSize: -1,
			Workers:   1,
			Mmap:      mm,
			Partition: &server.Partition{Total: total, Owned: owned},
		})
		if err != nil {
			t.Fatalf("replica warm boot (mmap=%v): %v", mm, err)
		}
		defer replica.Close()
		if replica.Size() != cold.Size() {
			t.Fatalf("replica owns %d trajectories, cold build %d", replica.Size(), cold.Size())
		}
		for _, tr := range db {
			if g := server.ShardOf(tr.ID, total); g != 1 && g != 3 {
				if replica.Lookup(tr.ID) != nil {
					t.Fatalf("replica holds foreign trajectory %d (shard %d)", tr.ID, g)
				}
				continue
			}
			if replica.Lookup(tr.ID) == nil {
				t.Fatalf("replica lost owned trajectory %d", tr.ID)
			}
		}
		sameSearch(t, fmt.Sprintf("warm (mmap=%v) vs cold", mm), replica, cold)
	}
}

// TestFetchSnapshotFromDirectory covers the object-path source: the
// same shipping flow reading files from a local directory instead of a
// peer, fetching everything (nil shards) for a full standby.
func TestFetchSnapshotFromDirectory(t *testing.T) {
	db := testDB(150, 7)
	const total = 4
	src, srcDir, _ := snapshotSource(t, db, total)

	dst := t.TempDir()
	if _, err := FetchSnapshot(context.Background(), srcDir, dst, nil, nil); err != nil {
		t.Fatalf("fetch from directory: %v", err)
	}
	for _, mm := range []bool{false, true} {
		standby, err := server.LoadSnapshot(dst, server.Options{CacheSize: -1, Workers: 1, Mmap: mm})
		if err != nil {
			t.Fatalf("standby boot (mmap=%v): %v", mm, err)
		}
		defer standby.Close()
		if standby.Size() != src.Size() {
			t.Fatalf("standby holds %d trajectories, source %d", standby.Size(), src.Size())
		}
		if standby.Shards() != src.Shards() {
			t.Fatalf("standby has %d shards, source %d", standby.Shards(), src.Shards())
		}
		sameSearch(t, fmt.Sprintf("standby mmap=%v", mm), standby, src)
	}
}

// TestFetchSnapshotFromPartitionedPeer ships between partitioned nodes:
// a node that owns {0,1} saves its partial snapshot, and a fresh
// replica of the same slice boots from it over HTTP.
func TestFetchSnapshotFromPartitionedPeer(t *testing.T) {
	db := testDB(150, 7)
	const total = 4
	owned := []int{0, 1}
	dir := t.TempDir()
	peer, err := server.NewEngineFromDB(db, testTreeOpt, server.Options{
		CacheSize:   -1,
		Workers:     1,
		Partition:   &server.Partition{Total: total, Owned: owned},
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatalf("peer: %v", err)
	}
	if err := peer.SaveSnapshot(dir); err != nil {
		t.Fatalf("peer save: %v", err)
	}
	srv := httptest.NewServer(NodeHandler(peer, server.HandlerOptions{}))
	defer srv.Close()

	dst := t.TempDir()
	if _, err := FetchSnapshot(context.Background(), srv.URL, dst, owned, nil); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	for _, mm := range []bool{false, true} {
		replica, err := server.LoadSnapshot(dst, server.Options{
			CacheSize: -1,
			Workers:   1,
			Mmap:      mm,
			Partition: &server.Partition{Total: total, Owned: owned},
		})
		if err != nil {
			t.Fatalf("replica boot (mmap=%v): %v", mm, err)
		}
		defer replica.Close()
		if replica.Size() != peer.Size() {
			t.Fatalf("replica holds %d trajectories, peer %d", replica.Size(), peer.Size())
		}
		sameSearch(t, fmt.Sprintf("replica mmap=%v", mm), replica, peer)
	}
}

// sameSearch requires got to answer a few k-NN queries exactly as want
// does: same IDs, distances and order, same per-query work counters.
func sameSearch(t *testing.T, label string, got, want *server.Engine) {
	t.Helper()
	for _, q := range testDB(4, 99) {
		req := server.Query{Kind: server.KindKNN, K: 5, WithStats: true}
		w, err := want.Search(context.Background(), q, req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		g, err := got.Search(context.Background(), q, req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameResults(t, label, g.Results, w.Results)
		if g.Stats != w.Stats {
			t.Fatalf("%s: stats %+v, want %+v", label, g.Stats, w.Stats)
		}
	}
}

// TestFetchSnapshotRejects pins the failure modes: uncovered shards,
// corrupt sections, and a source with no snapshot must all fail the
// fetch — never silently produce a bootable-but-wrong directory.
func TestFetchSnapshotRejects(t *testing.T) {
	db := testDB(100, 7)
	const total = 4

	// Peer owning {0,1} cannot ship shard 2.
	dir := t.TempDir()
	owned := []int{0, 1}
	peer, err := server.NewEngineFromDB(db, testTreeOpt, server.Options{
		CacheSize: -1, Workers: 1,
		Partition:   &server.Partition{Total: total, Owned: owned},
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatalf("peer: %v", err)
	}
	if err := peer.SaveSnapshot(dir); err != nil {
		t.Fatalf("peer save: %v", err)
	}
	srv := httptest.NewServer(NodeHandler(peer, server.HandlerOptions{}))
	defer srv.Close()
	if _, err := FetchSnapshot(context.Background(), srv.URL, t.TempDir(), []int{2}, nil); err == nil {
		t.Fatalf("fetch of an uncovered shard succeeded")
	}

	// A corrupted shard file fails its checksum during shipping, and a
	// missing one fails the fetch: neither leaves a manifest behind.
	_, srcDir, _ := snapshotSource(t, db, total)
	shardFile := filepath.Join(srcDir, server.SnapshotFiles([]int{1})[1])
	data, err := os.ReadFile(shardFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(shardFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(srcDir, server.SnapshotFiles([]int{2})[1])); err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{1, 2} {
		dst := t.TempDir()
		if _, err := FetchSnapshot(context.Background(), srcDir, dst, []int{0, g}, nil); err == nil {
			t.Fatalf("fetch of damaged shard %d succeeded", g)
		}
		if server.SnapshotExists(dst) {
			t.Fatalf("failed fetch of shard %d committed a manifest", g)
		}
	}

	// The version-2 gob stream names are no longer served.
	if resp, err := http.Get(srv.URL + snapshotPath + "shard-0000.tree"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET shard-0000.tree: %v %v, want 404", resp, err)
	} else {
		resp.Body.Close()
	}

	// A node with no snapshot directory refuses to ship.
	bare, err := server.NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, server.Options{CacheSize: -1, Workers: 1, Shards: total})
	if err != nil {
		t.Fatalf("bare engine: %v", err)
	}
	bsrv := httptest.NewServer(NodeHandler(bare, server.HandlerOptions{}))
	defer bsrv.Close()
	if _, err := FetchSnapshot(context.Background(), bsrv.URL, t.TempDir(), nil, nil); err == nil {
		t.Fatalf("fetch from a snapshotless node succeeded")
	}
}
