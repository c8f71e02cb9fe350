package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"trajmatch/internal/faultfs"
	"trajmatch/internal/trajtree"
)

// TestSnapshotRoundTrip saves a sharded engine and reloads it, asserting
// the reloaded engine answers k-NN and range queries byte-identically, the
// manifest records what it should, and the shard count is adopted from
// the manifest regardless of the loader's options.
func TestSnapshotRoundTrip(t *testing.T) {
	db := testDB(120, 43)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if SnapshotExists(dir) {
				t.Fatal("empty dir reported as snapshot")
			}
			if err := e.SaveSnapshot(dir); err != nil {
				t.Fatalf("save: %v", err)
			}
			if !SnapshotExists(dir) {
				t.Fatal("snapshot not detected after save")
			}

			man, err := readManifest(faultfs.OS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if man.Version != snapshotVersion || man.Shards != shards {
				t.Fatalf("manifest %+v: want version %d, shards %d", man, snapshotVersion, shards)
			}
			total := 0
			for _, s := range man.Sizes {
				total += s
			}
			if total != len(db) {
				t.Fatalf("manifest sizes sum %d, want %d", total, len(db))
			}
			if man.TreeOptions.LeafSize != 5 {
				t.Fatalf("manifest tree options %+v did not record LeafSize 5", man.TreeOptions)
			}

			// The directory holds the manifest and one file per shard.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1+shards {
				t.Fatalf("snapshot directory holds %d files, want manifest + %d shard files", len(entries), shards)
			}

			for _, mm := range []bool{false, true} {
				// Deliberately wrong shard count in the loader options: the
				// manifest must win, because placement depends on it.
				loaded, err := LoadSnapshot(dir, Options{CacheSize: -1, Shards: shards + 3, Mmap: mm})
				if err != nil {
					t.Fatalf("load (mmap=%v): %v", mm, err)
				}
				if loaded.Shards() != shards {
					t.Fatalf("loaded %d shards, want manifest's %d", loaded.Shards(), shards)
				}
				if loaded.Size() != e.Size() {
					t.Fatalf("loaded size %d, want %d", loaded.Size(), e.Size())
				}
				for it := 0; it < 10; it++ {
					q := db[(it*11)%len(db)].Clone()
					q.ID = 5_000_000 + it
					got := search(t, loaded, q, Query{Kind: KindKNN, K: 6}).Results
					want := search(t, e, q, Query{Kind: KindKNN, K: 6}).Results
					sameResults(t, fmt.Sprintf("KNN it=%d", it), got, want)
					gotR := search(t, loaded, q, Query{Kind: KindRange, Radius: 30}).Results
					wantR := search(t, e, q, Query{Kind: KindRange, Radius: 30}).Results
					sameResults(t, fmt.Sprintf("Range it=%d", it), gotR, wantR)
				}

				// Updates keep working after a reload (hash placement must
				// agree with what the snapshot was written under).
				nt := testDB(121, 47)[120]
				nt.ID = 70_000
				if err := loaded.Insert(nt); err != nil {
					t.Fatalf("post-load insert: %v", err)
				}
				if loaded.Lookup(70_000) == nil {
					t.Fatal("post-load insert not found by lookup")
				}
				if !loaded.Delete(70_000) {
					t.Fatal("post-load delete missed")
				}
			}
		})
	}
}

func TestSnapshotRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSnapshot(dir, Options{}); err == nil {
		t.Fatal("load from empty dir succeeded")
	}
	bad := snapshotManifest{Version: snapshotVersion + 1, Shards: 1}
	raw, _ := json.Marshal(bad)
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir, Options{}); err == nil {
		t.Fatal("future-versioned snapshot loaded")
	}

	// A version-2 directory (enveloped manifest, gob streams beside the
	// arena files), a version-3 one (arena files carrying vantage-point
	// sections), a version-4 one (arena files carrying overlay sections)
	// and a version-5 one (arena files storing lengths, bboxes and MinL)
	// are refused with the upgrade instruction, not reported as corrupt
	// and not migrated.
	for _, old := range [][]byte{
		[]byte(`{"version":2,"shards":1,"tree_options":{},"sizes":[3],"checksums":[1],"arena_checksums":[2],"saved_at":"2026-01-01T00:00:00Z"}`),
		[]byte(`{"version":3,"shards":1,"tree_options":{"Theta":0.8},"sizes":[3],"checksums":[1],"saved_at":"2026-01-01T00:00:00Z"}`),
		[]byte(`{"version":4,"shards":1,"tree_options":{"Theta":0.8},"sizes":[3],"checksums":[1],"saved_at":"2026-01-01T00:00:00Z"}`),
		[]byte(`{"version":5,"shards":1,"tree_options":{"Theta":0.8},"sizes":[3],"checksums":[1],"saved_at":"2026-01-01T00:00:00Z"}`),
	} {
		raw, _ = json.Marshal(manifestEnvelope{CRC32C: crc32.Checksum(old, snapCRC), Manifest: old})
		if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(dir, Options{}); err == nil || !strings.Contains(err.Error(), "re-save the snapshot from a live engine") {
			t.Fatalf("%s: err = %v, want the re-save message", old, err)
		}
	}
}

// TestManifestChecksumCoversStoredBytes pins what the manifest checksum
// covers: the stored manifest's own bytes, compacted. A manifest saved
// while the tree options still had RebuildRatio records that field, and
// one saved while the sketch still had MinHash-LSH settings records
// shingle, hashes, bands, min_cands and seed beside the cell size. The
// checksum covers them, so the manifest verifies; the loader then
// ignores them, re-arms the prefilter at the recorded cell size and
// answers prefiltered k-NN as the saving engine did. A damaged key name
// fails verification even where the field's value is the zero value the
// loader would default to.
func TestManifestChecksumCoversStoredBytes(t *testing.T) {
	db := testDB(120, 5)
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, Options{CacheSize: -1, Shards: 2, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env manifestEnvelope
	if err := json.Unmarshal(saved, &env); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Manifest); err != nil {
		t.Fatal(err)
	}
	older := bytes.Replace(compact.Bytes(), []byte(`"Seed":`), []byte(`"RebuildRatio":0.25,"Seed":`), 1)
	i := bytes.Index(older, []byte(`"sketch":{`))
	if i < 0 {
		t.Fatal("the manifest records no sketch")
	}
	j := i + bytes.IndexByte(older[i:], '}')
	older = slices.Concat(older[:j], []byte(`,"shingle":2,"hashes":64,"bands":16,"min_cands":32,"seed":1`), older[j:])
	raw, err := json.MarshalIndent(manifestEnvelope{CRC32C: crc32.Checksum(older, snapCRC), Manifest: older}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir, Options{CacheSize: -1})
	if err != nil {
		t.Fatalf("manifest recording RebuildRatio and MinHash-LSH settings: %v", err)
	}
	if loaded.Size() != e.Size() {
		t.Fatalf("loaded %d members, saved %d", loaded.Size(), e.Size())
	}
	if !loaded.PrefilterEnabled() || loaded.SketchParams() != e.SketchParams() {
		t.Fatalf("prefilter %v at %+v, saved at %+v", loaded.PrefilterEnabled(), loaded.SketchParams(), e.SketchParams())
	}
	for _, q := range db[:10] {
		query := Query{Kind: KindKNN, K: 3, Prefilter: true, WithStats: true}
		got, want := search(t, loaded, q, query), search(t, e, q, query)
		sameResults(t, fmt.Sprintf("prefiltered KNN q%d", q.ID), asTreeResults(got.Results), asTreeResults(want.Results))
		if g, w := got.Stats, want.Stats; g.PrefilterSkipped == 0 ||
			g.PrefilterCandidates != w.PrefilterCandidates || g.PrefilterSkipped != w.PrefilterSkipped {
			t.Fatalf("q%d: %d candidates, %d skipped; saved engine %d, %d",
				q.ID, g.PrefilterCandidates, g.PrefilterSkipped, w.PrefilterCandidates, w.PrefilterSkipped)
		}
	}
	damaged := bytes.Replace(saved, []byte(`"Parallel"`), []byte(`"Par\u00e1llel"`), 1)
	if bytes.Equal(damaged, saved) {
		t.Fatal("the manifest names no Parallel option")
	}
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir, Options{CacheSize: -1}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("damaged key name: err = %v, want a checksum mismatch", err)
	}
}

// TestHTTPSnapshotEndpoint exercises POST /v1/snapshot end to end: 412
// without a configured directory, then a real write that a fresh engine
// loads and answers from.
func TestHTTPSnapshotEndpoint(t *testing.T) {
	unarmed := newTestEngine(t, 30, Options{})
	srv := httptest.NewServer(NewAPIHandler(unarmed, HandlerOptions{}))
	if resp := postJSON(t, srv, "/v1/snapshot", nil, nil); resp.StatusCode != 412 {
		t.Fatalf("unarmed /v1/snapshot status %d, want 412", resp.StatusCode)
	}
	srv.Close()

	dir := t.TempDir()
	e := newTestEngine(t, 40, Options{Shards: 2, SnapshotDir: dir})
	srv = httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()
	var resp SnapshotResponse
	if r := postJSON(t, srv, "/v1/snapshot", nil, &resp); r.StatusCode != 200 {
		t.Fatalf("POST /v1/snapshot status %d", r.StatusCode)
	}
	if resp.Dir != dir || resp.Shards != 2 || resp.Size != 40 {
		t.Fatalf("snapshot response %+v", resp)
	}
	loaded, err := LoadSnapshot(dir, Options{CacheSize: -1})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	q := testDB(40, 7)[3].Clone()
	q.ID = 6_000_000
	got := search(t, loaded, q, Query{Kind: KindKNN, K: 3}).Results
	want := search(t, e, q, Query{Kind: KindKNN, K: 3}).Results
	sameResults(t, "endpoint snapshot KNN", got, want)
}
