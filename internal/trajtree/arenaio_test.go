package trajtree

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trajmatch/internal/arena"
)

func saveArenaFile(t *testing.T, tree *Tree) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.arena")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.SaveArena(f); err != nil {
		t.Fatalf("save arena: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestArenaRoundTripAnswersIdentically is the arena-snapshot twin of
// the gob round-trip acceptance test: a tree reloaded through the
// mmap-able format must answer KNN and RangeSearch byte-identically —
// same IDs, distances, order, and per-query statistics — which proves
// the reconstructed nodes, summaries, vantage descriptors, and member
// placement are the same tree served from slab-aliased memory.
func TestArenaRoundTripAnswersIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	db := testDB(rng, 130)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArena(saveArenaFile(t, tree))
	if err != nil {
		t.Fatalf("load arena: %v", err)
	}
	if loaded.Size() != tree.Size() || loaded.Height() != tree.Height() {
		t.Fatalf("loaded shape %d/%d, want %d/%d", loaded.Size(), loaded.Height(), tree.Size(), tree.Height())
	}
	if ms := loaded.MemStats(); ms.Arena.Members != tree.Size() || ms.Overlay != 0 {
		t.Fatalf("mem stats %+v after clean load", ms)
	}
	for it := 0; it < 15; it++ {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 8_000_000 + it
		if it%2 == 0 {
			for i := range q.Points {
				q.Points[i].X += rng.NormFloat64() * 8
				q.Points[i].Y += rng.NormFloat64() * 8
			}
		}
		k := 1 + rng.Intn(9)
		got, gst, _, err := loaded.SearchKNN(q, k, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wst, _, err := tree.SearchKNN(q, k, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "SearchKNN", got, want)
		if gst != wst {
			t.Fatalf("SearchKNN stats diverge after arena reload: %+v != %+v", gst, wst)
		}
		radius := []float64{0.05, 0.3, 1.5}[it%3]
		gotR, _, _, err := loaded.SearchRange(q, radius, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantR, _, _, err := tree.SearchRange(q, radius, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "SearchRange", gotR, wantR)
	}
}

// TestArenaRoundTripWithOverlay pins the overlay path: members inserted
// after the last rebuild have no arena entry, ride in the snapshot's
// overlay sections, and come back answering identically; a rebuild on
// the loaded tree then folds them into fresh heap slabs.
func TestArenaRoundTripWithOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	db := testDB(rng, 90)
	tree, err := New(db[:70], testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range db[70:] {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if tree.MemStats().Overlay == 0 {
		t.Fatal("test needs a live overlay; inserts were folded unexpectedly")
	}
	loaded, err := LoadArena(saveArenaFile(t, tree))
	if err != nil {
		t.Fatalf("load arena: %v", err)
	}
	if got, want := loaded.MemStats().Overlay, tree.MemStats().Overlay; got != want {
		t.Fatalf("overlay %d after load, want %d", got, want)
	}
	q := db[80].Clone()
	q.ID = 9_000_000
	got, _, _, err := loaded.SearchKNN(q, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := tree.SearchKNN(q, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "SearchKNN overlay", got, want)

	// The loaded tree must remain fully mutable: a rebuild folds the
	// overlay into fresh heap slabs and leaves the old mapping behind.
	if err := loaded.Rebuild(); err != nil {
		t.Fatalf("rebuild after arena load: %v", err)
	}
	ms := loaded.MemStats()
	if ms.Overlay != 0 || ms.Arena.Members != loaded.Size() || ms.Arena.Mapped {
		t.Fatalf("after rebuild: %+v", ms)
	}
	got2, _, _, err := loaded.SearchKNN(q, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "SearchKNN after rebuild", got2, want)
}

// TestArenaPureInsertTree pins the nil-arena save path: a tree grown
// purely by Insert from empty has no arena, so the snapshot stores every
// member in the overlay sections.
func TestArenaPureInsertTree(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	db := testDB(rng, 40)
	tree, err := New(nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range db {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadArena(saveArenaFile(t, tree))
	if err != nil {
		t.Fatalf("load arena: %v", err)
	}
	q := db[7].Clone()
	q.ID = 9_100_000
	got, _, _, err := loaded.SearchKNN(q, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := tree.SearchKNN(q, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "SearchKNN pure-insert", got, want)
}

// TestArenaEmptyTree round-trips a tree with no members.
func TestArenaEmptyTree(t *testing.T) {
	tree, err := New(nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArena(saveArenaFile(t, tree))
	if err != nil {
		t.Fatalf("load arena: %v", err)
	}
	if loaded.Size() != 0 {
		t.Fatalf("size %d", loaded.Size())
	}
}

// TestArenaLoadCorrupt pins the failure contract at this layer: damage
// anywhere in the file — including the flattened tree payload — yields
// an error wrapping arena.ErrCorrupt, never a panic or a wrong tree.
func TestArenaLoadCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	tree, err := New(testDB(rng, 60), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := saveArenaFile(t, tree)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	step := len(good)/61 + 1
	for off := 0; off < len(good); off += step {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		p := filepath.Join(dir, "bad.arena")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("offset %d: panic: %v", off, r)
				}
			}()
			if _, err := LoadArena(p); !errors.Is(err, arena.ErrCorrupt) {
				t.Errorf("offset %d: err = %v, want ErrCorrupt", off, err)
			}
		}()
	}
	for _, n := range []int{0, 10, len(good) / 2, len(good) - 2} {
		p := filepath.Join(dir, "trunc.arena")
		if err := os.WriteFile(p, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArena(p); !errors.Is(err, arena.ErrCorrupt) {
			t.Errorf("truncate %d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// TestArenaLoadDescriptorSlabMismatch pins the malformed-but-checksummed
// case the bit-flip sweep cannot reach: a node record whose descriptor
// row count (rec[10]) disagrees with its member count, re-encoded with a
// valid checksum and in-range offsets. Ranking such a slab would pair
// rows with the wrong members, so the load must refuse it.
func TestArenaLoadDescriptorSlabMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	tree, err := New(testDB(rng, 60), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := arena.Open(saveArenaFile(t, tree))
	if err != nil {
		t.Fatal(err)
	}
	ts := snap.Tree
	ts.NMeta = append([]int64(nil), ts.NMeta...) // the original may be a read-only mapping
	tampered := false
	for off := 0; off < len(ts.NMeta); off += arena.NMetaStride {
		if rec := ts.NMeta[off : off+arena.NMetaStride]; rec[10] > 1 && rec[8] > 0 {
			rec[10]-- // one row short of rec[6] members
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no node with a descriptor table to tamper with")
	}
	path := filepath.Join(t.TempDir(), "short.arena")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := arena.Encode(f, snap.Arena, &ts, snap.Extra); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArena(path); !errors.Is(err, arena.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
