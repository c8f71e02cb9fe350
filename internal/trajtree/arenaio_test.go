package trajtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"trajmatch/internal/arena"
	"trajmatch/internal/raceflag"
	"trajmatch/internal/traj"
)

func saveArenaFile(t *testing.T, tree *Tree) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.arena")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Save(f); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadArena saves tree to a file and reads it back through LoadArena.
func loadArena(t *testing.T, tree *Tree) *Tree {
	t.Helper()
	loaded, _, err := LoadArena(saveArenaFile(t, tree))
	if err != nil {
		t.Fatalf("load arena: %v", err)
	}
	return loaded
}

// loadHeap saves tree to memory and reads it back through Load.
func loadHeap(t *testing.T, tree *Tree) *Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return loaded
}

// TestArenaRoundTripAnswersIdentically is the Save/Load acceptance
// test: a tree reloaded through either reader — one heap buffer (Load)
// or the file mapping (LoadArena) — must answer KNN, range and subknn
// searches byte-identically, with identical per-query statistics (the
// member screen's derived weights included), which proves the
// reconstructed nodes, summaries and member placement are the same tree
// served from slab-aliased memory. It holds for a tree as built and for one
// carrying Insert/Delete churn in its overlay, and the reloaded tree
// stays mutable.
func TestArenaRoundTripAnswersIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	db := testDB(rng, 130)
	built, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	churned, err := New(cloneAll(db), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	extra := testDB(rng, 20)
	for i, tr := range extra {
		tr.ID = 40_000 + i
		if err := churned.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	for id := 3; id < len(db); id += 11 {
		if !churned.Delete(id) {
			t.Fatalf("delete %d missed", id)
		}
	}
	queries := make([]*traj.Trajectory, 15)
	for it := range queries {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 8_000_000 + it
		if it%2 == 0 {
			for i := range q.Points {
				q.Points[i].X += rng.NormFloat64() * 8
				q.Points[i].Y += rng.NormFloat64() * 8
			}
		}
		queries[it] = q
	}
	for _, in := range []struct {
		name string
		tree *Tree
	}{{"built", built}, {"churned", churned}} {
		for _, rd := range []struct {
			name string
			load func(*testing.T, *Tree) *Tree
		}{{"heap", loadHeap}, {"arena", loadArena}} {
			t.Run(in.name+"/"+rd.name, func(t *testing.T) {
				tree, loaded := in.tree, rd.load(t, in.tree)
				if loaded.Size() != tree.Size() || loaded.Height() != tree.Height() {
					t.Fatalf("loaded shape %d/%d, want %d/%d", loaded.Size(), loaded.Height(), tree.Size(), tree.Height())
				}
				// The file holds each live member once, so every loaded
				// member is arena-resident.
				if ms := loaded.MemStats(); ms.Overlay != 0 || ms.Arena.Members != tree.Size() {
					t.Fatalf("mem stats %+v after load, want no overlay and %d arena members", ms, tree.Size())
				}
				for it, q := range queries {
					k := 1 + it%9
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
						// Equal stats mean the traversal was identical.
						t.Fatalf("SearchKNN stats diverge after reload: %+v != %+v", gst, wst)
					}
					radius := []float64{0.05, 0.3, 1.5}[it%3]
					gotR, grst, _, err := loaded.SearchRange(q, radius, nil)
					if err != nil {
						t.Fatal(err)
					}
					wantR, wrst, _, err := tree.SearchRange(q, radius, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, "SearchRange", gotR, wantR)
					if grst != wrst {
						t.Fatalf("SearchRange stats diverge after reload: %+v != %+v", grst, wrst)
					}
					gotS, gsst, _, err := loaded.SearchSub(q, k, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					wantS, wsst, _, err := tree.SearchSub(q, k, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, "SearchSub", gotS, wantS)
					if gsst != wsst {
						t.Fatalf("SearchSub stats diverge after reload: %+v != %+v", gsst, wsst)
					}
				}
				// Inserts and deletes on the reloaded tree behave as on a
				// never-persisted one.
				for i, tr := range testDB(rand.New(rand.NewSource(105)), 20) {
					tr.ID = 50_000 + i
					if err := loaded.Insert(tr); err != nil {
						t.Fatalf("insert %d: %v", i, err)
					}
					if i == 0 {
						if err := loaded.Insert(tr); err == nil {
							t.Fatal("duplicate insert into reloaded tree succeeded")
						}
					}
				}
				if !loaded.Delete(50_003) || !loaded.Delete(db[0].ID) {
					t.Fatal("delete on reloaded tree missed")
				}
				if loaded.Size() != tree.Size()+20-2 {
					t.Fatalf("size %d after churn, want %d", loaded.Size(), tree.Size()+18)
				}
				if err := loaded.checkInvariants(); err != nil {
					t.Fatalf("invariants after churn on reloaded tree: %v", err)
				}
				got, _, _, err := loaded.SearchKNN(queries[3], 8, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, "post-churn", got, referenceKNN(loaded.root.members, queries[3], 8, loaded.opt.Cumulative))
			})
		}
	}
}

// cloneAll copies db: building a tree re-points its trajectories at the
// tree's slabs, so two trees over one corpus each need their own copies.
func cloneAll(db []*traj.Trajectory) []*traj.Trajectory {
	out := make([]*traj.Trajectory, len(db))
	for i, tr := range db {
		out[i] = tr.Clone()
	}
	return out
}

// TestArenaRoundTripWithOverlay pins the overlay across a save: members
// inserted after the last rebuild have no arena entry, are written into
// the file's slabs like every other member, and come back arena-resident
// and answering identically; a rebuild on the loaded tree then builds
// fresh heap slabs.
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
	loaded := loadArena(t, tree)
	if ms := loaded.MemStats(); ms.Overlay != 0 || ms.Arena.Members != tree.Size() {
		t.Fatalf("after load: %+v, want every one of %d members in the arena", ms, tree.Size())
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

	// The loaded tree must remain fully mutable: a rebuild builds fresh
	// heap slabs and leaves the old mapping behind.
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

// TestArenaReusedIDIsOverlay pins a member inserted under the ID of a
// deleted arena member: the arena entry under that ID holds the deleted
// member, so the new one is overlay — screened by its own summary, not
// the entry's, saved with its own samples, and found at distance 0 by a
// copy of itself before and after a round trip. The deleted member's own
// header, inserted again, is resident again.
func TestArenaReusedIDIsOverlay(t *testing.T) {
	tree, err := New(taxiTrips(300, 1, 0), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig := tree.Lookup(5)
	if !tree.Delete(5) {
		t.Fatal("delete 5: not found")
	}
	q := taxiTrips(1, 99, 9_000_000)[0]
	reused := traj.New(5, slices.Clone(q.Points))
	if err := tree.Insert(reused); err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.arenaIndex(reused); ok || tree.MemStats().Overlay != 1 {
		t.Fatalf("reused ID resident in the arena, overlay %d", tree.MemStats().Overlay)
	}
	for label, tr := range map[string]*Tree{"live": tree, "arena-loaded": loadArena(t, tree), "heap-loaded": loadHeap(t, tree)} {
		if got := tr.Lookup(5); !slices.Equal(got.Points, q.Points) {
			t.Fatalf("%s: member 5 has %d points, want the reused ID's %d", label, len(got.Points), len(q.Points))
		}
		sameSummary(t, label, tr.Lookup(5))
		res, _, _, err := tr.SearchKNN(q, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Traj.ID != 5 || res[0].Dist != 0 {
			t.Fatalf("%s: nearest to a copy of member 5 is %v", label, res)
		}
	}
	if !tree.Delete(5) || tree.MemStats().Overlay != 0 {
		t.Fatalf("overlay %d after deleting the reused ID", tree.MemStats().Overlay)
	}
	// The deleted member's own header, inserted again, is its entry's.
	if err := tree.Insert(orig); err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.arenaIndex(orig); !ok || tree.MemStats().Overlay != 0 {
		t.Fatalf("original header resident %v, overlay %d", ok, tree.MemStats().Overlay)
	}
}

// TestArenaPureInsertTree pins the save of a tree grown purely by Insert
// from empty: it has no arena, and the snapshot's slabs hold every member
// all the same.
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
	loaded := loadArena(t, tree)
	if ms := loaded.MemStats(); ms.Overlay != 0 || ms.Arena.Members != len(db) {
		t.Fatalf("after load: %+v, want all %d members in the arena", ms, len(db))
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
	for _, loaded := range []*Tree{loadArena(t, tree), loadHeap(t, tree)} {
		if loaded.Size() != 0 {
			t.Fatalf("size %d", loaded.Size())
		}
	}
}

// TestArenaLoadCorrupt pins the failure contract at this layer: damage
// anywhere in the file — including the flattened tree payload — yields
// an error wrapping arena.ErrCorrupt from both readers, never a panic or
// a wrong tree. The resealed rows are the cases a bit-flip sweep cannot
// reach: one word of the root's node record overwritten and the file
// re-encoded with a valid checksum, as a hostile peer could serve it. The
// first is a member count one short of the leaves below (a member the
// tree would silently lose); the others are the words whose range checks
// used to wrap around int64 and pass. One more empties a non-root node,
// which no tree holds since Delete drops the nodes it empties. The last
// file's slabs hold a member no node refers to.
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
	check := func(label string, bad []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: panic: %v", label, r)
			}
		}()
		p := filepath.Join(t.TempDir(), "bad.arena")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadArena(p); !errors.Is(err, arena.ErrCorrupt) {
			t.Errorf("%s: LoadArena err = %v, want ErrCorrupt", label, err)
		}
		if _, _, err := Load(bytes.NewReader(bad)); !errors.Is(err, arena.ErrCorrupt) {
			t.Errorf("%s: Load err = %v, want ErrCorrupt", label, err)
		}
	}
	step := len(good)/61 + 1
	for off := 0; off < len(good); off += step {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		check(fmt.Sprintf("bit flip at %d", off), bad)
	}
	for _, n := range []int{0, 10, len(good) / 2, len(good) - 2} {
		check(fmt.Sprintf("truncate to %d", n), good[:n])
	}

	snap, err := arena.Decode(slices.Clone(good))
	if err != nil {
		t.Fatal(err)
	}
	node := 0 // the root holds every member
	for off := 0; off < len(snap.Tree.NMeta); off += arena.NMetaStride {
		if snap.Tree.NMeta[off+5] > snap.Tree.NMeta[node+5] {
			node = off
		}
	}
	for _, c := range []struct {
		name string
		word int
		val  int64
	}{
		{"memberCount one short of the leaves", 5, snap.Tree.NMeta[node+5] - 1},
		{"memberCount 2^63-1", 5, math.MaxInt64},
		{"boxOff 2^63-1", 0, math.MaxInt64},
	} {
		check("resealed "+c.name, resealed(t, good, "nmeta", node+c.word, uint64(c.val)))
	}
	// Node 1 is the root's first child (nmeta is in pre-order): a
	// non-root node may not be empty.
	check("resealed empty non-root node", resealed(t, good, "nmeta", arena.NMetaStride+5, 0))
	// Slabs holding one member more than the tree: a file holds exactly
	// the tree's members.
	var extra bytes.Buffer
	stray := traj.New(1_000_000, []traj.Point{traj.P(0, 0, 0), traj.P(1, 1, 1)})
	stray.SetSummary(arena.Summarize(stray))
	if _, err := arena.Encode(&extra, append(snap.Arena.Members(), stray), &snap.Tree, snap.Extra); err != nil {
		t.Fatal(err)
	}
	check("a member no node holds", extra.Bytes())
}

// TestLoadAllocBudget fences the heap load's allocations: the node
// structures are carved out of a handful of tables (the nodes, their
// Seqs, one heap copy of every node's boxes, one member table and one
// child table, each node a capped window of each) and the members'
// views and summaries out of one table each, so a load's allocation
// count does not grow with the nodes, and with the members only through
// the tables of the two ID maps.
func TestLoadAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	tree, err := New(taxiTrips(2000, 1, 0), Options{Seed: 1, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	b := saveBytes(t, tree)
	n := testing.AllocsPerRun(5, func() {
		if _, _, err := Load(bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 74 over 2 000 members and 1 181 nodes, and 122 at 8 000
	// members: the slabs, the tables and the two ID maps. A view header
	// per member cost 2 000 more; copying each node's boxes on its own
	// cost one allocation per node more, and two with a per-box MinL
	// beside them.
	const budget = 96
	if n > budget {
		t.Errorf("Load allocates %v for %d members, budget %d", n, tree.Size(), budget)
	}
}

// TestArenaRejectsOldVersions is the format gate: a file in an earlier
// layout is refused as corrupt by both readers rather than misread. The
// fixture is a fresh save with its meta version rewritten and the
// trailer re-sealed, so nothing but the version can fail.
func TestArenaRejectsOldVersions(t *testing.T) {
	for _, c := range []struct {
		version int
		layout  string
	}{
		{1, "vantage-point sections, a 12-word node record"},
		{2, "overlay sections of inline samples, named by negative member refs"},
		{3, "stored lens and bbox sections, MinL per node box, an 8-word node record"},
	} {
		t.Run(c.layout, func(t *testing.T) { checkArenaVersionRefused(t, c.version) })
	}
}

// TestArenaRejectsFutureVersion holds the gate from the other side: a
// file from a newer writer, whose layout this reader cannot know, is
// refused the same way rather than read as version 4.
func TestArenaRejectsFutureVersion(t *testing.T) { checkArenaVersionRefused(t, 5) }

// checkArenaVersionRefused saves a fresh tree, rewrites the file's meta
// version to the single digit v and re-seals the trailer, then requires
// both readers to fail with ErrCorrupt naming that version.
func checkArenaVersionRefused(t *testing.T, v int) {
	t.Helper()
	tree, err := New(testDB(rand.New(rand.NewSource(115)), 30), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(saveArenaFile(t, tree))
	if err != nil {
		t.Fatal(err)
	}
	// The meta JSON opens with {"version":4, — same length as the rewrite.
	copy(b[16:], fmt.Sprintf(`{"version":%d,`, v))
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crc32.MakeTable(crc32.Castagnoli)))
	p := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.arena", v))
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, errMapped := LoadArena(p)
	_, _, errHeap := Load(bytes.NewReader(b))
	want := fmt.Sprintf("unsupported version %d", v)
	for _, err := range []error{errMapped, errHeap} {
		if !errors.Is(err, arena.ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("load of a version-%d file: err = %v, want ErrCorrupt (%s)", v, err, want)
		}
	}
}
