package trajtree

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"trajmatch/internal/arena"
	"trajmatch/internal/traj"
)

// sameSummary fails t unless m carries a screen summary bit-identical to
// arena.Summarize of a fresh copy of its own samples.
func sameSummary(t *testing.T, label string, m *traj.Trajectory) {
	t.Helper()
	got := m.Summary()
	if got == nil {
		t.Fatalf("%s: member %d carries no summary", label, m.ID)
	}
	want, err := arena.Summarize(traj.New(m.ID, slices.Clone(m.Points)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][3]any{
		{"bbox", got.BBox, want.BBox}, {"length", got.Length, want.Length},
		{"boxes", got.Boxes, want.Boxes}, {"box lengths", got.BoxLens, want.BoxLens},
	} {
		g, w := f[1].([]float64), f[2].([]float64)
		if !slices.EqualFunc(g, w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: member %d: %s %v, own samples give %v", label, m.ID, f[0], g, w)
		}
	}
}

// everySummary checks sameSummary on every member of tree.
func everySummary(t *testing.T, label string, tree *Tree) {
	t.Helper()
	for _, m := range tree.root.members {
		sameSummary(t, label, m)
	}
}

// TestEveryMemberCarriesItsSummary pins the one screen path: whichever way
// a trajectory became a member — bulk-built, inserted, inserted under a
// deleted member's ID, its own header deleted and inserted again, loaded
// from an arena file onto the heap or from a mapping (overlay members
// included), grown into a tree that never had an arena, or adopted from
// a rebuild, with inserts landing while the build was in flight — it
// carries a summary bit-identical to arena.Summarize of its own samples.
func TestEveryMemberCarriesItsSummary(t *testing.T) {
	db := taxiTrips(300, 1, 0)
	tree, err := New(db, Options{Seed: 1, LeafSize: 6, RebuildRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	everySummary(t, "built", tree)
	for _, tr := range taxiTrips(40, 2, 1_000) {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	own := tree.Lookup(7)
	for _, id := range []int{5, 7, 9} {
		if !tree.Delete(id) {
			t.Fatalf("delete %d: not found", id)
		}
	}
	if err := tree.Insert(traj.New(5, slices.Clone(taxiTrips(1, 3, 0)[0].Points))); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(own); err != nil {
		t.Fatal(err)
	}
	everySummary(t, "inserted", tree)
	everySummary(t, "heap-loaded", loadHeap(t, tree))
	everySummary(t, "arena-loaded", loadArena(t, tree))

	grown, err := New(nil, Options{Seed: 1, LeafSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range taxiTrips(30, 4, 0) {
		if err := grown.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	everySummary(t, "grown without an arena", grown)

	tree.StartRebuild()
	for _, tr := range taxiTrips(10, 5, 2_000) {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if tree.MemStats().Overlay != 10 {
		t.Fatalf("overlay %d after adopting a build that missed 10 inserts, want 10", tree.MemStats().Overlay)
	}
	everySummary(t, "adopted", tree)
}

// TestLoadRefusesNonFiniteOverlay pins the loader's check of overlay
// samples, which no Insert validated on the way in: a re-sealed file
// whose overlay holds a NaN coordinate is corrupt to both readers, not a
// panic in Summarize and not a member whose screen reads garbage.
func TestLoadRefusesNonFiniteOverlay(t *testing.T) {
	tree, err := New(taxiTrips(40, 1, 0), Options{Seed: 1, LeafSize: 6, RebuildRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range taxiTrips(3, 2, 1_000) {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	bad := nonFiniteOverlayFile(t, tree)
	if _, _, err := Load(bytes.NewReader(bad)); !errors.Is(err, arena.ErrCorrupt) {
		t.Fatalf("Load: err = %v, want ErrCorrupt", err)
	}
	path := filepath.Join(t.TempDir(), "nan.arena")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadArena(path); !errors.Is(err, arena.ErrCorrupt) {
		t.Fatalf("LoadArena: err = %v, want ErrCorrupt", err)
	}
}

// nonFiniteOverlayFile saves tree, which has an overlay, with the second
// overlay point's X set to NaN and the trailer re-sealed.
func nonFiniteOverlayFile(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := arena.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ts := snap.Tree
	ts.OPts = slices.Clone(ts.OPts)
	ts.OPts[3] = math.NaN()
	var out bytes.Buffer
	if _, err := arena.Encode(&out, snap.Arena, &ts, snap.Extra); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
