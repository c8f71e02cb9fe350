package trajtree

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	want := arena.Summarize(traj.New(m.ID, slices.Clone(m.Points)))
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
// from an arena file onto the heap or from a mapping (inserted members
// included), grown into a tree that never had an arena, rebuilt, or
// inserted after a rebuild — it carries a summary bit-identical to arena.Summarize of its own samples.
func TestEveryMemberCarriesItsSummary(t *testing.T) {
	db := taxiTrips(300, 1, 0)
	tree, err := New(db, Options{Seed: 1, LeafSize: 6})
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

	if err := tree.Rebuild(); err != nil {
		t.Fatal(err)
	}
	everySummary(t, "rebuilt", tree)
	for _, tr := range taxiTrips(10, 5, 2_000) {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if tree.MemStats().Overlay != 10 {
		t.Fatalf("overlay %d after 10 inserts into a rebuilt tree, want 10", tree.MemStats().Overlay)
	}
	everySummary(t, "inserted after a rebuild", tree)
}

// TestLoadRefusesInvalidSamples pins the loader's check of every
// member's samples, which come from another process or machine and which
// no Insert validated on the way in: a re-sealed file whose point slab
// holds a sample Insert would refuse — a NaN coordinate, one beyond
// traj.MaxCoord, a timestamp before its predecessor's — or whose
// coordinate slab disagrees with its point slab is corrupt to both
// readers, not a member whose kernels and screens read garbage. The
// damaged sample is the second of the first member in the slabs.
func TestLoadRefusesInvalidSamples(t *testing.T) {
	tree, err := New(taxiTrips(40, 1, 0), Options{Seed: 1, LeafSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range taxiTrips(3, 2, 1_000) {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	good := saveBytes(t, tree)
	nan := math.Float64bits(math.NaN())
	for _, c := range []struct {
		name, section string
		word          int
		val           uint64
		want          string
	}{
		{"NaN X", "pts", 3, nan, traj.ErrNonFinite.Error()},
		{"X beyond MaxCoord", "pts", 3, math.Float64bits(2 * traj.MaxCoord), traj.ErrOutOfRange.Error()},
		{"time reversed", "pts", 5, math.Float64bits(-1e9), traj.ErrTimeNotSorted.Error()},
		{"xs disagrees", "xs", 1, nan, "coordinate slabs disagree"},
	} {
		bad := resealed(t, good, c.section, c.word, c.val)
		path := filepath.Join(t.TempDir(), "bad.arena")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, errHeap := Load(bytes.NewReader(bad))
		_, _, errMapped := LoadArena(path)
		for _, err := range []error{errHeap, errMapped} {
			if !errors.Is(err, arena.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want ErrCorrupt for %q", c.name, err, c.want)
			}
		}
	}
}
