package arena

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trajmatch/internal/core"
	"trajmatch/internal/raceflag"
	"trajmatch/internal/traj"
)

func allocTraj(rng *rand.Rand, id, n int) *traj.Trajectory {
	pts := make([]traj.Point, n)
	x, y := rng.Float64()*100, rng.Float64()*100
	for j := range pts {
		x += rng.NormFloat64() * 2
		y += rng.NormFloat64() * 2
		pts[j] = traj.P(x, y, float64(j))
	}
	return traj.New(id, pts)
}

// TestArenaViewZeroAllocs extends the kernel zero-alloc fence (core's
// TestDistanceZeroAllocs) to arena-backed trajectories: after Build
// re-points members at the slabs — and after a snapshot round trip
// re-points them at the decoded file image — the distance kernels and
// the leaf-level segment screen must still run without allocating. The
// two fences together pin that the SoA re-layout never forces the hot
// path back onto per-call copies.
func TestArenaViewZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool deliberately drops Puts")
	}
	rng := rand.New(rand.NewSource(46))
	members := []*traj.Trajectory{allocTraj(rng, 1, 40), allocTraj(rng, 2, 35)}
	a := Build(members)
	q := allocTraj(rng, 99, 25) // plain heap query, as in production

	check := func(label string, x, y *traj.Trajectory) {
		t.Helper()
		// Warm the XY caches and the scratch pool outside the fence.
		core.Distance(x, y)
		core.Distance(q, x)
		if n := testing.AllocsPerRun(100, func() { core.Distance(x, y) }); n != 0 {
			t.Errorf("%s: Distance allocates %v per run, want 0", label, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = core.DistanceBounded(q, x, 1) }); n != 0 {
			t.Errorf("%s: DistanceBounded allocates %v per run, want 0", label, n)
		}
		if n := testing.AllocsPerRun(100, func() { core.AvgDistance(q, y) }); n != 0 {
			t.Errorf("%s: AvgDistance allocates %v per run, want 0", label, n)
		}
	}
	check("built", members[0], members[1])

	// The segment screen over the arena's flattened box sequences — the
	// batched leaf path of SearchKNN.
	scr := new(core.SegScreen)
	scr.Reset(q)
	core.ScreenLowerBound(scr, members[0].Summary().Boxes, math.Inf(1))
	if n := testing.AllocsPerRun(100, func() {
		for _, m := range members {
			core.ScreenLowerBound(scr, m.Summary().Boxes, math.Inf(1))
		}
	}); n != 0 {
		t.Errorf("ScreenLowerBound over arena boxes allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { scr.Reset(q) }); n != 0 {
		t.Errorf("SegScreen.Reset allocates %v per run, want 0", n)
	}

	// Same fences on members materialised from an encoded snapshot.
	var buf bytes.Buffer
	if _, err := Encode(&buf, a, testTreeSection(), nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "z.arena")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded := snap.Arena.Members()
	check("loaded", loaded[0], loaded[1])
}

// TestSummarizeAllocs pins Summarize's footprint for a trajectory whose
// view and length are already cached, as an inserted one's are once the
// descent has read it: one slab for the summary's values and its header,
// for every trajectory of up to 64 segments, however many boxes its
// coarsening starts from.
func TestSummarizeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{2, MemberBoxes + 1, 65} {
		tr := allocTraj(rng, n, n)
		tr.View()
		tr.Length()
		if got := testing.AllocsPerRun(50, func() {
			if _, err := Summarize(tr); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("%d points: Summarize allocates %v per call, want 2", n, got)
		}
	}
}
