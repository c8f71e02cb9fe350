package trajtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"trajmatch/internal/arena"
	"trajmatch/internal/core"
	"trajmatch/internal/synth"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

// eagerSelectPivots is the max-min scan selectPivots replaced, kept
// verbatim as its oracle: after every pick it updates every candidate's
// minimum and every new pivot pair, and computes the new pivot's distance
// to itself.
func (t *Tree) eagerSelectPivots(D []*traj.Trajectory) []*traj.Trajectory {
	if len(D) == 0 {
		return nil
	}
	cands := D
	if len(D) > t.opt.PivotCandidates {
		cands = make([]*traj.Trajectory, t.opt.PivotCandidates)
		perm := t.rng.Perm(len(D))
		for i := range cands {
			cands[i] = D[perm[i]]
		}
	}
	pooled := pivotScreens.Get().(*[]core.SegScreen)
	defer pivotScreens.Put(pooled)
	if cap(*pooled) < len(cands) {
		*pooled = make([]core.SegScreen, len(cands))
	}
	scr := (*pooled)[:len(cands)]
	// boxesOf returns a candidate's summary boxes, or nil — never screened
	// against — on a tree without an arena, so the oracle also runs
	// unscreened against the scan, which always screens.
	boxesOf := func(i int) []float64 {
		if t.ar != nil {
			return cands[i].Summary().Boxes
		}
		return nil
	}
	// below returns EDwPsub(cands[i], cands[j]) when it is below limit,
	// and +Inf or some value not below it otherwise. The screen's raw
	// limit is inflated by the relative 1e-9 of screenMember, so its
	// rounding cannot skip a call the kernel would answer below limit.
	below := func(i, j int, boxes []float64, limit float64) float64 {
		if len(boxes) > 0 {
			raw := limit + limit*1e-9
			if core.ScreenLowerBound(&scr[i], boxes, raw) > raw {
				return math.Inf(1)
			}
		}
		d, _ := core.SubDistanceBounded(cands[i], cands[j], limit)
		return d
	}

	// at holds the pivots' indices in cands.
	at := make([]int, 1, max(1, t.opt.MaxFanout))
	at[0] = t.rng.Intn(len(cands))
	// minToP[i] = min over pivots p of EDwPsub(cands[i], p).
	minToP := make([]float64, len(cands))
	for i, c := range cands {
		minToP[i] = subDiv(c, cands[at[0]])
		scr[i].Reset(c)
	}
	pairMin := math.Inf(1) // min pairwise diversity within pivots

	for len(at) < t.opt.MaxFanout {
		bestI, bestD := -1, -1.0
		for i, d := range minToP {
			if d > bestD {
				bestD, bestI = d, i
			}
		}
		if bestI < 0 || bestD <= 0 {
			break // every candidate coincides with a pivot
		}
		if len(at) >= 2 {
			drop := 1 - bestD/pairMin
			if drop > t.opt.Theta {
				break
			}
		}
		pBoxes := boxesOf(bestI)
		// Update pairwise diversity with the new pivot. The first pair
		// has no limit yet and takes subDiv's values.
		for _, j := range at {
			if math.IsInf(pairMin, 1) {
				pairMin = math.Min(subDiv(cands[bestI], cands[j]), subDiv(cands[j], cands[bestI]))
				continue
			}
			if d := below(bestI, j, boxesOf(j), pairMin); d < pairMin {
				pairMin = d
			}
			if d := below(j, bestI, pBoxes, pairMin); d < pairMin {
				pairMin = d
			}
		}
		at = append(at, bestI)
		for i := range cands {
			if d := below(i, bestI, pBoxes, minToP[i]); d < minToP[i] {
				minToP[i] = d
			}
		}
	}
	pivots := make([]*traj.Trajectory, len(at))
	for k, i := range at {
		pivots[k] = cands[i]
	}
	return pivots
}

// pivotIDs runs scan on D with a fresh rng seeded by seed, over a tree
// whose options are opt and whose arena (nil: no member is screened) is ar.
func pivotIDs(scan func(*Tree, []*traj.Trajectory) []*traj.Trajectory, D []*traj.Trajectory, opt Options, ar *arena.Arena, seed int64) []int {
	t := &Tree{opt: opt.withDefaults(), ar: ar, rng: rand.New(rand.NewSource(seed))}
	var ids []int
	for _, p := range scan(t, D) {
		ids = append(ids, p.ID)
	}
	return ids
}

// checkPivotScan fails t when the lazy and the eager scan pick different
// pivots from D, with the oracle screened and unscreened.
func checkPivotScan(t *testing.T, name string, D []*traj.Trajectory, opt Options, ar *arena.Arena, seed int64) {
	t.Helper()
	for _, a := range []*arena.Arena{ar, nil} {
		want := pivotIDs((*Tree).eagerSelectPivots, D, opt, a, seed)
		got := pivotIDs((*Tree).selectPivots, D, opt, a, seed)
		if !slices.Equal(got, want) {
			t.Fatalf("%s θ=%v fanout=%d cands=%d screened=%v: lazy pivots %v, eager %v",
				name, opt.Theta, opt.MaxFanout, opt.PivotCandidates, a != nil, got, want)
		}
	}
}

// TestSelectPivotsMatchesEagerScan pins the lazy max-min scan to the
// eager one it replaced: the same pivots, in the same order, over taxi
// trips, ASL gestures, exact clones (ties, and the exit when every
// candidate coincides with a pivot) and 2-point trajectories, across θ,
// fan-out and candidate counts.
func TestSelectPivotsMatchesEagerScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var clones []*traj.Trajectory
	for _, tr := range taxiTrips(6, 3, 0) {
		for c := 0; c < 8; c++ {
			clones = append(clones, traj.New(len(clones), tr.Points))
		}
	}
	segs := make([]*traj.Trajectory, 60)
	for i := range segs {
		x, y := rng.Float64()*100, rng.Float64()*100
		segs[i] = traj.FromXY(i, x, y, x+rng.NormFloat64()*10, y+rng.NormFloat64()*10)
	}
	corpora := []struct {
		name string
		ts   []*traj.Trajectory
	}{
		{"taxi", taxiTrips(200, 1, 0)},
		{"asl", synth.ASL(synth.ASLConfig{NumClasses: 10, Instances: 8, Points: 30, Jitter: 0.04, Seed: 2})},
		{"clones", clones},
		{"2-point", segs},
	}
	for _, c := range corpora {
		ar := arena.Build(c.ts)
		sub := slices.Clone(c.ts)
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
		sub = sub[:20]
		for _, theta := range []float64{0.2, 0.5, 0.8, 0.95} {
			for _, fanout := range []int{2, 3, 16} {
				for _, cands := range []int{4, 64} {
					opt := Options{Theta: theta, MaxFanout: fanout, PivotCandidates: cands}
					checkPivotScan(t, c.name, c.ts, opt, ar, 1)
					checkPivotScan(t, c.name+"/subset", sub, opt, ar, 2)
				}
			}
		}
	}
}

// FuzzPivotScan runs the lazy-against-eager comparison of
// TestSelectPivotsMatchesEagerScan on small decoded corpora. Byte 0 sets
// θ = (b+½)/256, byte 1 MaxFanout = 2 + b%15, byte 2 PivotCandidates =
// 1 + b%32 and byte 3 the scan's seed; then come up to 24 trajectories,
// each a byte n for 2 + n%5 points and an (x, y) byte pair per point,
// so duplicates and collinear paths are common. The committed corpus
// (testdata/fuzz/FuzzPivotScan) holds duplicates, collinear paths,
// 2-point trajectories and θ near 0 and near 1.
func FuzzPivotScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		opt := Options{
			Theta:           (float64(data[0]) + 0.5) / 256,
			MaxFanout:       2 + int(data[1])%15,
			PivotCandidates: 1 + int(data[2])%32,
		}
		seed := int64(data[3])
		var D []*traj.Trajectory
		for rest := data[4:]; len(rest) > 0 && len(D) < 24; {
			n := 2 + int(rest[0])%5
			if len(rest) < 1+2*n {
				break
			}
			pts := make([]traj.Point, n)
			for i := range pts {
				pts[i] = traj.P(float64(rest[1+2*i]), float64(rest[2+2*i]), float64(10*i))
			}
			D = append(D, traj.New(len(D), pts))
			rest = rest[1+2*n:]
		}
		if len(D) == 0 {
			return
		}
		checkPivotScan(t, fmt.Sprintf("%d trajectories", len(D)), D, opt, arena.Build(D), seed)
	})
}

// TestLeastExpansion pins leastExpansion's zero exit to the full scan it
// replaced: the first summary of least growth, whether or not several
// cost 0.
func TestLeastExpansion(t *testing.T) {
	seq := func(x0, y0, x1, y1 float64) *tbox.Seq {
		return tbox.FromTrajectory(traj.FromXY(0, x0, y0, x1, y1), 0)
	}
	tr := traj.FromXY(1, 1, 1, 2, 2)
	covers := seq(0, 0, 3, 3)
	near, far := seq(2, 2, 4, 4), seq(10, 10, 12, 12)
	cases := []struct {
		name string
		seqs []*tbox.Seq
		want int
	}{
		{"one group", []*tbox.Seq{far}, 0},
		{"no zero", []*tbox.Seq{far, near, far}, 1},
		{"tie at a positive cost", []*tbox.Seq{far, near, near}, 1},
		{"one zero", []*tbox.Seq{far, near, covers, near}, 2},
		{"several zeros", []*tbox.Seq{near, covers, far, covers}, 1},
		{"all zero", []*tbox.Seq{covers, covers, covers}, 0},
		{"empty summary", []*tbox.Seq{far, {}, near}, 1},
	}
	for _, c := range cases {
		full, fullCost := 0, math.Inf(1)
		for i, s := range c.seqs {
			if cost := s.ExpansionCost(tr); cost < fullCost {
				fullCost, full = cost, i
			}
		}
		got := leastExpansion(len(c.seqs), func(i int) *tbox.Seq { return c.seqs[i] }, tr)
		if got != c.want || got != full {
			t.Errorf("%s: leastExpansion = %d, full scan %d, want %d", c.name, got, full, c.want)
		}
	}
}
