package trajtree

import (
	"math"
	"sync"

	"trajmatch/internal/core"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

// partition implements Algorithm 1: select diverse pivots until the
// marginal diversity drop exceeds θ, then distribute the remaining
// trajectories to the pivot whose tBoxSeq grows the least. It returns the
// groups and their (already populated) tBoxSeqs.
func (t *Tree) partition(D []*traj.Trajectory) ([][]*traj.Trajectory, []*tbox.Seq) {
	pivots := t.selectPivots(D)
	if len(pivots) < 2 {
		return nil, nil
	}
	isPivot := make(map[int]bool, len(pivots))
	groups := make([][]*traj.Trajectory, len(pivots))
	seqs := make([]*tbox.Seq, len(pivots))
	for i, p := range pivots {
		isPivot[p.ID] = true
		groups[i] = []*traj.Trajectory{p}
		seqs[i] = tbox.FromTrajectory(p, t.opt.MaxBoxes)
	}
	for _, tr := range D {
		if isPivot[tr.ID] {
			continue
		}
		best, bestCost := 0, math.Inf(1)
		for i, s := range seqs {
			if c := s.ExpansionCost(tr); c < bestCost {
				bestCost, best = c, i
			}
		}
		groups[best] = append(groups[best], tr)
		seqs[best].Insert(tr)
	}
	return groups, seqs
}

// pivotScreens recycles the pivot scan's per-candidate segment screens,
// reset at every node, across the nodes of a build and the subtrees a
// parallel build runs at once.
var pivotScreens = sync.Pool{New: func() any { return new([]core.SegScreen) }}

// selectPivots runs lines 3–8 of Algorithm 1. The argmax scan samples at
// most PivotCandidates trajectories per round (see Options); diversity is
// measured by cumulative EDwPsub as in the paper.
//
// After the first pivot every EDwPsub the scan runs only matters below a
// known value — a candidate's distance to the pivots before, or the
// pivots' pairwise minimum — so each runs bounded by it, and is skipped
// outright when the flat screen of its first argument against the
// second's arena boxes already passes that value. Bounded results are
// exact and a skipped call is one whose result could not have been
// taken, so the pivots are the ones the unbounded scan picks.
func (t *Tree) selectPivots(D []*traj.Trajectory) []*traj.Trajectory {
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
	// boxesOf returns a candidate's arena boxes; nil for one without an
	// arena entry (an overlay member in an Insert-time split), which is
	// never screened against.
	boxesOf := func(i int) []float64 {
		if ai, ok := t.arenaIndex(cands[i]); ok {
			return t.ar.Boxes(ai)
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

// subDiv is the diversity measure of Algorithm 1: EDwPsub between two
// trajectories.
func subDiv(a, b *traj.Trajectory) float64 {
	d := core.SubDistance(a, b)
	if math.IsInf(d, 1) {
		return math.MaxFloat64 / 4
	}
	return d
}
