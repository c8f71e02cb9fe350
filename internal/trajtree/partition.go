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
		best := leastExpansion(len(seqs), func(i int) *tbox.Seq { return seqs[i] }, tr)
		groups[best] = append(groups[best], tr)
		seqs[best].Insert(tr)
	}
	return groups, seqs
}

// leastExpansion returns the first of the n summaries seq(i) that grows
// the least on absorbing tr: Algorithm 1's line 11, and Insert's descent.
// It stops at the first growth of exactly 0. Each term of ExpansionCost
// is the product of the grown extents less the same product over the
// box's own, which monotone rounding keeps ≥ 0, so no later summary can
// grow less.
func leastExpansion(n int, seq func(int) *tbox.Seq, tr *traj.Trajectory) int {
	best, bestCost := 0, math.Inf(1)
	for i := range n {
		c := seq(i).ExpansionCost(tr)
		if c == 0 {
			return i
		}
		if c < bestCost {
			bestCost, best = c, i
		}
	}
	return best
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
// second's summary boxes already passes that value. Bounded results are
// exact and a skipped call is one whose result could not have been
// taken.
//
// The scan is also lazy, and picks the pivots the eager scan (every
// candidate and every pivot pair updated after each pick) picks:
//   - A candidate's minimum over the first upto[i] pivots is an upper
//     bound on its minimum over all of them. Only the argmax of these
//     keys is brought up to date, and a current argmax is the eager
//     argmax: every other true value is at most its key, and the lower
//     index wins a tie either way.
//   - A pivot's own minimum is 0 without a kernel call: EDwPsub(p, p)
//     aligns each segment with itself at cost 0, and no cost is negative.
//   - Pivot pairs wait until θ could stop the scan. 1 − bestD/x does not
//     decrease as x grows, under rounding too, so a test that does not
//     fire on the settled pairs' minimum, an upper bound, would not fire
//     on the exact one. The pending pairs are settled in the order the
//     eager scan evaluates them.
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
	// below returns EDwPsub(cands[i], cands[j]) when it is below limit,
	// and +Inf or some value not below it otherwise. The screen's raw
	// limit is inflated by the relative 1e-9 of screenMember, so its
	// rounding cannot skip a call the kernel would answer below limit.
	below := func(i, j int, limit float64) float64 {
		raw := limit + limit*1e-9
		if core.ScreenLowerBound(&scr[i], cands[j].Summary().Boxes, raw) > raw {
			return math.Inf(1)
		}
		d, _ := core.SubDistanceBounded(cands[i], cands[j], limit)
		return d
	}

	// at holds the pivots' indices in cands.
	at := make([]int, 1, max(1, t.opt.MaxFanout))
	at[0] = t.rng.Intn(len(cands))
	// minToP[i] = min over the first upto[i] pivots p of EDwPsub(cands[i], p).
	minToP := make([]float64, len(cands))
	upto := make([]int, len(cands))
	for i, c := range cands {
		minToP[i] = subDiv(c, cands[at[0]])
		upto[i] = 1
		scr[i].Reset(c)
	}
	// pairMin is the least pairwise diversity within the first settled
	// pivots, an upper bound on the least within all of them.
	pairMin, settled := math.Inf(1), 1

	for len(at) < t.opt.MaxFanout {
		bestI, bestD := argmax(minToP)
		for bestI >= 0 && bestD > 0 && upto[bestI] < len(at) {
			for ; upto[bestI] < len(at); upto[bestI]++ {
				k := upto[bestI]
				if d := below(bestI, at[k], minToP[bestI]); d < minToP[bestI] {
					minToP[bestI] = d
				}
			}
			bestI, bestD = argmax(minToP)
		}
		if bestI < 0 || bestD <= 0 {
			break // every candidate coincides with a pivot
		}
		if len(at) >= 2 && 1-bestD/pairMin > t.opt.Theta {
			for ; settled < len(at); settled++ {
				i := at[settled]
				for _, j := range at[:settled] {
					// The first pair has no limit yet and takes subDiv's values.
					if math.IsInf(pairMin, 1) {
						pairMin = math.Min(subDiv(cands[i], cands[j]), subDiv(cands[j], cands[i]))
						continue
					}
					if d := below(i, j, pairMin); d < pairMin {
						pairMin = d
					}
					if d := below(j, i, pairMin); d < pairMin {
						pairMin = d
					}
				}
			}
			if 1-bestD/pairMin > t.opt.Theta {
				break
			}
		}
		at = append(at, bestI)
		minToP[bestI], upto[bestI] = 0, len(at)
	}
	pivots := make([]*traj.Trajectory, len(at))
	for k, i := range at {
		pivots[k] = cands[i]
	}
	return pivots
}

// argmax returns the first index of the largest value in xs, and that
// value; -1 when xs holds no value above -1.
func argmax(xs []float64) (int, float64) {
	bestI, bestD := -1, -1.0
	for i, d := range xs {
		if d > bestD {
			bestD, bestI = d, i
		}
	}
	return bestI, bestD
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
