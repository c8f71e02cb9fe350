package trajtree

import (
	"math"

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
	// Drop empty groups (cannot happen — every group holds its pivot — but
	// keep the guard for safety).
	out := groups[:0]
	outSeqs := seqs[:0]
	for i := range groups {
		if len(groups[i]) > 0 {
			out = append(out, groups[i])
			outSeqs = append(outSeqs, seqs[i])
		}
	}
	return out, outSeqs
}

// selectPivots runs lines 3–8 of Algorithm 1. The argmax scan samples at
// most PivotCandidates trajectories per round (see Options); diversity is
// measured by cumulative EDwPsub as in the paper.
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

	pivots := []*traj.Trajectory{cands[t.rng.Intn(len(cands))]}
	// minToP[i] = min over pivots p of EDwPsub(cands[i], p).
	minToP := make([]float64, len(cands))
	for i, c := range cands {
		minToP[i] = subDiv(c, pivots[0])
	}
	pairMin := math.Inf(1) // min pairwise diversity within pivots

	for len(pivots) < t.opt.MaxFanout {
		bestI, bestD := -1, -1.0
		for i, d := range minToP {
			if d > bestD {
				bestD, bestI = d, i
			}
		}
		if bestI < 0 || bestD <= 0 {
			break // every candidate coincides with a pivot
		}
		if len(pivots) >= 2 {
			drop := 1 - bestD/pairMin
			if drop > t.opt.Theta {
				break
			}
		}
		p := cands[bestI]
		// Update pairwise diversity with the new pivot.
		for _, q := range pivots {
			if d := math.Min(subDiv(p, q), subDiv(q, p)); d < pairMin {
				pairMin = d
			}
		}
		pivots = append(pivots, p)
		// Only a distance below the candidate's current minimum matters,
		// so the kernel may give up (+Inf) as soon as it passes it.
		for i, c := range cands {
			if d, _ := core.SubDistanceBounded(c, p, minToP[i]); d < minToP[i] {
				minToP[i] = d
			}
		}
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
