package trajtree

import (
	"math"

	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

var _ backend.CandidateSearcher = (*Tree)(nil)

// SearchKNNIn is the backend.CandidateSearcher capability: exact EDwP
// k-NN restricted to the prefilter's candidate IDs. The tree's node
// bounds cover whole subtrees, not arbitrary member subsets, so
// verification bounds each candidate individually, with the same
// two-sided screen the descent applies to leaf members (query side plus
// member side over the member's own summary, normalised for the averaged
// variant); the scan evaluates in tightest-first order and prunes
// against the running k-th best and the shared bound before starting a
// kernel. Every candidate goes through the verify step the descent's
// members go through (backend.Verifier), so handed every member it
// answers exactly as SearchKNN does, ties included. IDs not present in
// the tree are skipped silently; truncation and error semantics match
// SearchKNN.
func (t *Tree) SearchKNNIn(q *traj.Trajectory, ids []int, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if t.root == nil || k <= 0 || len(ids) == 0 {
		return nil, st, false, ctl.Err()
	}
	// The ID index resolves each candidate in O(1), so the cost follows
	// the candidate count, not the tree size.
	sel := make([]*traj.Trajectory, 0, len(ids))
	for _, id := range ids {
		if m := t.byID[id]; m != nil {
			sel = append(sel, m)
		}
	}
	qLen := q.Length()
	scr := screenPool.Get().(*core.SegScreen)
	scr.Reset(q)
	defer screenPool.Put(scr)
	inf := math.Inf(1)
	cands := make([]backend.Cand, len(sel))
	for i, m := range sel {
		if i%64 == 0 && ctl.Cancelled() {
			return nil, st, false, ctl.Err()
		}
		st.LowerBoundCalls++
		s := m.Summary()
		lb := core.ScreenMemberSide(scr, s.Boxes, s.BoxLens, core.ScreenLowerBound(scr, s.Boxes, inf), inf)
		if den := t.denom(false, qLen, m.Length()); den > 0 {
			lb /= den
		} else {
			lb = 0
		}
		cands[i] = backend.Cand{T: m, LB: lb}
	}
	backend.SortCands(cands)
	res, truncated, err := backend.ScanKNN(cands, k, bound, ctl, &st, func(tr *traj.Trajectory, limit float64) (float64, bool) {
		return t.distBounded(q, tr, limit, ctl.CancelFlag())
	})
	return res, st, truncated, err
}
