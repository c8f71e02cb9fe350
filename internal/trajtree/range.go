package trajtree

import (
	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// rangeSeeded walks the tree pruning subtrees whose lower bound exceeds
// the seed limit and abandoning member evaluations at it. ctl (may be
// nil) injects cancellation — polled once per visited node and per DP
// row inside the kernel — and the query-wide evaluation budget.
func (t *Tree) rangeSeeded(q *traj.Trajectory, radius float64, ctl *Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if t.root == nil {
		return nil, st, false, ctl.Err()
	}
	qLen := q.Length()
	scr := screenPool.Get().(*core.SegScreen)
	scr.Reset(q)
	defer screenPool.Put(scr)
	var out []Result
	truncated := false
	var walk func(n *node)
	walk = func(n *node) {
		if truncated || ctl.Cancelled() {
			return
		}
		st.NodesVisited++
		if n.leaf() {
			for _, tr := range n.members {
				if !ctl.Take() {
					truncated = true
					return
				}
				st.DistanceCalls++
				// Leaf-level screen: members the arena summaries prove
				// outside the radius skip the kernel, counted as the
				// abandoned evaluations they would have been.
				if t.screenMember(scr, false, qLen, tr, radius) {
					st.EarlyAbandons++
					st.ScreenRejects++
					continue
				}
				d, abandoned := t.distBounded(q, tr, radius, ctl.CancelFlag())
				if d <= radius {
					out = append(out, Result{Traj: tr, Dist: d})
				} else if abandoned {
					st.EarlyAbandons++
				}
			}
			return
		}
		for _, child := range n.children {
			if truncated || ctl.Cancelled() {
				return
			}
			st.LowerBoundCalls++
			if lb := nodeBound(scr, t.denom(false, qLen, child.maxLen), child, radius); lb > radius {
				st.NodesPruned++
				continue
			}
			walk(child)
		}
	}
	walk(t.root)
	if err := ctl.Err(); err != nil {
		// A fired context may have poisoned in-flight evaluations;
		// discard the whole answer.
		return nil, st, false, err
	}
	backend.SortResults(out)
	return out, st, truncated, nil
}
