package trajtree

import (
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
	sortResults(out)
	return out, st, truncated, nil
}

// NearestDissimilar returns the k indexed trajectories *farthest* from q —
// useful for diversity sampling, implemented as a guarded scan (upper
// bounds for farthest-point search are not derivable from the paper's
// lower-bound machinery, so this is exact-by-scan and documented as such).
func (t *Tree) NearestDissimilar(q *traj.Trajectory, k int) []Result {
	if t.root == nil || k <= 0 {
		return nil
	}
	ans := newTopK[*traj.Trajectory](k)
	for _, tr := range t.root.members {
		// topK keeps smallest priorities; negate to keep farthest.
		ans.offer(tr, -t.dist(q, tr))
	}
	items := ans.items()
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{Traj: it.Value, Dist: -it.Priority}
	}
	return out
}

// sortResults orders by ascending distance with trajectory ID breaking
// exact-distance ties, so a range result is a deterministic function of
// the answer *set* alone — the sharded fan-out concatenates per-shard
// lists and re-sorts with the same key, making range answers identical
// across shard counts even when distances tie exactly.
func sortResults(rs []Result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && (rs[j].Dist < rs[j-1].Dist ||
			(rs[j].Dist == rs[j-1].Dist && rs[j].Traj.ID < rs[j-1].Traj.ID)); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
