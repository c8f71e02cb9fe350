package trajtree

import (
	"math"
	"sync"

	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// screenPool recycles the per-query segment screens every bound of a
// search is computed from; steady-state queries reset a warm screen
// instead of allocating one.
var screenPool = sync.Pool{
	New: func() any { return new(core.SegScreen) },
}

// knnSearch is the one best-first descent behind SearchKNN and
// SearchSub. sub selects the distance: false ranks by the tree's
// whole-trajectory distance (EDwPavg, or cumulative EDwP), true by
// EDwPsub(q, ·) — the same traversal in the raw domain, with the bounds
// that do not rely on the member being consumed in full (see
// Tree.denom, Tree.screenMember). With a nil bound it is Algorithm 2
// without its vantage-point step (lines 8–10): the descent starts from an
// empty answer set, because once a rejected member costs one flat screen
// seeding the k-th best early saves no evaluation (docs/ARCHITECTURE.md,
// "Removed by measurement"). With a bound it additionally prunes against
// — and tightens — the shared limit. ctl (may be nil) injects cancellation —
// polled between candidate pops here and per DP row inside the kernel —
// and the query-wide evaluation budget; an exhausted budget stops the
// search and marks the answer truncated.
func (t *Tree) knnSearch(q *traj.Trajectory, k int, sub bool, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if t.root == nil || k <= 0 {
		return nil, st, false, ctl.Err()
	}
	qLen := q.Length()

	var cands binHeap[*node]
	cands.push(t.root, 0)
	ans := newTopK[*traj.Trajectory](k)

	// One per-query segment table serves every node bound and every
	// member screen of the search.
	scr := screenPool.Get().(*core.SegScreen)
	scr.Reset(q)
	defer screenPool.Put(scr)

	// effLimit is the tightest admissible abandon limit currently known:
	// the local k-th best once the answer set is full, lowered further by
	// the shared bound when one is attached.
	effLimit := func() float64 {
		limit := math.Inf(1)
		if worst, full := ans.worst(); full {
			limit = worst
		}
		if bound != nil {
			if b := bound.Load(); b < limit {
				limit = b
			}
		}
		return limit
	}

	// truncated flips when ctl's evaluation budget runs out; the search
	// then stops expanding and returns the best-effort answer so far.
	truncated := false

	// evaluate computes the (bounded) exact distance of tr and offers it
	// to the answer set. Abandoned candidates are never offered: under a
	// shared bound the local answer set may not be full yet, and a +Inf
	// entry would poison it.
	evaluate := func(tr *traj.Trajectory) {
		if !ctl.Take() {
			truncated = true
			return
		}
		st.DistanceCalls++
		limit := effLimit()
		if t.screenMember(scr, sub, qLen, tr, limit) {
			// The screen proves the bounded kernel would abandon this
			// candidate, so the evaluation is cut before the DP starts;
			// it is counted as the abandoned evaluation it replaces —
			// every existing counter keeps its meaning — and once more
			// as a screen reject, so kernel starts can be told apart.
			st.EarlyAbandons++
			st.ScreenRejects++
			return
		}
		var d float64
		var abandoned bool
		if sub {
			d, abandoned = core.SubDistanceBoundedCancel(q, tr, limit, ctl.CancelFlag())
		} else {
			d, abandoned = t.distBounded(q, tr, limit, ctl.CancelFlag())
		}
		if abandoned {
			st.EarlyAbandons++
			return
		}
		if ans.offer(tr, d) && bound != nil {
			if worst, full := ans.worst(); full {
				bound.Tighten(worst)
			}
		}
	}

	for cands.len() > 0 && !truncated {
		if ctl.Cancelled() {
			// Cancellation poll between candidate pops. Any in-flight
			// kernel call the flag interrupted mis-reported its candidate
			// as abandoned, so the whole answer is discarded here.
			return nil, st, false, ctl.Err()
		}
		it := cands.pop()
		if it.Priority >= effLimit() {
			// The queue is ordered by lower bound: nothing left can beat
			// the current k-th best (local or shared).
			st.NodesPruned += 1 + cands.len()
			break
		}
		c := it.Value
		st.NodesVisited++
		if c.leaf() {
			for _, tr := range c.members {
				if truncated {
					break
				}
				evaluate(tr)
			}
			continue
		}
		// Alg. 2 lines 11–13: push surviving children ordered by their
		// lower bounds. The screen early-exits against the current limit;
		// surviving bounds are exact, so the queue order — and with it the
		// result stream — is identical to the unbounded search.
		for _, child := range c.children {
			st.LowerBoundCalls++
			lb := nodeBound(scr, t.denom(sub, qLen, child.maxLen), child, effLimit())
			if lb >= effLimit() {
				st.NodesPruned++
				continue
			}
			cands.push(child, lb)
		}
	}

	if err := ctl.Err(); err != nil {
		// The context fired after the last pop (possibly poisoning the
		// final kernel calls); the answer cannot be trusted.
		return nil, st, false, err
	}
	items := ans.items()
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{Traj: it.Value, Dist: it.Priority}
	}
	return out, st, truncated, nil
}

// KNNBrute computes the exact k-NN by sequential scan with the same
// distance, for verification and as the "EDwP Sequential Scan" competitor
// of Figs. 5(j) and 6(a). The scan, too, bounds each evaluation by the
// running k-th best distance.
func (t *Tree) KNNBrute(q *traj.Trajectory, k int) []Result {
	ans := newTopK[*traj.Trajectory](k)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.leaf() {
			for _, tr := range n.members {
				limit := math.Inf(1)
				if worst, full := ans.worst(); full {
					limit = worst
				}
				d, _ := t.distBounded(q, tr, limit, nil)
				ans.offer(tr, d)
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	items := ans.items()
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{Traj: it.Value, Dist: it.Priority}
	}
	return out
}
