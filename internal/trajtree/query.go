package trajtree

import (
	"math"
	"sync"

	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// screenPool recycles the per-query segment screens every bound of a
// search is computed from; steady-state queries reset a warm screen
// instead of allocating one.
var screenPool = sync.Pool{
	New: func() any { return new(core.SegScreen) },
}

// knnSearch is the one best-first descent behind SearchKNN, SearchRange
// and SearchSub. sub selects the distance: false ranks by the tree's
// whole-trajectory distance (EDwPavg, or cumulative EDwP), true by
// EDwPsub(q, ·) — the same traversal in the raw domain, with the bounds
// that do not rely on the member being consumed in full (see
// Tree.denom, Tree.screenMember). With a nil bound it is Algorithm 2
// without its vantage-point step (lines 8–10): the descent starts from an
// empty answer set, because once a rejected member costs one flat screen
// seeding the k-th best early saves no evaluation (docs/ARCHITECTURE.md,
// "Removed by measurement"). Every leaf member goes through the shared
// verify step (backend.Verifier), which owns the answer set, the limit,
// the budget and the shared bound; the descent only orders and prunes
// nodes against the step's limit. ctl (may be nil) injects cancellation —
// polled between candidate pops here and per DP row inside the kernel —
// and the query-wide evaluation budget; an exhausted budget stops the
// search and marks the answer truncated.
func (t *Tree) knnSearch(q *traj.Trajectory, k int, sub bool, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if t.root == nil || k <= 0 {
		return nil, st, false, ctl.Err()
	}
	qLen := q.Length()

	// One per-query segment table serves every node bound and every
	// member screen of the search.
	scr := screenPool.Get().(*core.SegScreen)
	scr.Reset(q)
	defer screenPool.Put(scr)

	v := backend.NewVerifier(k, bound, ctl, &st, func(tr *traj.Trajectory, limit float64) (float64, bool) {
		if t.screenMember(scr, sub, qLen, tr, limit) {
			// The screen proves the bounded kernel would abandon this
			// candidate, so the evaluation is cut before the DP starts;
			// the step counts it as the abandoned evaluation it replaces —
			// every existing counter keeps its meaning — and it is counted
			// once more here as a screen reject, so kernel starts can be
			// told apart.
			st.ScreenRejects++
			return math.Inf(1), true
		}
		if sub {
			return core.SubDistanceBoundedCancel(q, tr, limit, ctl.CancelFlag())
		}
		return t.distBounded(q, tr, limit, ctl.CancelFlag())
	})

	var cands binHeap[*node]
	cands.push(t.root, 0)
descent:
	for cands.len() > 0 {
		if ctl.Cancelled() {
			// Cancellation poll between candidate pops. Any in-flight
			// kernel call the flag interrupted mis-reported its candidate
			// as abandoned, so Results discards the whole answer.
			break
		}
		it := cands.pop()
		if it.Priority > v.Limit() {
			// The queue is ordered by lower bound: nothing left can enter
			// the answer. The prune is strict, as ScanKNN's — a subtree
			// whose bound ties the limit exactly may still hold a member
			// that enters on the ID tie-break.
			st.NodesPruned += 1 + cands.len()
			break
		}
		c := it.Value
		st.NodesVisited++
		if c.leaf() {
			for _, tr := range c.members {
				if !v.Verify(tr) {
					break descent
				}
			}
			continue
		}
		// Alg. 2 lines 11–13: push surviving children ordered by their
		// lower bounds. The screen early-exits against the current limit;
		// surviving bounds are exact, so the queue order — and with it the
		// result stream — is identical to the unbounded search.
		for _, child := range c.children {
			st.LowerBoundCalls++
			limit := v.Limit()
			lb := nodeBound(scr, t.denom(sub, qLen, child.maxLen), child, limit)
			if lb > limit {
				st.NodesPruned++
				continue
			}
			cands.push(child, lb)
		}
	}
	res, truncated, err := v.Results()
	return res, st, truncated, err
}
