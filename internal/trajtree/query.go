package trajtree

import (
	"math"
	"sync"

	"trajmatch/internal/core"
	"trajmatch/internal/pqueue"
	"trajmatch/internal/traj"
	"trajmatch/internal/vantage"
)

// visitSet is a reusable generation-stamped membership set keyed by
// trajectory ID. Marking stamps the current generation; begin() starts a
// fresh query by bumping the generation, so no per-query clearing or
// allocation happens — stale entries simply stop matching. Instances are
// pooled: steady-state queries reuse a map that has already grown to the
// working-set size instead of allocating a map per call.
type visitSet struct {
	gen   uint64
	marks map[int]uint64
}

var visitPool = sync.Pool{
	New: func() any { return &visitSet{marks: make(map[int]uint64, 64)} },
}

// screenPool recycles the per-query segment screens every bound of a
// search is computed from; steady-state queries reset a warm screen
// instead of allocating one.
var screenPool = sync.Pool{
	New: func() any { return new(core.SegScreen) },
}

// vpPool recycles the per-query buffers of the vantage pass: the query's
// descriptor under the root's VPs and TopK's selection state.
var vpPool = sync.Pool{
	New: func() any { return new(vantage.Scratch) },
}

// begin invalidates all previous marks in O(1).
func (v *visitSet) begin() { v.gen++ }

func (v *visitSet) has(id int) bool { return v.marks[id] == v.gen }

func (v *visitSet) mark(id int) { v.marks[id] = v.gen }

// knnSearch is the one best-first descent behind SearchKNN and
// SearchSub. sub selects the distance: false ranks by the tree's
// whole-trajectory distance (EDwPavg, or cumulative EDwP), true by
// EDwPsub(q, ·) — the same traversal in the raw domain, with the bounds
// that do not rely on the member being consumed in full (see
// Tree.denom, Tree.screenMember). With a nil bound it is the plain
// Algorithm 2; with a bound it additionally prunes against — and
// tightens — the shared limit. ctl (may be nil) injects cancellation —
// polled between candidate pops here and per DP row inside the kernel —
// and the query-wide evaluation budget; an exhausted budget stops the
// search and marks the answer truncated.
func (t *Tree) knnSearch(q *traj.Trajectory, k int, sub bool, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if t.root == nil || k <= 0 {
		return nil, st, false, ctl.Err()
	}
	qLen := q.Length()

	var cands pqueue.Min[*node]
	cands.Push(t.root, 0)
	ans := pqueue.NewTopK[*traj.Trajectory](k)
	processed := visitPool.Get().(*visitSet)
	processed.begin()
	defer visitPool.Put(processed)

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
		if worst, full := ans.Worst(); full {
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
	// to the answer set, reporting whether it was kept. Abandoned
	// candidates are never offered: under a shared bound the local answer
	// set may not be full yet, and a +Inf entry would poison it.
	evaluate := func(tr *traj.Trajectory) bool {
		if !ctl.Take() {
			truncated = true
			return false
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
			return false
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
			return false
		}
		kept := ans.Offer(tr, d)
		if kept && bound != nil {
			if worst, full := ans.Worst(); full {
				bound.Tighten(worst)
			}
		}
		return kept
	}

	for cands.Len() > 0 && !truncated {
		if ctl.Cancelled() {
			// Cancellation poll between candidate pops. Any in-flight
			// kernel call the flag interrupted mis-reported its candidate
			// as abandoned, so the whole answer is discarded here.
			return nil, st, false, ctl.Err()
		}
		it := cands.Pop()
		if it.Priority >= effLimit() {
			// The queue is ordered by lower bound: nothing left can beat
			// the current k-th best (local or shared).
			st.NodesPruned += 1 + cands.Len()
			break
		}
		c := it.Value
		st.NodesVisited++
		if c.leaf() {
			for _, tr := range c.members {
				if truncated {
					break
				}
				if processed.has(tr.ID) {
					continue
				}
				processed.mark(tr.ID)
				evaluate(tr)
			}
			continue
		}
		// Step 1 (Alg. 2 lines 8–10): seed the upper bound through the
		// vantage points. Candidates are evaluated in VD order and the
		// pass stops once consecutive candidates stop improving the
		// answer set. The pass only pays where it seeds: once k answers
		// are held the bounds reach the remaining members more cheaply,
		// so it runs at the root — the one node a built tree gives
		// vantage points — and nowhere after the answer set has filled.
		// Descriptors compare whole trajectories, which says little
		// about where a fragment matches, so sub searches skip it.
		if c.vps != nil && !sub && !ans.Full() {
			vp := vpPool.Get().(*vantage.Scratch)
			top := vp.TopK(vp.Descriptor(q, c.vps), c.descs, k, func(i int) bool {
				return processed.has(c.members[i].ID)
			})
			misses := 0
			for _, idx := range top {
				if truncated {
					break
				}
				tr := c.members[idx]
				if processed.has(tr.ID) {
					continue
				}
				processed.mark(tr.ID)
				if evaluate(tr) {
					misses = 0
				} else if misses++; misses >= 2 && ans.Full() {
					break
				}
			}
			vpPool.Put(vp)
		}
		// Step 2 (lines 11–13): push surviving children ordered by their
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
			cands.Push(child, lb)
		}
	}

	if err := ctl.Err(); err != nil {
		// The context fired after the last pop (possibly poisoning the
		// final kernel calls); the answer cannot be trusted.
		return nil, st, false, err
	}
	items := ans.Items()
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
	ans := pqueue.NewTopK[*traj.Trajectory](k)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.leaf() {
			for _, tr := range n.members {
				limit := math.Inf(1)
				if worst, full := ans.Worst(); full {
					limit = worst
				}
				d, _ := t.distBounded(q, tr, limit, nil)
				ans.Offer(tr, d)
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	items := ans.Items()
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{Traj: it.Value, Dist: it.Priority}
	}
	return out
}

// VPUpperBound returns the VP-based upper bound of Eq. 14 at the root: the
// largest exact distance among the root's VP-chosen k candidates. It
// underlies the UB-Factor experiments of Figs. 6(c)–(d). The second return
// is the candidate set's exact distances, sorted ascending.
func (t *Tree) VPUpperBound(q *traj.Trajectory, k int) (float64, []float64) {
	if t.root == nil || t.root.vps == nil {
		return 0, nil
	}
	var vp vantage.Scratch
	top := vp.TopK(vp.Descriptor(q, t.root.vps), t.root.descs, k, nil)
	ds := make([]float64, 0, len(top))
	for _, idx := range top {
		ds = append(ds, t.dist(q, t.root.members[idx]))
	}
	ub := 0.0
	for _, d := range ds {
		if d > ub {
			ub = d
		}
	}
	// sort ascending for callers that want the full candidate profile
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ub, ds
}
