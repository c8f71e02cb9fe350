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

// queuePool recycles the backing arrays of the descent's queues, as
// screenPool recycles the screens: a 10-NN search over 10 000 taxi trips
// queues a few thousand entries.
var queuePool = sync.Pool{
	New: func() any { return new(binHeap[entry]) },
}

// entry is one candidate on the descent's queue: an internal node at its
// node bound (i < 0), or member i of leaf n at its member screen. raw is
// a member's screen in the raw domain, refined once the box-sequence
// tier is in it.
type entry struct {
	n       *node
	i       int32
	refined bool
	raw     float64
}

// knnSearch is the one best-first descent behind SearchKNN, SearchRange
// and SearchSub. sub selects the distance: false ranks by the tree's
// whole-trajectory distance (EDwPavg, or cumulative EDwP), true by
// EDwPsub(q, ·) — the same traversal in the raw domain, with the bounds
// that do not rely on the member being consumed in full (see
// Tree.denom, memberScreen). With a nil bound it is Algorithm 2 without
// its vantage-point step (lines 8–10): the descent starts from an empty
// answer set, because once a rejected member costs one flat screen
// seeding the k-th best early saves no evaluation (docs/ARCHITECTURE.md,
// "Removed by measurement").
//
// One queue holds internal nodes and leaf members, each at its lower
// bound. Expanding a node bounds its internal children (nodeBound) and
// queues every member of its leaf children at the member's bounding-box
// screen, read from the leaf's slab; a leaf is never bounded as a whole.
// A member taken off the queue for the first time gets its box-sequence
// screen and goes back at the larger of its two tiers; taken off again,
// it goes to the shared verify step (backend.Verifier), which owns the
// answer set, the limit, the budget and the shared bound. So kernels
// start in member-bound order across leaves, and the descent only orders
// and prunes against the step's limit. ctl (may be nil) injects
// cancellation — polled between queue pops here and per DP row inside
// the kernel — and the query-wide evaluation budget; an exhausted budget
// stops the search and marks the answer truncated.
//
// The work counters. LowerBoundCalls counts the bounds that admit a
// candidate to the queue or cut it: the node bounds of internal children
// and the bounding-box screens of leaf members. NodesPruned counts the
// candidates those bounds cut, plus the entries, nodes and members, still
// queued when the limit stopped the descent. NodesVisited counts the
// nodes expanded, the root included. DistanceCalls counts the members
// taken off the queue for the verify step: one its box-sequence screen
// rejects is also an EarlyAbandon and a ScreenReject, as the abandoned
// evaluation it replaces, so DistanceCalls − ScreenRejects is the number
// of kernel starts. A member cut at its bounding box is a bound prune, as
// the leaf bound it replaces was, and draws nothing from the evaluation
// budget.
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
	cands := queuePool.Get().(*binHeap[entry])
	defer func() {
		cands.items = cands.items[:0]
		queuePool.Put(cands)
	}()

	// screened marks the verify step's evaluation of a member a screen
	// has rejected: the screen proves the bounded kernel would abandon
	// it, so the step counts the abandoned evaluation it replaces and the
	// member is counted once more as a screen reject, so kernel starts
	// can be told apart.
	screened := false
	v := backend.NewVerifier(k, bound, ctl, &st, func(tr *traj.Trajectory, limit float64) (float64, bool) {
		if screened {
			st.ScreenRejects++
			return math.Inf(1), true
		}
		if sub {
			return core.SubDistanceBoundedCancel(q, tr, limit, ctl.CancelFlag())
		}
		return t.distBounded(q, tr, limit, ctl.CancelFlag())
	})
	// queueLeaf bounds every member of leaf n by its bounding-box screen,
	// read from the slab, and queues the survivors at that tier.
	queueLeaf := func(n *node) {
		for i := range n.members {
			rec := n.slab[slabStride*i : slabStride*(i+1)]
			den := t.denom(sub, qLen, rec[4])
			lim := memberLimit(v.Limit(), den)
			st.LowerBoundCalls++
			raw := memberScreen(scr, sub, rec[:4], rec[4:], lim)
			if raw > lim {
				st.NodesPruned++
				continue
			}
			cands.push(entry{n: n, i: int32(i), raw: raw}, priority(raw, den))
		}
	}

	cands.push(entry{n: t.root, i: -1}, 0)
	for cands.len() > 0 {
		if ctl.Cancelled() {
			// Cancellation poll between queue pops. Any in-flight kernel
			// call the flag interrupted mis-reported its candidate as
			// abandoned, so Results discards the whole answer.
			break
		}
		it := cands.pop()
		e := it.Value
		if e.i < 0 {
			if it.Priority > v.Limit() {
				// The queue is ordered by lower bound: nothing left can
				// enter the answer. The prune is strict, as ScanKNN's — a
				// subtree whose bound ties the limit exactly may still hold
				// a member that enters on the ID tie-break.
				st.NodesPruned += 1 + cands.len()
				break
			}
			st.NodesVisited++
			if e.n.leaf() {
				queueLeaf(e.n) // only the root is ever queued as a leaf
				continue
			}
			// Alg. 2 lines 11–13: queue the surviving children at their
			// lower bounds. The screens early-exit against the current
			// limit; surviving bounds are exact, so the queue order — and
			// with it the result stream — is identical to the unbounded
			// search.
			for _, child := range e.n.children {
				if child.leaf() {
					queueLeaf(child)
					continue
				}
				st.LowerBoundCalls++
				limit := v.Limit()
				lb := nodeBound(scr, t.denom(sub, qLen, child.maxLen), child, limit)
				if lb > limit {
					st.NodesPruned++
					continue
				}
				cands.push(entry{n: child, i: -1}, lb)
			}
			continue
		}
		m := e.n.members[e.i]
		den := t.denom(sub, qLen, e.n.slab[slabStride*int(e.i)+4])
		lim := memberLimit(v.Limit(), den)
		if e.raw > lim {
			// The member screen's own test, slack included, so a member
			// whose screen ties the limit within rounding still reaches
			// the kernel and its ID tie-break; every entry left is queued
			// at or above this one.
			st.NodesPruned += 1 + cands.len()
			break
		}
		if !e.refined {
			s := m.Summary()
			raw := memberScreen(scr, sub, s.Boxes, s.BoxLens, lim)
			if raw > lim {
				screened = true
				ok := v.Verify(m)
				screened = false
				if !ok {
					break
				}
				continue
			}
			e.raw, e.refined = max(e.raw, raw), true
			cands.push(e, priority(e.raw, den))
			continue
		}
		if !v.Verify(m) {
			break
		}
	}
	res, truncated, err := v.Results()
	return res, st, truncated, err
}

// priority is a member screen's queue key: raw in the domain of the query
// distance. A member whose divisor is not positive is queued at 0.
func priority(raw, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return raw / den
}
