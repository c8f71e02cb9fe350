package trajtree

import (
	"context"
	"math"

	"trajmatch/internal/backend"
	"trajmatch/internal/traj"
)

// Ctl carries the cooperative controls of one logical query through the
// search stack — the shared backend.Ctl (cancellation flag + evaluation
// budget). The search loops here poll Cancelled between candidate pops
// and hand the underlying core.Cancel to the EDwP kernel, which polls it
// once per DP row — a fired context therefore aborts a query within one
// DP row of work, even mid-evaluation. A nil *Ctl is valid everywhere
// and means "no deadline, no budget".
type Ctl = backend.Ctl

// NewCtl arms a Ctl on ctx with an optional cap on exact distance
// evaluations (maxEvals <= 0 means unlimited). Callers must Release the
// Ctl when the query finishes to detach the context watcher.
func NewCtl(ctx context.Context, maxEvals int) *Ctl { return backend.NewCtl(ctx, maxEvals) }

// SearchKNN returns the exact k nearest trajectories to q under EDwPavg
// (or cumulative EDwP when Options.Cumulative is set), sorted by
// (distance, ID) — an exact tie at the k-th distance is decided by ID —
// together with query statistics. It implements Algorithm 2:
// best-first traversal from an empty answer set, ordered by the tBoxSeq
// lower bounds of internal nodes and the screens of leaf members, which
// share one queue. Every exact evaluation passes the current k-th best
// distance to the bounded kernel, which abandons the dynamic program as
// soon as the candidate provably cannot enter the answer set
// (Stats.EarlyAbandons counts those); the answer is that of the
// unbounded search.
//
// bound may be nil (a self-contained search), or carry an external upper
// bound: candidates whose distance exceeds it are pruned from the very
// first evaluation and subtrees whose lower bound exceeds it are never
// opened, so the results hold only distances ≤ the bound (possibly
// fewer than k). Its limit must be admissible — a known upper bound on
// the global k-th best, for example one already found in another shard
// of a partitioned corpus — or true neighbours can be cut off. A bound
// shared across concurrent searches of disjoint trees is also tightened
// by each search the moment its answer set fills, so a close neighbour
// found in one shard abandons DP work in every other; the union of the
// per-shard results is a superset of the global k-NN set (see
// SharedBound), which callers merge by (distance, ID) cut at k. ctl may
// be nil for an uncancellable, unbudgeted search.
//
// The third return reports truncation: the Ctl's evaluation budget ran
// out and the answer holds only the neighbours confirmed so far — a
// best-effort, no longer exact, result. A non-nil error is ctl's context
// error; the other returns are then meaningless and must be discarded
// (a cancelled kernel call deliberately poisons in-flight candidate
// evaluations).
//
// SearchKNN is safe for concurrent use provided no Insert/Delete/Rebuild
// runs.
func (t *Tree) SearchKNN(q *traj.Trajectory, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	return t.knnSearch(q, k, false, bound, ctl)
}

// SearchRange returns every indexed trajectory within radius of q under
// the tree's distance, sorted by (distance, ID): the k-NN descent with no
// cap on k, its shared bound seeded at the radius. The answer set never
// fills, so the limit the descent prunes subtrees and abandons members
// against stays at the radius. This is the similarity counterpart of
// the interval queries TB-tree and SETI answer (Section VI). Truncation
// and error semantics match SearchKNN.
func (t *Tree) SearchRange(q *traj.Trajectory, radius float64, ctl *Ctl) ([]Result, Stats, bool, error) {
	return t.knnSearch(q, math.MaxInt, false, backend.NewSharedBound(radius), ctl)
}

// SearchSub answers sub-trajectory k-NN under EDwPsub (Eq. 6): the k
// indexed trajectories containing the contiguous sub-trajectory that
// best matches the whole of q. It is SearchKNN's descent ranking by
// EDwPsub: the query side of the screen never uses that an alignment
// consumes the member in full, so it bounds EDwPsub at nodes and members
// alike (the member side does not, and is left out). EDwPsub is
// inherently cumulative; the Cumulative option does not apply.
//
// Truncation and error semantics match SearchKNN.
func (t *Tree) SearchSub(q *traj.Trajectory, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	return t.knnSearch(q, k, true, bound, ctl)
}
