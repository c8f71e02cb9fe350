package trajtree

import (
	"context"

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

// SearchKNN is the context-aware k-nearest-neighbour entry point, the
// search every legacy KNN variant is now a wrapper over. bound may be nil
// (self-contained search), seeded with a finite admissible limit
// (KNNWithBound semantics), or shared across concurrent searches of
// disjoint trees (KNNShared semantics — each search publishes its local
// k-th best through it). ctl may be nil for an uncancellable, unbudgeted
// search.
//
// The third return reports truncation: the Ctl's evaluation budget ran
// out and the answer holds only the neighbours confirmed so far — a
// best-effort, no longer exact, result. A non-nil error is ctl's context
// error; the other returns are then meaningless and must be discarded
// (a cancelled kernel call deliberately poisons in-flight candidate
// evaluations).
func (t *Tree) SearchKNN(q *traj.Trajectory, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	return t.knnSearch(q, k, false, bound, ctl)
}

// SearchRange is the context-aware range query: every indexed trajectory
// within radius of q, sorted by (distance, ID). Truncation and error
// semantics match SearchKNN.
func (t *Tree) SearchRange(q *traj.Trajectory, radius float64, ctl *Ctl) ([]Result, Stats, bool, error) {
	return t.rangeSeeded(q, radius, ctl)
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
