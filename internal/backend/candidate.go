package backend

import "trajmatch/internal/traj"

// CandidateSearcher is the capability a Backend implements to opt into
// prefiltered search: exact k-NN restricted to an externally supplied
// candidate set. ids must be sorted ascending; IDs not present in the
// backend are skipped silently (the prefilter and the backend may
// observe a mutation at slightly different instants — verification by
// presence makes that harmless). The search contract (bound, ctl,
// determinism, truncation, error returns) is identical to
// Backend.SearchKNN. Backends without the capability are answered with
// ErrNotSupported by the engine.
type CandidateSearcher interface {
	SearchKNNIn(q *traj.Trajectory, ids []int, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error)
}
