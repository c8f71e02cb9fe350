package trajtree

import (
	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// MetricName is the backend identifier of the EDwP TrajTree: the default
// metric of the serving stack.
const MetricName = "edwp"

// The Tree is the reference backend.Backend implementation and the only
// fully capable one: searchable (whole-trajectory and sub-trajectory),
// mutable in place, and persistent through Save/Load.
var (
	_ backend.Backend      = (*Tree)(nil)
	_ backend.SubSearcher  = (*Tree)(nil)
	_ backend.Mutable      = (*Tree)(nil)
	_ backend.Distancer    = (*Tree)(nil)
	_ backend.SubDistancer = (*Tree)(nil)
)

// DistanceBetween evaluates the tree's query distance (cumulative or
// segment-averaged EDwP, per Options.Cumulative) between two
// trajectories under the bounded-kernel contract — the live-track scan
// evaluates unindexed tracks through it with the same semantics as an
// indexed search.
func (t *Tree) DistanceBetween(q, tr *traj.Trajectory, limit float64, ctl *backend.Ctl) (float64, bool) {
	return t.distBounded(q, tr, limit, ctl.CancelFlag())
}

// SubDistanceBetween evaluates EDwPsub (Eq. 6): q against the best
// contiguous sub-trajectory of tr, bounded.
func (t *Tree) SubDistanceBetween(q, tr *traj.Trajectory, limit float64, ctl *backend.Ctl) (float64, bool) {
	return core.SubDistanceBoundedCancel(q, tr, limit, ctl.CancelFlag())
}

// BackendSpec returns the buildable backend spec for EDwP over a
// TrajTree with the given options.
func BackendSpec(opt Options) backend.Spec {
	return backend.Spec{
		Name: MetricName,
		Build: func(db []*traj.Trajectory) (backend.Backend, error) {
			return New(db, opt)
		},
	}
}
