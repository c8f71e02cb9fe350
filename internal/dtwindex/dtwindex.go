// Package dtwindex answers exact k-NN queries under DTW, re-creating the
// lineage the paper's Related Work starts from ("initial efforts on
// indexing trajectory retrieval were primarily directed towards indexing
// DTW" — Yi et al. and Keogh's exact indexing). Envelope bounds do not
// transfer directly to unequal-length 2-D trajectories, so this index uses
// two admissible bounds that do:
//
//   - the corner bound (LB_Kim style): DTW always matches first with first
//     and last with last, so dist(q₁,t₁) + dist(qₙ,tₘ) never exceeds it;
//   - the MBR bound: every query point participates in at least one matched
//     pair, so Σᵢ dist(qᵢ, MBR(T)) never exceeds DTW(Q,T).
//
// Candidates are visited in bound order with an early-abandoning DTW whose
// row minima cut off once the running k-th best is exceeded.
//
// The Index is a backend.Flat over that bound and kernel, so the sharded
// engine of internal/server serves DTW through the same /v1 API as EDwP.
// It is a static index: no mutation, no persistence — the engine degrades
// those operations to not_implemented.
package dtwindex

import (
	"trajmatch/internal/backend"
	"trajmatch/internal/baseline"
	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// MetricName is the backend identifier of this index.
const MetricName = "dtw"

// Index is the DTW index: a flat index over lowerBound and the
// early-abandoning DTW of package baseline.
type Index = backend.Flat

// New builds the index, precomputing one MBR per trajectory.
func New(db []*traj.Trajectory) *Index {
	mbrs := make([]geom.Rect, len(db))
	for i, t := range db {
		mbrs[i] = t.Bounds()
	}
	return backend.NewFlat(db,
		func(q *traj.Trajectory) func(i int) float64 {
			return func(i int) float64 { return lowerBound(q, db[i], mbrs[i]) }
		},
		baseline.DTW{}.DistEarlyAbandonCancel)
}

// BackendSpec returns the buildable backend spec for DTW.
func BackendSpec() backend.Spec {
	return backend.Spec{
		Name: MetricName,
		Build: func(db []*traj.Trajectory) (backend.Backend, error) {
			return New(db), nil
		},
	}
}

// lowerBound returns max(corner bound, MBR bound) of q against t, whose
// bounding rectangle is mbr.
func lowerBound(q, t *traj.Trajectory, mbr geom.Rect) float64 {
	if q.NumPoints() == 0 || t.NumPoints() == 0 {
		return 0
	}
	corner := q.Points[0].Dist(t.Points[0]) +
		q.Points[len(q.Points)-1].Dist(t.Points[len(t.Points)-1])
	var sum float64
	for _, p := range q.Points {
		sum += mbr.DistToPoint(p.XY())
	}
	if sum > corner {
		return sum
	}
	return corner
}
