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
	"trajmatch/internal/core"
	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// MetricName is the backend identifier of this index.
const MetricName = "dtw"

// Index is the DTW index: a flat index over lowerBound and dtwDist.
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
		func(q, t *traj.Trajectory, limit float64, cancel *core.Cancel) (float64, bool) {
			return dtwDist(q.Points, t.Points, limit, cancel)
		})
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

// dtwDist computes DTW with Euclidean ground distance, abandoning as soon
// as a whole row exceeds limit (+Inf disables). DTW costs only
// accumulate, so the abandoned value is itself a valid lower bound
// > limit; the abandon test is strict, so a distance tying the limit
// exactly is still computed in full. cancel (may be nil) is polled once
// per DP row; a fired flag abandons immediately — the caller discards the
// poisoned answer through its Ctl's error.
func dtwDist(P, Q []traj.Point, limit float64, cancel *core.Cancel) (float64, bool) {
	n, m := len(P), len(Q)
	if n == 0 || m == 0 {
		if n == m {
			return 0, false
		}
		return 1e308, false // the no-alignment sentinel, exact as before
	}
	inf := 1e308
	prev := make([]float64, m)
	cur := make([]float64, m)
	for i := 0; i < n; i++ {
		if cancel.Cancelled() {
			return 0, true
		}
		rowMin := inf
		for j := 0; j < m; j++ {
			d := P[i].Dist(Q[j])
			switch {
			case i == 0 && j == 0:
				cur[j] = d
			case i == 0:
				cur[j] = cur[j-1] + d
			case j == 0:
				cur[j] = prev[j] + d
			default:
				best := prev[j-1]
				if prev[j] < best {
					best = prev[j]
				}
				if cur[j-1] < best {
					best = cur[j-1]
				}
				cur[j] = best + d
			}
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > limit {
			return rowMin, true
		}
		prev, cur = cur, prev
	}
	return prev[m-1], false
}
