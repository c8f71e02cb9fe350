package baseline

import (
	"math"

	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// DTW is Dynamic Time Warping (Yi, Jagadish, Faloutsos; ICDE 1998) over the
// sampled points with Euclidean ground distance and unconstrained warping
// window. It handles local time shifts through many-to-one point mappings
// but, as Section II argues, remains tied to the sampled points.
type DTW struct{}

// Name implements Metric.
func (DTW) Name() string { return "DTW" }

// Dist implements Metric: DistEarlyAbandonCancel with no limit. Cost is
// O(n·m) time, O(m) space.
func (d DTW) Dist(a, b *traj.Trajectory) float64 {
	v, _ := d.DistEarlyAbandonCancel(a, b, math.Inf(1), nil)
	return v
}

// DistEarlyAbandonCancel is DTW abandoned as soon as a whole row exceeds
// limit (+Inf disables), the kernel the DTW index serves. Costs only
// accumulate, so an abandoned value is a lower bound > limit; a distance
// tying the limit is computed in full. cancel (may be nil) is polled once
// per row and abandons at once; the caller discards the answer. One empty
// side is at +Inf, as under EDwP, since no warping path can match every
// point; validated trajectories never have one.
func (DTW) DistEarlyAbandonCancel(a, b *traj.Trajectory, limit float64, cancel *core.Cancel) (float64, bool) {
	P, Q := a.Points, b.Points
	n, m := len(P), len(Q)
	if n == 0 || m == 0 {
		if n == m {
			return 0, false
		}
		return math.Inf(1), false
	}
	prev := make([]float64, m)
	cur := make([]float64, m)
	for i := 0; i < n; i++ {
		if cancel.Cancelled() {
			return 0, true
		}
		rowMin := math.Inf(1)
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
			rowMin = min(rowMin, cur[j])
		}
		if rowMin > limit {
			return rowMin, true
		}
		prev, cur = cur, prev
	}
	return prev[m-1], false
}
