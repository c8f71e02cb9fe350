package core

import (
	"math"

	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// UniformDistance is the ablation counterpart of Distance:
// the same dynamic program with the Coverage factor of Eq. 3 removed, so
// every edit contributes its raw rep(·,·) cost regardless of how much of
// the trajectories it explains. Section V-C credits Coverage with the
// intra-trajectory robustness (densely sampled regions must not dominate);
// comparing rank robustness between Distance and UniformDistance isolates
// that design choice.
func UniformDistance(t1, t2 *traj.Trajectory) float64 {
	P, Q := t1.Points, t2.Points
	n, m := len(P), len(Q)
	if n <= 1 && m <= 1 {
		return 0
	}
	if n <= 1 || m <= 1 {
		return math.Inf(1)
	}
	px := make([]geom.Point, n)
	for i, p := range P {
		px[i] = p.XY()
	}
	qx := make([]geom.Point, m)
	for j, p := range Q {
		qx[j] = p.XY()
	}
	inf := math.Inf(1)
	cur := make([]float64, m*nL)
	next := make([]float64, m*nL)
	for k := range cur {
		cur[k] = inf
		next[k] = inf
	}
	cur[0*nL+lS] = 0
	best := inf
	for i := 0; i < n; i++ {
		last1 := i == n-1
		var e1 geom.Segment
		if !last1 {
			e1 = geom.Segment{A: px[i], B: px[i+1]}
		}
		for j := 0; j < m; j++ {
			base := j * nL
			last2 := j == m-1
			var e2 geom.Segment
			if !last2 {
				e2 = geom.Segment{A: qx[j], B: qx[j+1]}
			}
			for layer := 0; layer < lStop; layer++ {
				c := cur[base+layer]
				if c == inf {
					continue
				}
				h1, h2 := px[i], qx[j]
				switch layer {
				case lI1:
					if !last1 {
						h1 = e1.Closest(qx[j])
					}
				case lI2:
					if !last2 {
						h2 = e2.Closest(px[i])
					}
				}
				if last1 && last2 && c < best {
					best = c
				}
				if !last1 && !last2 {
					cost := c + h1.Dist(h2) + px[i+1].Dist(qx[j+1])
					if idx := base + nL + lS; cost < next[idx] {
						next[idx] = cost
					}
				}
				if !last2 {
					p := px[i]
					if !last1 {
						p = e1.Closest(qx[j+1])
					}
					cost := c + h1.Dist(h2) + p.Dist(qx[j+1])
					if idx := base + nL + lI1; cost < cur[idx] {
						cur[idx] = cost
					}
				}
				if !last1 {
					q := qx[j]
					if !last2 {
						q = e2.Closest(px[i+1])
					}
					cost := c + h1.Dist(h2) + px[i+1].Dist(q)
					if idx := base + lI2; cost < next[idx] {
						next[idx] = cost
					}
				}
			}
		}
		cur, next = next, cur
		for k := range next {
			next[k] = inf
		}
	}
	return best
}
