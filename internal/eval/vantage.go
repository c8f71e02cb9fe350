package eval

import (
	"math"
	"math/rand"
	"sort"

	"trajmatch/internal/baseline"
	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// The vantage-point machinery of Section IV-E, kept for the UB-Factor
// experiments of Figs. 6(c)–(d) only: the served index does not use it.
// A vantage point (VP) is a spatial point; a trajectory's vantage
// descriptor collects its minimum distance to every VP (Definitions 6–7),
// and the vantage distance VD (Definition 8, Eq. 13) compares descriptors
// in linear time. Ranking a database by VD and taking the exact distance
// of the top k gives the upper bound of Eq. 14.

// vpDist returns VP-dist(T, v) of Definition 6: the distance from v to
// the closest point of T's polyline — not necessarily a sampled point.
func vpDist(t *traj.Trajectory, v geom.Point) float64 {
	if t.NumSegments() == 0 {
		if t.NumPoints() == 1 {
			return t.Points[0].XY().Dist(v)
		}
		return math.Inf(1)
	}
	best := math.Inf(1)
	for i := 0; i < t.NumSegments(); i++ {
		if d2 := v.Dist2(t.Segment(i).Spatial().Closest(v)); d2 < best {
			best = d2
		}
	}
	return math.Sqrt(best)
}

// appendDescriptor appends the vantage descriptor T_V of Definition 7 —
// one VP-dist per vantage point — to dst and returns the extended slice.
func appendDescriptor(dst []float64, t *traj.Trajectory, vps []geom.Point) []float64 {
	for _, v := range vps {
		dst = append(dst, vpDist(t, v))
	}
	return dst
}

// vd returns the vantage distance of Eq. 13 between two descriptors: the
// mean over dimensions of 1 − min/max of the two VP-dists. Dimensions
// where both distances are zero contribute 0 (the trajectories touch the
// VP alike); a zero against a non-zero contributes the maximal 1.
func vd(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for i, x := range a {
		lo, hi := min(x, b[i]), max(x, b[i])
		switch {
		case hi == 0:
			// both zero: identical view from this VP
		case math.IsInf(hi, 1):
			sum++
		default:
			sum += 1 - lo/hi
		}
	}
	return sum / float64(len(a))
}

// selectVPs picks n vantage points for a set of trajectories using the
// same greedy max-min diversification the paper uses for pivots:
// candidates are the trajectories' sampled points; the first is random
// and each subsequent VP maximises its distance to the already chosen
// ones.
func selectVPs(ts []*traj.Trajectory, n int, rng *rand.Rand) []geom.Point {
	if n <= 0 || len(ts) == 0 {
		return nil
	}
	// Candidate pool: cap for cost, sampled evenly across trajectories.
	const maxCandidates = 2048
	var cands []geom.Point
	total := 0
	for _, t := range ts {
		total += t.NumPoints()
	}
	stride := total/maxCandidates + 1
	k := 0
	for _, t := range ts {
		for _, p := range t.Points {
			if k%stride == 0 {
				cands = append(cands, p.XY())
			}
			k++
		}
	}
	if n >= len(cands) {
		return cands
	}

	out := make([]geom.Point, 0, n)
	out = append(out, cands[rng.Intn(len(cands))])
	// minDist[i] = distance from candidate i to the nearest chosen VP.
	minDist := make([]float64, len(cands))
	for i, c := range cands {
		minDist[i] = c.Dist(out[0])
	}
	for len(out) < n {
		bestI, bestD := -1, -1.0
		for i, d := range minDist {
			if d > bestD {
				bestD, bestI = d, i
			}
		}
		if bestD <= 0 {
			break // all remaining candidates coincide with chosen VPs
		}
		v := cands[bestI]
		out = append(out, v)
		for i, c := range cands {
			if d := c.Dist(v); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return out
}

// vpTable is a database's vantage points and the descriptor of every row.
type vpTable struct {
	vps   []geom.Point
	descs [][]float64
}

// newVPTable selects n vantage points over db and describes every row.
func newVPTable(db []*traj.Trajectory, n int, rng *rand.Rand) vpTable {
	tab := vpTable{vps: selectVPs(db, n, rng), descs: make([][]float64, len(db))}
	for i, t := range db {
		tab.descs[i] = appendDescriptor(nil, t, tab.vps)
	}
	return tab
}

// upperBound is the VP-based upper bound of Eq. 14: the largest exact
// distance under m among the k rows of db closest to q by VD (ties broken
// by row), so never below the exact k-th nearest distance.
func (tab vpTable) upperBound(db []*traj.Trajectory, m baseline.Metric, q *traj.Trajectory, k int) float64 {
	qd := appendDescriptor(nil, q, tab.vps)
	vds := make([]float64, len(db))
	rows := make([]int, len(db))
	for i := range db {
		vds[i], rows[i] = vd(qd, tab.descs[i]), i
	}
	sort.SliceStable(rows, func(a, b int) bool { return vds[rows[a]] < vds[rows[b]] })
	ub := 0.0
	for _, i := range rows[:min(k, len(rows))] {
		if d := m.Dist(q, db[i]); d > ub {
			ub = d
		}
	}
	return ub
}
