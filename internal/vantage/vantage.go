// Package vantage implements the vantage-point machinery of Section IV-E:
// Lipschitz-style feature descriptors that give TrajTree its tight upper
// bounds. A vantage point (VP) is a spatial point; a trajectory's vantage
// descriptor collects its minimum distance to every VP (Definitions 6–7),
// and the vantage distance VD (Definition 8, Eq. 13) compares descriptors
// in linear time, orders of magnitude faster than EDwP.
package vantage

import (
	"math"
	"math/rand"

	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// Dist returns VP-dist(T, v) of Definition 6: the distance from v to the
// closest point of T's polyline — not necessarily a sampled point.
func Dist(t *traj.Trajectory, v geom.Point) float64 {
	if t.NumSegments() == 0 {
		if t.NumPoints() == 1 {
			return t.Points[0].XY().Dist(v)
		}
		return math.Inf(1)
	}
	// The minimum is taken over squared distances and rooted once: the
	// square root is monotone and correctly rounded, so this is the
	// minimum of the rooted distances bit for bit.
	best := math.Inf(1)
	for i := 0; i < t.NumSegments(); i++ {
		if d2 := v.Dist2(t.Segment(i).Spatial().Closest(v)); d2 < best {
			best = d2
		}
	}
	return math.Sqrt(best)
}

// AppendDescriptor appends the vantage descriptor T_V of Definition 7 —
// one VP-dist per vantage point — to dst and returns the extended slice,
// so a node's descriptor table can be one row-major slab.
func AppendDescriptor(dst []float64, t *traj.Trajectory, vps []geom.Point) []float64 {
	for _, v := range vps {
		dst = append(dst, Dist(t, v))
	}
	return dst
}

// VD returns the vantage distance of Eq. 13 between two descriptors:
// the mean over dimensions of 1 − min/max of the two VP-dists. Dimensions
// where both distances are zero contribute 0 (the trajectories touch the VP
// alike); a zero against a non-zero contributes the maximal 1.
func VD(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.Inf(1)
	}
	return vdSum(a, b, math.Inf(1)) / float64(len(a))
}

// vdSum accumulates Eq. 13's per-dimension terms of two equally long
// descriptors in index order and returns as soon as the running sum
// exceeds limit. Every term lies in [0, 1], so a prefix sum is a lower
// bound of the full one: a return above limit means the full sum is above
// limit too, any other return is the full sum.
func vdSum(a, b []float64, limit float64) float64 {
	var sum float64
	b = b[:len(a)]
	for i, x := range a {
		// The builtins compile without a branch; which of the two VP-dists
		// is larger is a coin flip the predictor loses.
		lo, hi := min(x, b[i]), max(x, b[i])
		switch {
		case hi == 0:
			// both zero: identical view from this VP
		case math.IsInf(hi, 1):
			sum++
		default:
			sum += 1 - lo/hi
		}
		if sum > limit {
			break
		}
	}
	return sum
}

// Select picks n vantage points for a set of trajectories using the same
// greedy max-min diversification the paper uses for pivots: candidates are
// the trajectories' sampled points; the first is random and each subsequent
// VP maximises its distance to the already chosen ones.
func Select(ts []*traj.Trajectory, n int, rng *rand.Rand) []geom.Point {
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
	if total == 0 {
		return nil
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
		out := make([]geom.Point, len(cands))
		copy(out, cands)
		return out
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

// Scratch holds the buffers of one query's vantage passes — the query's
// descriptor at the current node and the selection state of TopK — so a
// warm pass allocates nothing. The zero value is ready to use; a Scratch
// serves one goroutine at a time.
type Scratch struct {
	q   []float64 // descriptor of the query under the current node's VPs
	vd  []float64 // the best vantage distances found so far, ascending
	idx []int     // their row indices, parallel to vd
}

// Descriptor is AppendDescriptor into the scratch; the result is valid
// until the next call.
func (s *Scratch) Descriptor(t *traj.Trajectory, vps []geom.Point) []float64 {
	s.q = AppendDescriptor(s.q[:0], t, vps)
	return s.q
}

// TopK returns the indices of the k rows of descs closest to q under VD,
// closest first, skipping rows for which skip returns true; ties break by
// index. descs is a row-major table of len(q) values per row. The result
// aliases the scratch and is valid until the next call.
//
// It is a selection, not a sort: the k best (VD, index) pairs seen so far
// sit in an ordered buffer whose last entry is the threshold a later row
// must beat. Rows arrive in index order, so a later row that merely equals
// the threshold loses the tie-break and is dropped; a row whose partial
// sum has passed threshold × len(q) is abandoned mid-row, because the
// rounded quotient of a larger sum cannot fall below the threshold; and
// skip is asked only about rows that would enter the buffer. The answer is
// the one a full sort by (VD, index) of the unskipped rows would give.
func (s *Scratch) TopK(q, descs []float64, k int, skip func(i int) bool) []int {
	s.vd, s.idx = s.vd[:0], s.idx[:0]
	dims := len(q)
	if dims == 0 || k <= 0 {
		return s.idx
	}
	n := float64(dims)
	limit := math.Inf(1) // threshold × dims once k rows are held
	for i, off := 0, 0; off+dims <= len(descs); i, off = i+1, off+dims {
		sum := vdSum(q, descs[off:off+dims], limit)
		if sum > limit {
			continue
		}
		d := sum / n
		full := len(s.vd) == k
		if full && d >= s.vd[k-1] {
			continue
		}
		if skip != nil && skip(i) {
			continue
		}
		if !full {
			s.vd, s.idx = append(s.vd, d), append(s.idx, i)
		}
		j := len(s.vd) - 1
		for ; j > 0 && s.vd[j-1] > d; j-- {
			s.vd[j], s.idx[j] = s.vd[j-1], s.idx[j-1]
		}
		s.vd[j], s.idx[j] = d, i
		if len(s.vd) == k {
			limit = s.vd[k-1] * n
		}
	}
	return s.idx
}
