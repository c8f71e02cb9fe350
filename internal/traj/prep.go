package traj

import (
	"math"
	"sort"
)

// FromLatLon converts WGS-84 latitude/longitude samples into the planar
// metre coordinates the rest of the library expects, using the
// equirectangular projection about the dataset's mean latitude — accurate
// to well under a metre at city extents, which is all trajectory matching
// needs. Each input is (lat°, lon°, unix-seconds).
func FromLatLon(id int, samples [][3]float64) *Trajectory {
	if len(samples) == 0 {
		return New(id, nil)
	}
	const earthRadius = 6371000.0 // metres
	var meanLat float64
	for _, s := range samples {
		meanLat += s[0]
	}
	meanLat /= float64(len(samples))
	cos := math.Cos(meanLat * math.Pi / 180)
	pts := make([]Point, len(samples))
	for i, s := range samples {
		pts[i] = Point{
			X: s[1] * math.Pi / 180 * earthRadius * cos,
			Y: s[0] * math.Pi / 180 * earthRadius,
			T: s[2],
		}
	}
	return New(id, pts)
}

// SplitTrips partitions a raw point stream into trips following the paper's
// Beijing preprocessing (Section V-A): a new trip starts whenever the object
// is stationary for more than maxStationary seconds or the gap between
// consecutive samples exceeds maxGap seconds. Points must be time-ordered.
// Trips shorter than two points are dropped. IDs are assigned sequentially
// starting at firstID.
func SplitTrips(points []Point, maxGap, maxStationary float64, firstID int) []*Trajectory {
	var trips []*Trajectory
	var cur []Point
	flush := func() {
		if len(cur) >= 2 {
			pts := make([]Point, len(cur))
			copy(pts, cur)
			trips = append(trips, New(firstID+len(trips), pts))
		}
		cur = cur[:0]
	}
	var stationarySince = math.NaN()
	for i, p := range points {
		if i > 0 {
			prev := points[i-1]
			gap := p.T - prev.T
			if gap > maxGap {
				flush()
				stationarySince = math.NaN()
			} else if prev.Dist(p) == 0 {
				if math.IsNaN(stationarySince) {
					stationarySince = prev.T
				}
				if p.T-stationarySince > maxStationary {
					flush()
					stationarySince = math.NaN()
				}
			} else {
				stationarySince = math.NaN()
			}
		}
		cur = append(cur, p)
	}
	flush()
	return trips
}

// Resample returns a copy of t re-interpolated to a uniform spatial spacing:
// consecutive points are at most `spacing` apart along the original
// polyline, with original sample points preserved. This is the
// interpolation preprocessing the paper applies to produce EDR-I.
func Resample(t *Trajectory, spacing float64) *Trajectory {
	if spacing <= 0 || t.NumSegments() == 0 {
		return t.Clone()
	}
	pts := make([]Point, 0, t.NumPoints())
	pts = append(pts, t.Points[0])
	for i := 0; i < t.NumSegments(); i++ {
		seg := t.Segment(i)
		l := seg.Length()
		if l > spacing {
			n := int(math.Ceil(l / spacing))
			for k := 1; k < n; k++ {
				pts = append(pts, seg.At(float64(k)/float64(n)))
			}
		}
		pts = append(pts, seg.S2)
	}
	out := &Trajectory{ID: t.ID, Label: t.Label, Points: pts}
	return out
}

// ResampleUniform returns a copy of t re-sampled at uniform arc-length
// intervals measured from the trajectory's start: points sit at arc lengths
// 0, spacing, 2·spacing, …, plus the final endpoint. Unlike Resample, the
// output is independent of where the original samples fell, which is what
// the EDR-I preprocessing needs: two differently-sampled recordings of the
// same shape re-interpolate to (near-)identical point sequences.
func ResampleUniform(t *Trajectory, spacing float64) *Trajectory {
	if spacing <= 0 || t.NumSegments() == 0 {
		return t.Clone()
	}
	pts := []Point{t.Points[0]}
	target := spacing
	walked := 0.0
	for i := 0; i < t.NumSegments(); i++ {
		seg := t.Segment(i)
		l := seg.Length()
		for l > 0 && target <= walked+l {
			frac := (target - walked) / l
			pts = append(pts, seg.At(frac))
			target += spacing
		}
		walked += l
	}
	last := t.Points[t.NumPoints()-1]
	// Snap an interpolated point that lands (within float noise) on the
	// endpoint to the exact endpoint rather than duplicating it.
	if n := len(pts); pts[n-1].Dist(last) < 1e-9*(1+spacing) {
		pts[n-1] = last
	} else {
		pts = append(pts, last)
	}
	out := &Trajectory{ID: t.ID, Label: t.Label, Points: pts}
	return out
}

// ResampleUniformAll applies ResampleUniform to every trajectory.
func ResampleUniformAll(db []*Trajectory, spacing float64) []*Trajectory {
	out := make([]*Trajectory, len(db))
	for i, t := range db {
		out[i] = ResampleUniform(t, spacing)
	}
	return out
}

// MaxDensity returns the maximum sampling density (points per unit length)
// observed across db, i.e. the reciprocal of the minimum positive segment
// length. The paper's interpolation argument requires processing every
// trajectory to this density. Returns 0 for databases with no positive
// segments.
func MaxDensity(db []*Trajectory) float64 {
	min := math.Inf(1)
	for _, t := range db {
		for i := 0; i < t.NumSegments(); i++ {
			if l := t.Segment(i).Length(); l > 0 && l < min {
				min = l
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return 1 / min
}

// PercentileSegmentLength returns the p-th percentile (p in [0,1]) of
// positive segment lengths across the database. The paper's EDR-I
// preprocessing targets the maximum observed density, i.e. a spacing near
// the minimum segment length; a low percentile approximates that without
// letting one degenerate segment explode the dataset.
func PercentileSegmentLength(db []*Trajectory, p float64) float64 {
	var ls []float64
	for _, t := range db {
		for i := 0; i < t.NumSegments(); i++ {
			if l := t.Segment(i).Length(); l > 0 {
				ls = append(ls, l)
			}
		}
	}
	if len(ls) == 0 {
		return 0
	}
	sort.Float64s(ls)
	idx := int(p * float64(len(ls)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ls) {
		idx = len(ls) - 1
	}
	return ls[idx]
}

// MedianSegmentLength returns the median positive segment length across the
// database. The EDR-I harness uses it as the uniform re-interpolation
// spacing (using MaxDensity verbatim explodes the dataset, which is exactly
// the pre-processing cost the paper warns about; the median preserves the
// experiment at tractable cost).
func MedianSegmentLength(db []*Trajectory) float64 {
	var ls []float64
	for _, t := range db {
		for i := 0; i < t.NumSegments(); i++ {
			if l := t.Segment(i).Length(); l > 0 {
				ls = append(ls, l)
			}
		}
	}
	if len(ls) == 0 {
		return 0
	}
	sort.Float64s(ls)
	return ls[len(ls)/2]
}
