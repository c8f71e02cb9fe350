// Package geom provides the plane geometry primitives that the trajectory
// model, the EDwP distance and the TrajTree index are built on: 2-D points,
// line segments, closest-point projections and axis-aligned rectangles.
//
// All distances are Euclidean and purely spatial; timestamps live one level
// up, in package traj. Functions are allocation-free and safe for concurrent
// use (no shared state).
package geom

import "math"

// Point is a location in the 2-D plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q. It uses the plain
// sqrt form rather than math.Hypot: trajectory coordinates are far from the
// overflow regime and this is the hottest function in the repository.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparisons in hot loops.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q taken as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Lerp returns the point a fraction t of the way from p to q.
// t is not clamped; t=0 yields p and t=1 yields q.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Segment is a directed straight line segment from A to B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// ClosestFrac returns the parameter t in [0,1] such that Lerp(s.A, s.B, t)
// is the point on s closest to p. For a degenerate segment it returns 0.
func (s Segment) ClosestFrac(p Point) float64 {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// Closest returns the point on s closest to p — the paper's projection
// p^{ins(e, ·)} of a point onto a segment.
func (s Segment) Closest(p Point) Point {
	return Lerp(s.A, s.B, s.ClosestFrac(p))
}

// DistTo returns the minimum distance from point p to segment s.
func (s Segment) DistTo(p Point) float64 {
	return p.Dist(s.Closest(p))
}

// Rect is an axis-aligned rectangle. Min holds the smaller coordinates on
// both axes and Max the larger; an empty Rect is represented by the zero
// value of Empty().
type Rect struct {
	Min, Max Point
}

// Empty returns the canonical empty rectangle: any Union with it yields the
// other operand, and Contains is false for every point.
func Empty() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// RectOf returns the smallest rectangle containing all of pts.
func RectOf(pts ...Point) Rect {
	r := Empty()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	if r.IsEmpty() {
		return Rect{Min: p, Max: p}
	}
	return Rect{
		Min: Point{min(r.Min.X, p.X), min(r.Min.Y, p.Y)},
		Max: Point{max(r.Max.X, p.X), max(r.Max.Y, p.Y)},
	}
}

// Union returns the smallest rectangle containing both r and q.
func (r Rect) Union(q Rect) Rect {
	if r.IsEmpty() {
		return q
	}
	if q.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{min(r.Min.X, q.Min.X), min(r.Min.Y, q.Min.Y)},
		Max: Point{max(r.Max.X, q.Max.X), max(r.Max.Y, q.Max.Y)},
	}
}

// Area returns the area of r; an empty rectangle has area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ClosestPoint returns the point inside r closest to p (p itself when p is
// inside r). This realises the paper's dist(s, b) and the projection of a
// point onto an st-box.
func (r Rect) ClosestPoint(p Point) Point {
	x := math.Min(math.Max(p.X, r.Min.X), r.Max.X)
	y := math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y)
	return Point{x, y}
}

// DistToPoint returns min over points q in r of p.Dist(q); zero when p is
// inside r.
func (r Rect) DistToPoint(p Point) float64 {
	return p.Dist(r.ClosestPoint(p))
}

// DistToSegment returns the minimum distance between segment s and any point
// of r — the paper's reverse projection distance of an st-box onto a
// segment. It is 0 whenever s intersects r.
//
// This is the hottest operation of the index's lower-bound computation, so
// it is evaluated analytically: squared distance from a point to an
// axis-aligned rectangle is convex and piecewise quadratic along the
// segment, with breakpoints only where a coordinate crosses a rectangle
// edge. The minimum over each piece is closed-form.
// between reports whether v lies strictly between a and b. It is the
// division-free necessary condition for an edge crossing in DistToSegment:
// when false, the crossing parameter cannot land in (0, 1), so the
// division there would never add a breakpoint.
func between(v, a, b float64) bool {
	return (a < v && v < b) || (b < v && v < a)
}

func (r Rect) DistToSegment(s Segment) float64 {
	if r.Contains(s.A) || r.Contains(s.B) {
		return 0
	}
	if r.IsEmpty() {
		return math.Inf(1)
	}
	// Breakpoints where x(t) or y(t) crosses an edge coordinate. The body
	// is closure-free — the hot bound DP calls this ~thousands of times per
	// query, and captured locals forced the breakpoint array onto a zeroed
	// stack frame (duffzero) with every call. Only the ≤4 interior edge
	// crossings are buffered; the fixed 0/1 endpoints are supplied by the
	// piece loop itself, keeping the buffer small enough for inline stack
	// zeroing. The between test in front of each crossing skips the
	// division whenever the edge coordinate falls outside the segment's
	// coordinate span; it never changes the breakpoint set (see the
	// equivalence test against distToSegmentRef).
	var cr [4]float64
	m := 0
	if between(r.Min.X, s.A.X, s.B.X) {
		if t := (r.Min.X - s.A.X) / (s.B.X - s.A.X); t > 0 && t < 1 {
			cr[m] = t
			m++
		}
	}
	if between(r.Max.X, s.A.X, s.B.X) {
		if t := (r.Max.X - s.A.X) / (s.B.X - s.A.X); t > 0 && t < 1 {
			cr[m] = t
			m++
		}
	}
	if between(r.Min.Y, s.A.Y, s.B.Y) {
		if t := (r.Min.Y - s.A.Y) / (s.B.Y - s.A.Y); t > 0 && t < 1 {
			cr[m] = t
			m++
		}
	}
	if between(r.Max.Y, s.A.Y, s.B.Y) {
		if t := (r.Max.Y - s.A.Y) / (s.B.Y - s.A.Y); t > 0 && t < 1 {
			cr[m] = t
			m++
		}
	}
	// Insertion sort of the ≤4 crossings; all lie strictly inside (0, 1),
	// so the piece boundaries below — 0, sorted crossings, 1 — are exactly
	// the sorted breakpoint list of the reference formulation.
	for i := 1; i < m; i++ {
		for j := i; j > 0 && cr[j] < cr[j-1]; j-- {
			cr[j], cr[j-1] = cr[j-1], cr[j]
		}
	}
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y
	best := math.Inf(1)
	t1 := 0.0
	for i := 0; i <= m; i++ {
		t2 := 1.0
		if i < m {
			t2 = cr[i]
		}
		tm := (t1 + t2) / 2
		// Affine coefficients (α, β) of each axis gap α·t+β on the regime
		// holding at parameter tm, such that gap ≥ 0 there.
		var ax, bx float64
		if c := s.A.X + dx*tm; c < r.Min.X {
			ax, bx = -dx, r.Min.X-s.A.X
		} else if c > r.Max.X {
			ax, bx = dx, s.A.X-r.Max.X
		}
		var ay, by float64
		if c := s.A.Y + dy*tm; c < r.Min.Y {
			ay, by = -dy, r.Min.Y-s.A.Y
		} else if c > r.Max.Y {
			ay, by = dy, s.A.Y-r.Max.Y
		}
		gx := ax*t1 + bx
		gy := ay*t1 + by
		if gx < 0 {
			gx = 0
		}
		if gy < 0 {
			gy = 0
		}
		if d2 := gx*gx + gy*gy; d2 < best {
			best = d2
		}
		gx = ax*t2 + bx
		gy = ay*t2 + by
		if gx < 0 {
			gx = 0
		}
		if gy < 0 {
			gy = 0
		}
		if d2 := gx*gx + gy*gy; d2 < best {
			best = d2
		}
		// Interior vertex of the quadratic (ax·t+bx)² + (ay·t+by)².
		if den := ax*ax + ay*ay; den > 0 {
			if tv := -(ax*bx + ay*by) / den; tv > t1 && tv < t2 {
				gx = ax*tv + bx
				gy = ay*tv + by
				if gx < 0 {
					gx = 0
				}
				if gy < 0 {
					gy = 0
				}
				if d2 := gx*gx + gy*gy; d2 < best {
					best = d2
				}
			}
		}
		t1 = t2
	}
	return math.Sqrt(best)
}
