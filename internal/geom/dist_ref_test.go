package geom

import (
	"math"
	"math/rand"
	"testing"
)

// distToSegmentRef is the pre-arena DistToSegment, kept verbatim as the
// bit-identity oracle for the closure-free rewrite.
func distToSegmentRef(r Rect, s Segment) float64 {
	if r.Contains(s.A) || r.Contains(s.B) {
		return 0
	}
	if r.IsEmpty() {
		return math.Inf(1)
	}
	var ts [10]float64
	n := 0
	ts[n] = 0
	n++
	ts[n] = 1
	n++
	addCrossing := func(a, b, bound float64) {
		if d := b - a; d != 0 {
			if t := (bound - a) / d; t > 0 && t < 1 {
				ts[n] = t
				n++
			}
		}
	}
	addCrossing(s.A.X, s.B.X, r.Min.X)
	addCrossing(s.A.X, s.B.X, r.Max.X)
	addCrossing(s.A.Y, s.B.Y, r.Min.Y)
	addCrossing(s.A.Y, s.B.Y, r.Max.Y)
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y
	gap := func(a, d, lo, hi, tm float64) (float64, float64) {
		c := a + d*tm
		switch {
		case c < lo:
			return -d, lo - a
		case c > hi:
			return d, a - hi
		default:
			return 0, 0
		}
	}
	best := math.Inf(1)
	eval := func(t, ax, bx, ay, by float64) {
		gx := ax*t + bx
		gy := ay*t + by
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
	for i := 0; i+1 < n; i++ {
		t1, t2 := ts[i], ts[i+1]
		tm := (t1 + t2) / 2
		ax, bx := gap(s.A.X, dx, r.Min.X, r.Max.X, tm)
		ay, by := gap(s.A.Y, dy, r.Min.Y, r.Max.Y, tm)
		eval(t1, ax, bx, ay, by)
		eval(t2, ax, bx, ay, by)
		if den := ax*ax + ay*ay; den > 0 {
			if tv := -(ax*bx + ay*by) / den; tv > t1 && tv < t2 {
				eval(tv, ax, bx, ay, by)
			}
		}
	}
	return math.Sqrt(best)
}

// TestDistToSegmentMatchesReference drives the rewritten DistToSegment
// against the verbatim original over random rect/segment pairs, including
// degenerate segments, axis-aligned segments and rects sharing coordinates
// with segment endpoints, requiring bit-identical results.
func TestDistToSegmentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	coord := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return float64(rng.Intn(11)) - 5 // grid values: exact collisions
		default:
			return rng.NormFloat64() * 10
		}
	}
	for iter := 0; iter < 200000; iter++ {
		a := Point{X: coord(), Y: coord()}
		b := Point{X: coord(), Y: coord()}
		switch rng.Intn(8) {
		case 0:
			b = a // degenerate segment
		case 1:
			b.X = a.X // vertical
		case 2:
			b.Y = a.Y // horizontal
		}
		r := Empty().ExtendPoint(Point{X: coord(), Y: coord()}).ExtendPoint(Point{X: coord(), Y: coord()})
		s := Seg(a, b)
		got := r.DistToSegment(s)
		want := distToSegmentRef(r, s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: r=%+v s=%+v got %v (%x) want %v (%x)",
				iter, r, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Empty rect.
	if got, want := Empty().DistToSegment(Seg(Point{}, Point{X: 1})), distToSegmentRef(Empty(), Seg(Point{}, Point{X: 1})); got != want {
		t.Fatalf("empty rect: got %v want %v", got, want)
	}
}

// The segment-segment predicates below are the edge method's oracle:
// TestDistToSegmentMatchesEdgeMethod checks the analytic DistToSegment
// against four segment-segment distances, and TestClosestIsArgmin samples
// segments with At. No production path needs them.

// At returns the point a fraction t along s.
func (s Segment) At(t float64) Point { return Lerp(s.A, s.B, t) }

// orient returns the sign of the cross product (b-a)×(c-a):
// +1 counter-clockwise, -1 clockwise, 0 collinear.
func orient(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// onSegment reports whether collinear point p lies on segment s.
func onSegment(s Segment, p Point) bool {
	return math.Min(s.A.X, s.B.X) <= p.X && p.X <= math.Max(s.A.X, s.B.X) &&
		math.Min(s.A.Y, s.B.Y) <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)
}

// SegmentsIntersect reports whether segments s1 and s2 share at least one
// point, endpoints included.
func SegmentsIntersect(s1, s2 Segment) bool {
	d1 := orient(s2.A, s2.B, s1.A)
	d2 := orient(s2.A, s2.B, s1.B)
	d3 := orient(s1.A, s1.B, s2.A)
	d4 := orient(s1.A, s1.B, s2.B)
	if d1*d2 < 0 && d3*d4 < 0 {
		return true
	}
	switch {
	case d1 == 0 && onSegment(s2, s1.A):
		return true
	case d2 == 0 && onSegment(s2, s1.B):
		return true
	case d3 == 0 && onSegment(s1, s2.A):
		return true
	case d4 == 0 && onSegment(s1, s2.B):
		return true
	}
	return false
}

// SegmentDist returns the minimum distance between two segments
// (0 if they intersect).
func SegmentDist(s1, s2 Segment) float64 {
	if SegmentsIntersect(s1, s2) {
		return 0
	}
	d := s1.DistTo(s2.A)
	if v := s1.DistTo(s2.B); v < d {
		d = v
	}
	if v := s2.DistTo(s1.A); v < d {
		d = v
	}
	if v := s2.DistTo(s1.B); v < d {
		d = v
	}
	return d
}
