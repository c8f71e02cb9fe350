package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// clampCoord maps an arbitrary generated float into a well-behaved
// coordinate range so property tests exercise geometry, not float overflow.
func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2), Pt(1, 2), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative", Pt(-3, -4), Pt(0, 0), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almost(got, tt.want) {
				t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); !almost(got, tt.want*tt.want) {
				t.Errorf("Dist2(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		b := Pt(clampCoord(bx), clampCoord(by))
		return almost(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %v, want %v", got, b)
	}
	if got := Lerp(a, b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp t=0.5 = %v, want (5,10)", got)
	}
}

func TestSegmentClosest(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	tests := []struct {
		name string
		p    Point
		want Point
	}{
		{"above middle", Pt(5, 3), Pt(5, 0)},
		{"before start", Pt(-4, 2), Pt(0, 0)},
		{"after end", Pt(14, -2), Pt(10, 0)},
		{"on segment", Pt(7, 0), Pt(7, 0)},
		{"at endpoint", Pt(10, 0), Pt(10, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.Closest(tt.p); !almost(got.Dist(tt.want), 0) {
				t.Errorf("Closest(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestSegmentClosestDegenerate(t *testing.T) {
	s := Seg(Pt(3, 3), Pt(3, 3))
	if got := s.Closest(Pt(100, -7)); got != Pt(3, 3) {
		t.Errorf("Closest on degenerate = %v, want (3,3)", got)
	}
}

// The projection must be the true argmin: no other point on the segment may
// be closer. Property-checked over random segments and points.
func TestClosestIsArgmin(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64, frac float64) bool {
		s := Seg(Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by)))
		p := Pt(clampCoord(px), clampCoord(py))
		c := s.Closest(p)
		// Compare with 64 evenly spaced candidates.
		for i := 0; i <= 64; i++ {
			q := s.At(float64(i) / 64)
			if p.Dist(q) < p.Dist(c)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectOf(Pt(0, 0), Pt(4, 2))
	if got := r.Area(); !almost(got, 8) {
		t.Errorf("Area = %v, want 8", got)
	}
	if !r.Contains(Pt(2, 1)) {
		t.Error("Contains center = false")
	}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(4, 2)) {
		t.Error("Contains corners = false")
	}
	if r.Contains(Pt(5, 1)) {
		t.Error("Contains outside point = true")
	}
}

func TestEmptyRect(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() {
		t.Fatal("Empty().IsEmpty() = false")
	}
	if got := e.Area(); got != 0 {
		t.Errorf("empty Area = %v, want 0", got)
	}
	r := RectOf(Pt(1, 1))
	if got := e.Union(r); got != r {
		t.Errorf("Empty.Union(r) = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r.Union(Empty) = %v, want %v", got, r)
	}
	if e.Contains(Pt(0, 0)) {
		t.Error("empty Contains = true")
	}
}

func TestRectUnionCommutes(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r1 := RectOf(Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by)))
		r2 := RectOf(Pt(clampCoord(cx), clampCoord(cy)), Pt(clampCoord(dx), clampCoord(dy)))
		u1, u2 := r1.Union(r2), r2.Union(r1)
		return u1 == u2 && u1.Contains(r1.Min) && u1.Contains(r1.Max) &&
			u1.Contains(r2.Min) && u1.Contains(r2.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectClosestPoint(t *testing.T) {
	r := RectOf(Pt(0, 0), Pt(4, 2))
	tests := []struct {
		p, want Point
		d       float64
	}{
		{Pt(2, 1), Pt(2, 1), 0},                    // inside
		{Pt(-3, 1), Pt(0, 1), 3},                   // left
		{Pt(6, 1), Pt(4, 1), 2},                    // right
		{Pt(2, 5), Pt(2, 2), 3},                    // above
		{Pt(7, 6), Pt(4, 2), 5},                    // corner (3-4-5)
		{Pt(0, 0), Pt(0, 0), 0},                    // on boundary
		{Pt(-3, -4), Pt(0, 0), 5},                  // corner below-left
		{Pt(4.5, 2.5), Pt(4, 2), 0.5 * math.Sqrt2}, // near corner
	}
	for _, tt := range tests {
		if got := r.ClosestPoint(tt.p); !almost(got.Dist(tt.want), 0) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", tt.p, got, tt.want)
		}
		if got := r.DistToPoint(tt.p); !almost(got, tt.d) {
			t.Errorf("DistToPoint(%v) = %v, want %v", tt.p, got, tt.d)
		}
	}
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name   string
		s1, s2 Segment
		want   bool
	}{
		{"cross", Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)), true},
		{"parallel", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(0, 1), Pt(2, 1)), false},
		{"touch endpoint", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(2, 0), Pt(3, 5)), true},
		{"collinear overlap", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0), Pt(6, 0)), true},
		{"collinear disjoint", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(2, 0), Pt(3, 0)), false},
		{"T shape", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0), Pt(2, 3)), true},
		{"near miss", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0.01), Pt(2, 3)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentsIntersect(tt.s1, tt.s2); got != tt.want {
				t.Errorf("SegmentsIntersect = %v, want %v", got, tt.want)
			}
			if got := SegmentsIntersect(tt.s2, tt.s1); got != tt.want {
				t.Errorf("SegmentsIntersect (swapped) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentDist(t *testing.T) {
	tests := []struct {
		name   string
		s1, s2 Segment
		want   float64
	}{
		{"intersecting", Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)), 0},
		{"parallel", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(0, 3), Pt(2, 3)), 3},
		{"endpoint to interior", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 1), Pt(2, 5)), 1},
		{"skew", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(4, 4), Pt(5, 5)), Pt(1, 0).Dist(Pt(4, 4))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentDist(tt.s1, tt.s2); !almost(got, tt.want) {
				t.Errorf("SegmentDist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectDistToSegment(t *testing.T) {
	r := RectOf(Pt(0, 0), Pt(4, 2))
	tests := []struct {
		name string
		s    Segment
		want float64
	}{
		{"crossing", Seg(Pt(-1, 1), Pt(5, 1)), 0},
		{"endpoint inside", Seg(Pt(2, 1), Pt(9, 9)), 0},
		{"above", Seg(Pt(0, 5), Pt(4, 5)), 3},
		{"right of", Seg(Pt(7, 0), Pt(7, 2)), 3},
		{"diagonal miss", Seg(Pt(7, 5), Pt(9, 7)), Pt(7, 5).Dist(Pt(4, 2))},
		{"touching edge", Seg(Pt(4, 1), Pt(8, 1)), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.DistToSegment(tt.s); !almost(got, tt.want) {
				t.Errorf("DistToSegment = %v, want %v", got, tt.want)
			}
		})
	}
}

// DistToSegment must lower-bound the distance from every sampled point of
// the segment to the rectangle.
func TestRectSegmentDistIsLowerBound(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := RectOf(Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by)))
		s := Seg(Pt(clampCoord(cx), clampCoord(cy)), Pt(clampCoord(dx), clampCoord(dy)))
		d := r.DistToSegment(s)
		for i := 0; i <= 32; i++ {
			q := s.At(float64(i) / 32)
			if r.DistToPoint(q) < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The analytic DistToSegment must agree with the brute-force edge-based
// computation (4 segment-segment distances) on random inputs.
func TestDistToSegmentMatchesEdgeMethod(t *testing.T) {
	edgeMethod := func(r Rect, s Segment) float64 {
		if r.Contains(s.A) || r.Contains(s.B) {
			return 0
		}
		c1 := Point{r.Min.X, r.Max.Y}
		c2 := Point{r.Max.X, r.Min.Y}
		edges := [4]Segment{{r.Min, c2}, {c2, r.Max}, {r.Max, c1}, {c1, r.Min}}
		min := math.Inf(1)
		for _, e := range edges {
			if SegmentsIntersect(s, e) {
				return 0
			}
			if d := SegmentDist(s, e); d < min {
				min = d
			}
		}
		return min
	}
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := RectOf(Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by)))
		s := Seg(Pt(clampCoord(cx), clampCoord(cy)), Pt(clampCoord(dx), clampCoord(dy)))
		got := r.DistToSegment(s)
		want := edgeMethod(r, s)
		return math.Abs(got-want) <= 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
