package traj

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trajmatch/internal/geom"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSegmentBasics(t *testing.T) {
	e := Segment{S1: P(0, 0, 0), S2: P(3, 4, 10)}
	if got := e.Length(); !almost(got, 5) {
		t.Errorf("Length = %v, want 5", got)
	}
	if got := e.Duration(); !almost(got, 10) {
		t.Errorf("Duration = %v, want 10", got)
	}
}

// Example 1 of the paper: T1.e1 = [(0,0,0),(0,10,30)]; the projection of
// T2.e1.s2 = (2,7,14) onto it must be (0,7) with interpolated timestamp 21.
func TestProjectPaperExample1(t *testing.T) {
	e := Segment{S1: P(0, 0, 0), S2: P(0, 10, 30)}
	got := e.Project(geom.Pt(2, 7))
	if !almost(got.X, 0) || !almost(got.Y, 7) {
		t.Errorf("projected location = (%v,%v), want (0,7)", got.X, got.Y)
	}
	if !almost(got.T, 21) {
		t.Errorf("projected timestamp = %v, want 21", got.T)
	}
}

func TestTrajectoryLengthAndSpeed(t *testing.T) {
	tr := New(1, []Point{P(0, 0, 0), P(3, 4, 5), P(3, 10, 10)})
	if got := tr.Length(); !almost(got, 11) {
		t.Errorf("Length = %v, want 11", got)
	}
	if got := tr.Duration(); !almost(got, 10) {
		t.Errorf("Duration = %v, want 10", got)
	}
	if got := tr.AverageSpeed(); !almost(got, 1.1) {
		t.Errorf("AverageSpeed = %v, want 1.1", got)
	}
	if got := tr.NumSegments(); got != 2 {
		t.Errorf("NumSegments = %v, want 2", got)
	}
}

func TestFromXY(t *testing.T) {
	tr := FromXY(7, 0, 0, 1, 1, 2, 0)
	if tr.NumPoints() != 3 || tr.ID != 7 {
		t.Fatalf("FromXY built %v", tr)
	}
	if tr.Points[2] != P(2, 0, 2) {
		t.Errorf("third point = %v, want (2,0,2)", tr.Points[2])
	}
	defer func() {
		if recover() == nil {
			t.Error("FromXY with odd coords did not panic")
		}
	}()
	FromXY(0, 1, 2, 3)
}

func TestAtInterpolation(t *testing.T) {
	tr := New(1, []Point{P(0, 0, 0), P(10, 0, 10), P(10, 10, 20)})
	tests := []struct {
		ts   float64
		want geom.Point
	}{
		{-5, geom.Pt(0, 0)},  // clamp before start
		{0, geom.Pt(0, 0)},   // exact start
		{5, geom.Pt(5, 0)},   // mid first segment
		{10, geom.Pt(10, 0)}, // sample point
		{15, geom.Pt(10, 5)}, // mid second segment
		{20, geom.Pt(10, 10)},
		{99, geom.Pt(10, 10)}, // clamp after end
	}
	for _, tt := range tests {
		if got := tr.At(tt.ts); !almost(got.Dist(tt.want), 0) {
			t.Errorf("At(%v) = %v, want %v", tt.ts, got, tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := FromXY(1, 0, 0, 1, 1)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid trajectory rejected: %v", err)
	}
	short := New(1, []Point{P(0, 0, 0)})
	if err := short.Validate(); err == nil {
		t.Error("1-point trajectory accepted")
	}
	unsorted := New(1, []Point{P(0, 0, 5), P(1, 1, 3)})
	if err := unsorted.Validate(); err == nil {
		t.Error("time-unsorted trajectory accepted")
	}
	nan := New(1, []Point{P(0, 0, 0), P(math.NaN(), 1, 1)})
	if err := nan.Validate(); err == nil {
		t.Error("NaN trajectory accepted")
	}
	edge := New(1, []Point{P(-MaxCoord, MaxCoord, 0), P(MaxCoord, -MaxCoord, 1)})
	if err := edge.Validate(); err != nil {
		t.Errorf("trajectory at ±MaxCoord rejected: %v", err)
	}
	for _, p := range []Point{P(1e300, 0, 1), P(0, -1e300, 1), P(math.Nextafter(MaxCoord, 2*MaxCoord), 0, 1)} {
		huge := New(1, []Point{P(0, 0, 0), p})
		if err := huge.Validate(); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("point %v: err = %v, want ErrOutOfRange", p, err)
		}
	}
}

// TestValidateNonFiniteBeforeRange pins that the two coordinate errors
// stay distinct: an infinite or NaN coordinate, though larger than
// MaxCoord, reports ErrNonFinite, and an out-of-range one never does.
func TestValidateNonFiniteBeforeRange(t *testing.T) {
	for _, p := range []Point{P(math.Inf(1), 0, 1), P(0, math.Inf(-1), 1), P(math.NaN(), 1e300, 1)} {
		err := New(1, []Point{P(0, 0, 0), p}).Validate()
		if !errors.Is(err, ErrNonFinite) || errors.Is(err, ErrOutOfRange) {
			t.Errorf("point %v: err = %v, want ErrNonFinite only", p, err)
		}
	}
	err := New(1, []Point{P(0, 0, 0), P(2*MaxCoord, 0, 1)}).Validate()
	if errors.Is(err, ErrNonFinite) {
		t.Errorf("finite out-of-range point: err = %v, want ErrOutOfRange only", err)
	}
}

// TestValidatePoint: the per-point check Validate and live ingest share.
// A NaN prevT (no preceding point) admits any finite timestamp; an equal
// timestamp is in order, an earlier one is not.
func TestValidatePoint(t *testing.T) {
	for _, tc := range []struct {
		p     Point
		prevT float64
		want  error
	}{
		{P(1, 2, -5), math.NaN(), nil},
		{P(1, 2, 3), 3, nil},
		{P(MaxCoord, -MaxCoord, 4), 3, nil},
		{P(1, 2, 2), 3, ErrTimeNotSorted},
		{P(1e300, 1e300, 4), 3, ErrOutOfRange},
		{P(-1e300, 0, 4), math.NaN(), ErrOutOfRange},
		{P(math.NaN(), 0, 4), 3, ErrNonFinite},
		{P(0, 0, math.Inf(1)), 3, ErrNonFinite},
	} {
		if err := ValidatePoint(tc.p, tc.prevT); err != tc.want {
			t.Errorf("ValidatePoint(%v, %v) = %v, want %v", tc.p, tc.prevT, err, tc.want)
		}
	}
}

func TestSplitTripsGap(t *testing.T) {
	pts := []Point{
		P(0, 0, 0), P(1, 0, 60), P(2, 0, 120),
		// 20-minute gap: new trip.
		P(10, 0, 120+1200), P(11, 0, 120+1260),
	}
	trips := SplitTrips(pts, 15*60, 15*60, 100)
	if len(trips) != 2 {
		t.Fatalf("got %d trips, want 2", len(trips))
	}
	if trips[0].NumPoints() != 3 || trips[1].NumPoints() != 2 {
		t.Errorf("trip sizes = %d,%d want 3,2", trips[0].NumPoints(), trips[1].NumPoints())
	}
	if trips[0].ID != 100 || trips[1].ID != 101 {
		t.Errorf("trip IDs = %d,%d want 100,101", trips[0].ID, trips[1].ID)
	}
}

func TestSplitTripsStationary(t *testing.T) {
	// Cab parked at (5,5) from t=100 to t=1200 (>15 min): split.
	pts := []Point{
		P(0, 0, 0), P(5, 5, 100), P(5, 5, 400), P(5, 5, 800), P(5, 5, 1200),
		P(6, 5, 1260), P(7, 5, 1320),
	}
	trips := SplitTrips(pts, 15*60, 15*60, 0)
	if len(trips) != 2 {
		t.Fatalf("got %d trips, want 2", len(trips))
	}
}

func TestSplitTripsDropsSingletons(t *testing.T) {
	pts := []Point{P(0, 0, 0), P(0, 0, 1e6), P(1, 0, 2e6)}
	trips := SplitTrips(pts, 900, 900, 0)
	for _, tr := range trips {
		if tr.NumPoints() < 2 {
			t.Errorf("trip with %d points survived", tr.NumPoints())
		}
	}
}

func TestResamplePreservesShapeAndLength(t *testing.T) {
	tr := New(1, []Point{P(0, 0, 0), P(10, 0, 10), P(10, 10, 20)})
	rs := Resample(tr, 1.5)
	if !almost(rs.Length(), tr.Length()) {
		t.Errorf("resampled length %v != original %v", rs.Length(), tr.Length())
	}
	for i := 0; i < rs.NumSegments(); i++ {
		if l := rs.Segment(i).Length(); l > 1.5+1e-9 {
			t.Errorf("segment %d length %v exceeds spacing", i, l)
		}
	}
	// Original corner point must survive.
	found := false
	for _, p := range rs.Points {
		if p == P(10, 0, 10) {
			found = true
		}
	}
	if !found {
		t.Error("corner sample lost by resampling")
	}
	// Timestamps stay sorted.
	if err := rs.Validate(); err != nil {
		t.Errorf("resampled trajectory invalid: %v", err)
	}
}

func TestResampleNoOp(t *testing.T) {
	tr := FromXY(1, 0, 0, 1, 0)
	if got := Resample(tr, 0); !Equal(got, tr) {
		t.Error("spacing 0 should clone unchanged")
	}
	if got := Resample(tr, 100); got.NumPoints() != 2 {
		t.Errorf("coarse spacing added points: %d", got.NumPoints())
	}
}

// Resampling never changes trajectory length, regardless of spacing.
func TestResampleLengthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, spacingRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = P(r.Float64()*100, r.Float64()*100, float64(i)*10)
		}
		tr := New(0, pts)
		spacing := math.Abs(math.Mod(spacingRaw, 50)) + 0.1
		rs := Resample(tr, spacing)
		return almost(rs.Length(), tr.Length()) && rs.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestResampleUniformIgnoresOriginalBoundaries(t *testing.T) {
	// The same shape sampled two different ways must re-interpolate to
	// near-identical sequences — the property EDR-I depends on.
	shape := New(0, []Point{P(0, 0, 0), P(10, 0, 10), P(10, 10, 20)})
	other := Resample(shape, 1.7) // different sampling of the same polyline
	u1 := ResampleUniform(shape, 2)
	u2 := ResampleUniform(other, 2)
	if u1.NumPoints() != u2.NumPoints() {
		t.Fatalf("uniform resampling differs: %d vs %d points", u1.NumPoints(), u2.NumPoints())
	}
	for i := range u1.Points {
		if d := u1.Points[i].Dist(u2.Points[i]); d > 1e-9 {
			t.Fatalf("point %d differs by %v", i, d)
		}
	}
	// Spacing is uniform except possibly the final step.
	for i := 0; i < u1.NumSegments()-1; i++ {
		if l := u1.Segment(i).Length(); math.Abs(l-2) > 1e-9 {
			t.Errorf("segment %d length %v, want 2", i, l)
		}
	}
	if err := u1.Validate(); err != nil {
		t.Errorf("uniform resample invalid: %v", err)
	}
}

func TestResampleUniformDegenerate(t *testing.T) {
	tr := FromXY(1, 0, 0, 1, 0)
	if got := ResampleUniform(tr, 0); !Equal(got, tr) {
		t.Error("spacing 0 should clone")
	}
	if got := ResampleUniform(tr, 10); got.NumPoints() != 2 {
		t.Errorf("coarse uniform resample has %d points", got.NumPoints())
	}
}

func TestMaxDensityAndMedian(t *testing.T) {
	db := []*Trajectory{
		FromXY(0, 0, 0, 2, 0, 2, 2),     // segment lengths 2, 2
		FromXY(1, 0, 0, 0, 0.5, 0, 4.5), // lengths 0.5, 4
	}
	if got := MaxDensity(db); !almost(got, 2) {
		t.Errorf("MaxDensity = %v, want 2 (1/0.5)", got)
	}
	if got := MedianSegmentLength(db); !almost(got, 2) {
		t.Errorf("MedianSegmentLength = %v, want 2", got)
	}
	if got := MaxDensity(nil); got != 0 {
		t.Errorf("MaxDensity(nil) = %v, want 0", got)
	}
}

func TestFromLatLon(t *testing.T) {
	// Two points ~111m apart in latitude (0.001°) at the equator.
	tr := FromLatLon(1, [][3]float64{
		{0.0000, 10.0000, 0},
		{0.0010, 10.0000, 60},
	})
	if tr.NumPoints() != 2 {
		t.Fatalf("got %d points", tr.NumPoints())
	}
	d := tr.Points[0].Dist(tr.Points[1])
	if math.Abs(d-111.19) > 1 {
		t.Errorf("0.001° latitude = %vm, want ≈111.19m", d)
	}
	// Longitude distances shrink with latitude: the same 0.001° longitude
	// at 60°N is about half the equatorial value.
	north := FromLatLon(2, [][3]float64{
		{60, 10.000, 0},
		{60, 10.001, 60},
	})
	dn := north.Points[0].Dist(north.Points[1])
	if math.Abs(dn-111.19/2) > 1.5 {
		t.Errorf("0.001° longitude at 60°N = %vm, want ≈55.6m", dn)
	}
	if got := FromLatLon(3, nil); got.NumPoints() != 0 {
		t.Errorf("empty input produced %d points", got.NumPoints())
	}
}

func TestBounds(t *testing.T) {
	tr := FromXY(0, -1, 2, 3, -4, 0, 0)
	b := tr.Bounds()
	want := geom.RectOf(geom.Pt(-1, 2), geom.Pt(3, -4))
	if b != want {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := FromXY(0, 0, 0, 1, 1)
	cl := tr.Clone()
	cl.Points[0].X = 99
	if tr.Points[0].X == 99 {
		t.Error("Clone shares backing array")
	}
}
