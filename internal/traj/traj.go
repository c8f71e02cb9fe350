// Package traj implements the paper's trajectory model (Definitions 1–3):
// a trajectory is a temporally ordered sequence of spatio-temporal points,
// viewed as a chain of spatio-temporal segments whose interpolating function
// is the straight line between consecutive samples.
//
// The package also provides the dataset-preparation operations used in the
// paper's experimental setup: trip splitting on time gaps, uniform
// re-interpolation (the EDR-I preprocessing) and basic validation.
package traj

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"trajmatch/internal/geom"
)

// Point is a spatio-temporal point: a 2-D location and the timestamp (in
// seconds, arbitrary epoch) at which it was recorded.
type Point struct {
	X, Y float64
	T    float64
}

// P is shorthand for Point{x, y, t}.
func P(x, y, t float64) Point { return Point{X: x, Y: y, T: t} }

// XY returns the spatial component of p.
func (p Point) XY() geom.Point { return geom.Point{X: p.X, Y: p.Y} }

// Dist returns the spatial Euclidean distance between p and q; timestamps
// do not participate (Section III of the paper).
func (p Point) Dist(q Point) float64 { return p.XY().Dist(q.XY()) }

// Segment is a spatio-temporal segment (Definition 3): the straight-line
// movement between two temporally consecutive samples.
type Segment struct {
	S1, S2 Point
}

// Length returns the spatial length of e.
func (e Segment) Length() float64 { return e.S1.Dist(e.S2) }

// Duration returns the time spent traversing e.
func (e Segment) Duration() float64 { return e.S2.T - e.S1.T }

// Spatial returns the purely spatial segment of e.
func (e Segment) Spatial() geom.Segment { return geom.Seg(e.S1.XY(), e.S2.XY()) }

// At returns the interpolated spatio-temporal point a fraction frac ∈ [0,1]
// along e's spatial extent; the timestamp follows the paper's proportional
// rule t = s1.t + dist(s1,p)/speed(e).
func (e Segment) At(frac float64) Point {
	xy := geom.Lerp(e.S1.XY(), e.S2.XY(), frac)
	return Point{X: xy.X, Y: xy.Y, T: e.S1.T + frac*e.Duration()}
}

// Project returns the spatio-temporal point on e closest (spatially) to q,
// i.e. the paper's p^{ins(e, q)} with its interpolated timestamp.
func (e Segment) Project(q geom.Point) Point {
	frac := e.Spatial().ClosestFrac(q)
	return e.At(frac)
}

// Trajectory is a temporally ordered sequence of spatio-temporal points
// (Definition 1). Exported fields identify the trajectory within datasets;
// ID is unique within a database, Label carries a class for labelled data
// (the ASL-style experiments).
type Trajectory struct {
	ID     int
	Label  int
	Points []Point

	// view and length cache the SoA coordinate view and the total spatial
	// length, computed on first use and never invalidated: a trajectory is
	// immutable once distances have been computed against it. Callers that
	// edit Points in place must do so before the first View or Length call
	// (in practice: mutate fresh Clones). The atomics make concurrent first
	// calls race-free — both goroutines compute the same value and either
	// store wins. Both may be installed eagerly by Prime (the arena storage
	// layer backs views with its shared slabs); summary is installed only.
	view    atomic.Pointer[View]
	length  atomic.Pointer[float64]
	summary atomic.Pointer[Summary]
}

// Summary is a trajectory's screen summary, what the TrajTree's leaf-level
// lower bound reads instead of its samples (arena.Summarize derives it).
// The slices are shared and must be treated as read-only.
type Summary struct {
	BBox    []float64 // the spatial bounding box: MinX, MinY, MaxX, MaxY
	Length  []float64 // the total spatial length, as a one-value window
	Boxes   []float64 // the coarsened box sequence, 4 values per box as BBox
	BoxLens []float64 // per box: the length of the segments charged to it
}

// View is the structure-of-arrays spatial projection of a trajectory: the
// sample coordinates split into parallel X and Y slices of equal length.
// The hot DP kernels consume Views so their inner loops stream over
// contiguous float64 memory instead of striding through []Point records;
// arena-backed trajectories alias shard-wide slabs here. The slices are
// shared and must be treated as read-only.
type View struct {
	X, Y []float64
}

// New returns a trajectory over pts with the given id and no label.
func New(id int, pts []Point) *Trajectory {
	return &Trajectory{ID: id, Points: pts}
}

// FromXY builds a trajectory from alternating x,y pairs with unit-spaced
// timestamps. It is a convenience for tests and examples.
func FromXY(id int, xy ...float64) *Trajectory {
	if len(xy)%2 != 0 {
		panic("traj.FromXY: odd number of coordinates")
	}
	pts := make([]Point, len(xy)/2)
	for i := range pts {
		pts[i] = Point{X: xy[2*i], Y: xy[2*i+1], T: float64(i)}
	}
	return New(id, pts)
}

// NumPoints returns the number of sampled points.
func (t *Trajectory) NumPoints() int { return len(t.Points) }

// NumSegments returns the number of st-segments, max(0, len(points)-1).
func (t *Trajectory) NumSegments() int {
	if len(t.Points) < 2 {
		return 0
	}
	return len(t.Points) - 1
}

// Segment returns the i-th st-segment.
func (t *Trajectory) Segment(i int) Segment {
	return Segment{S1: t.Points[i], S2: t.Points[i+1]}
}

// View returns the SoA spatial projection of the sample points, cached on
// the trajectory. Arena-backed trajectories have it pre-installed
// (pointing into the shard slab) via Prime; standalone trajectories — query
// arguments, test fixtures — compute it once on first use.
func (t *Trajectory) View() View {
	if v := t.view.Load(); v != nil {
		return *v
	}
	n := len(t.Points)
	buf := make([]float64, 2*n)
	x, y := buf[:n:n], buf[n:]
	for i, p := range t.Points {
		x[i] = p.X
		y[i] = p.Y
	}
	v := &View{X: x, Y: y}
	t.view.Store(v)
	return *v
}

// Prime installs precomputed caches: a coordinate view and a screen
// summary (typically aliasing arena slabs), and the summary's length as
// the cached total spatial length. The values must equal what View,
// Length and arena.Summarize would compute — Prime only changes where the
// memory lives, never a result. Both are stored by pointer, so v and s
// must not change afterwards.
func (t *Trajectory) Prime(v *View, s *Summary) {
	t.view.Store(v)
	t.length.Store(&s.Length[0])
	t.summary.Store(s)
}

// SetSummary installs s, which must be arena.Summarize's value.
func (t *Trajectory) SetSummary(s *Summary) { t.summary.Store(s) }

// Summary returns the installed screen summary, nil when none is. Every
// member of a TrajTree carries one; a fresh Clone does not.
func (t *Trajectory) Summary() *Summary { return t.summary.Load() }

// Length returns the total spatial length (Eq. 1), computed once and
// cached: the normalised distance of Eq. 4 divides by it on every kernel
// call, so the repeated O(n) sqrt walk showed up in query profiles.
func (t *Trajectory) Length() float64 {
	if l := t.length.Load(); l != nil {
		return *l
	}
	var sum float64
	for i := 0; i < t.NumSegments(); i++ {
		sum += t.Segment(i).Length()
	}
	t.length.Store(&sum)
	return sum
}

// Duration returns the elapsed time from first to last sample.
func (t *Trajectory) Duration() float64 {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[len(t.Points)-1].T - t.Points[0].T
}

// AverageSpeed returns Length/Duration, or 0 for degenerate trajectories.
func (t *Trajectory) AverageSpeed() float64 {
	d := t.Duration()
	if d <= 0 {
		return 0
	}
	return t.Length() / d
}

// Bounds returns the spatial bounding rectangle of all sampled points.
func (t *Trajectory) Bounds() geom.Rect {
	r := geom.Empty()
	for _, p := range t.Points {
		r = r.ExtendPoint(p.XY())
	}
	return r
}

// Clone returns a deep copy of t.
func (t *Trajectory) Clone() *Trajectory {
	pts := make([]Point, len(t.Points))
	copy(pts, t.Points)
	return &Trajectory{ID: t.ID, Label: t.Label, Points: pts}
}

// String renders a compact description for debugging.
func (t *Trajectory) String() string {
	return fmt.Sprintf("T%d[%d pts, len %.2f]", t.ID, len(t.Points), t.Length())
}

// At returns the interpolated position at absolute time ts, clamped to the
// trajectory's time span. It binary-searches the sample timestamps, so the
// cost is O(log n). Used by the DISSIM baseline.
func (t *Trajectory) At(ts float64) geom.Point {
	pts := t.Points
	if len(pts) == 0 {
		return geom.Point{}
	}
	if ts <= pts[0].T {
		return pts[0].XY()
	}
	last := pts[len(pts)-1]
	if ts >= last.T {
		return last.XY()
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T > ts }) - 1
	seg := Segment{S1: pts[i], S2: pts[i+1]}
	d := seg.Duration()
	if d <= 0 {
		return pts[i].XY()
	}
	frac := (ts - pts[i].T) / d
	xy := geom.Lerp(seg.S1.XY(), seg.S2.XY(), frac)
	return xy
}

// Validation errors returned by Validate and ValidatePoint.
var (
	ErrTooFewPoints  = errors.New("traj: trajectory needs at least 2 points")
	ErrTimeNotSorted = errors.New("traj: timestamps not non-decreasing")
	ErrNonFinite     = errors.New("traj: non-finite coordinate or timestamp")
	ErrOutOfRange    = errors.New("traj: coordinate magnitude above MaxCoord")
)

// MaxCoord is the largest coordinate magnitude Validate accepts. Below it
// every distance stays finite: two points are at most 2√2·1e15 ≈ 2.9e15
// apart, so a squared distance stays below 1e31 and one EDwP edit — a sum
// of two point distances times a sum of two segment lengths — below 4e31.
// The dynamic programs of EDwP, DTW and EDR add one such term per step,
// which leaves any trajectory that fits in memory far short of float64's
// 1.8e308. No projected or geographic coordinate comes near the limit
// (metres on Earth stay below 1e8, degrees below 360). Values like ±1e300
// overflow the DP to +Inf, a distance no JSON answer can carry.
const MaxCoord = 1e15

// Validate checks the structural invariants every indexed trajectory must
// satisfy: at least two points, each of which passes ValidatePoint.
func (t *Trajectory) Validate() error {
	if len(t.Points) < 2 {
		return fmt.Errorf("%w (got %d)", ErrTooFewPoints, len(t.Points))
	}
	prevT := math.NaN()
	for i, p := range t.Points {
		if err := ValidatePoint(p, prevT); err != nil {
			return fmt.Errorf("%w at index %d", err, i)
		}
		prevT = p.T
	}
	return nil
}

// ValidatePoint checks one point of a trajectory whose preceding point
// has timestamp prevT (NaN for the first point): finite coordinates and
// timestamp, coordinates no larger in magnitude than MaxCoord, and a
// timestamp no earlier than prevT. Validate applies it to every point,
// and live ingest to every appended one.
func ValidatePoint(p Point, prevT float64) error {
	switch {
	case !finite(p.X) || !finite(p.Y) || !finite(p.T):
		return ErrNonFinite
	case math.Abs(p.X) > MaxCoord || math.Abs(p.Y) > MaxCoord:
		return ErrOutOfRange
	case p.T < prevT: // false for a NaN prevT
		return ErrTimeNotSorted
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Equal reports whether two trajectories have identical point sequences.
func Equal(a, b *Trajectory) bool {
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}
