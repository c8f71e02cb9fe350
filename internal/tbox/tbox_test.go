package tbox

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"trajmatch/internal/core"
	"trajmatch/internal/geom"
	"trajmatch/internal/raceflag"
	"trajmatch/internal/traj"
)

// pt is shorthand for geom.Point{X: x, Y: y}.
func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

func randomTraj(rng *rand.Rand, id, n int) *traj.Trajectory {
	pts := make([]traj.Point, n)
	x, y := rng.Float64()*50, rng.Float64()*50
	for i := range pts {
		pts[i] = traj.P(x, y, float64(i)*10)
		x += rng.NormFloat64() * 4
		y += rng.NormFloat64() * 4
	}
	return traj.New(id, pts)
}

func TestFromTrajectoryBoxes(t *testing.T) {
	tr := traj.FromXY(0, 0, 0, 3, 0, 3, 4)
	s := FromTrajectory(tr, 0)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Rect(0); got != geom.RectOf(pt(0, 0), pt(3, 0)) {
		t.Errorf("box 0 = %v", got)
	}
	if got := s.Rect(1); got != geom.RectOf(pt(3, 0), pt(3, 4)) {
		t.Errorf("box 1 = %v", got)
	}
	if !s.Contains(tr) {
		t.Error("own trajectory not contained")
	}
}

func TestCoarsenRespectsCapAndContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := randomTraj(rng, 0, 60)
	s := FromTrajectory(tr, 8)
	if s.Len() > 8 {
		t.Fatalf("coarsen left %d boxes", s.Len())
	}
	if !s.Contains(tr) {
		t.Error("coarsened seq lost containment")
	}
}

func TestInsertMaintainsContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 30; it++ {
		group := make([]*traj.Trajectory, 2+rng.Intn(6))
		for i := range group {
			group[i] = randomTraj(rng, i, 3+rng.Intn(15))
		}
		s := Build(group, 16)
		for _, m := range group {
			if !s.Contains(m) {
				t.Fatalf("member %d escaped its tBoxSeq", m.ID)
			}
		}
	}
}

// volume is ΣVol(b_i), the quantity Seq.String reports; in 2-D a box's
// volume is its area (Definition 5).
func volume(s *Seq) float64 {
	var v float64
	for i := 0; i < s.Len(); i++ {
		v += s.Rect(i).Area()
	}
	return v
}

func TestVolumeGrowsWithInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomTraj(rng, 0, 10)
	b := randomTraj(rng, 1, 10)
	s := FromTrajectory(a, 0)
	v0 := volume(s)
	cost := s.ExpansionCost(b)
	s.Insert(b)
	v1 := volume(s)
	if v1 < v0-1e-9 {
		t.Errorf("volume shrank: %v -> %v", v0, v1)
	}
	if math.Abs((v1-v0)-cost) > 1e-6*(1+v1) {
		t.Errorf("ExpansionCost %v != actual growth %v", cost, v1-v0)
	}
	if want := fmt.Sprintf("vol %.2f]", v1); !strings.HasSuffix(s.String(), want) {
		t.Errorf("String() = %q, want the volume %q", s.String(), want)
	}
}

// TestExpansionCostDeterministic pins the summation order: the cost of a
// trajectory whose segments land in several boxes is the same bits on
// every call, so near-ties between children in partition and insertAt
// cannot flip from run to run.
func TestExpansionCostDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for it := 0; it < 20; it++ {
		s := FromTrajectory(randomTraj(rng, 0, 12), 0)
		b := randomTraj(rng, 1, 12)
		boxes := map[int]bool{}
		for _, j := range core.AssignSegmentsInto(nil, b, s) {
			boxes[j] = true
		}
		if len(boxes) < 3 {
			continue
		}
		want := s.ExpansionCost(b)
		for rep := 0; rep < 50; rep++ {
			if got := s.ExpansionCost(b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("it %d rep %d: cost %v, first call gave %v", it, rep, got, want)
			}
		}
		return
	}
	t.Fatal("no generated trajectory spanned three boxes")
}

// withEmptyBox returns a copy of s with an empty box at a random
// position, a box nothing was put in.
func withEmptyBox(rng *rand.Rand, s *Seq) *Seq {
	e := geom.Empty()
	at := 4 * rng.Intn(s.Len())
	return FromFlat(append(append(slices.Clone(s.rects[:at]), e.Min.X, e.Min.Y, e.Max.X, e.Max.Y), s.rects[at:]...))
}

// TestExpansionCostMatchesPointwise pins the flat growth loop to the
// definition it replaced: each box extended by its run's segment end
// points one at a time, bit for bit, including boxes nothing was put in.
func TestExpansionCostMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for it := 0; it < 200; it++ {
		s := Build([]*traj.Trajectory{randomTraj(rng, 0, 2+rng.Intn(14)), randomTraj(rng, 1, 2+rng.Intn(14))}, 8)
		if it%4 == 0 {
			s = withEmptyBox(rng, s)
		}
		b := randomTraj(rng, 2, 2+rng.Intn(14))
		assign := core.AssignSegmentsInto(nil, b, s)
		var want float64
		for i := 0; i < len(assign); {
			j := assign[i]
			r := s.Rect(j)
			for ; i < len(assign) && assign[i] == j; i++ {
				e := b.Segment(i)
				r = r.ExtendPoint(e.S1.XY()).ExtendPoint(e.S2.XY())
			}
			want += r.Area() - s.Rect(j).Area()
		}
		if got := s.ExpansionCost(b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("it %d: cost %v, pointwise %v", it, got, want)
		}
	}
}

// TestExpansionCostNonNegative pins the premise of the build's zero exit
// (trajtree's leastExpansion): no growth is negative or NaN, so the first
// summary that grows by exactly 0 cannot be beaten. The sequences mix
// random walks with axis-parallel and stationary trajectories (zero-width,
// zero-height and zero-size boxes) at scales up to 10⁶, some hold an
// empty box, and each is also asked for an absorbed member's growth; the
// empty sequence's branch is asked too.
func TestExpansionCostNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	gen := func(id int) *traj.Trajectory {
		n := 2 + rng.Intn(12)
		scale := math.Pow(10, float64(rng.Intn(7)))
		x0, y0 := rng.Float64()*scale, rng.Float64()*scale
		pts := make([]traj.Point, n)
		for i := range pts {
			x, y := x0+rng.NormFloat64()*4, y0+rng.NormFloat64()*4
			switch id % 4 {
			case 1:
				x = x0 // vertical: zero-width boxes
			case 2:
				y = y0 // horizontal: zero-height boxes
			case 3:
				x, y = x0, y0 // stationary: zero-size boxes
			}
			pts[i] = traj.P(x, y, float64(i)*10)
		}
		return traj.New(id, pts)
	}
	check := func(it int, what string, s *Seq, b *traj.Trajectory) {
		t.Helper()
		if c := s.ExpansionCost(b); c < 0 || math.IsNaN(c) {
			t.Fatalf("it %d, %s: ExpansionCost = %v", it, what, c)
		}
	}
	for it := 0; it < 2000; it++ {
		members := make([]*traj.Trajectory, 1+rng.Intn(4))
		for i := range members {
			members[i] = gen(rng.Intn(4))
		}
		s := Build(members, 1+rng.Intn(16))
		if it%5 == 0 {
			s = withEmptyBox(rng, s)
		}
		b := gen(rng.Intn(4))
		check(it, "new trajectory", s, b)
		check(it, "absorbed member", s, members[rng.Intn(len(members))])
		check(it, "empty sequence", &Seq{}, b)
	}
}

// The bulk load calls ExpansionCost once per (trajectory, candidate group):
// a warm call must leave nothing for the collector.
func TestExpansionCostZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool deliberately drops Puts")
	}
	rng := rand.New(rand.NewSource(45))
	s := FromTrajectory(randomTraj(rng, 0, 12), 0)
	b := randomTraj(rng, 1, 12)
	s.ExpansionCost(b)
	if n := testing.AllocsPerRun(100, func() { s.ExpansionCost(b) }); n != 0 {
		t.Errorf("ExpansionCost allocates %v per run, want 0", n)
	}
}

func TestExpansionCostZeroForCovered(t *testing.T) {
	a := traj.FromXY(0, 0, 0, 10, 0, 10, 10)
	s := FromTrajectory(a, 0)
	inside := traj.FromXY(1, 1, 0, 9, 0)
	if got := s.ExpansionCost(inside); got != 0 {
		t.Errorf("ExpansionCost for covered trajectory = %v, want 0", got)
	}
}

// The Theorem-2 contract, end to end through this package: the core lower
// bound computed on a Seq never exceeds the true distance to any member.
func TestLowerBoundAdmissibleViaSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for it := 0; it < 40; it++ {
		group := make([]*traj.Trajectory, 1+rng.Intn(6))
		for i := range group {
			group[i] = randomTraj(rng, i, 3+rng.Intn(12))
		}
		s := Build(group, 12)
		q := randomTraj(rng, 99, 3+rng.Intn(12))
		lb := core.LowerBound(q, s)
		for _, m := range group {
			d := core.Distance(q, m)
			if lb > d+1e-6*(1+d) {
				t.Fatalf("LowerBound %v > EDwP %v (member %d)", lb, d, m.ID)
			}
		}
	}
}

func TestEmptySeq(t *testing.T) {
	var s Seq
	if s.Len() != 0 || volume(&s) != 0 {
		t.Error("zero Seq not empty")
	}
	tr := traj.FromXY(0, 0, 0, 1, 1)
	s.Insert(tr)
	if s.Len() == 0 || !s.Contains(tr) {
		t.Error("insert into empty seq failed")
	}
}

func TestBuildEmpty(t *testing.T) {
	s := Build(nil, 8)
	if s.Len() != 0 {
		t.Errorf("Build(nil) has %d boxes", s.Len())
	}
}

func TestDegenerateTrajectorySeq(t *testing.T) {
	point := traj.New(0, []traj.Point{traj.P(1, 1, 0)})
	s := FromTrajectory(point, 8)
	if s.Len() != 0 {
		t.Errorf("segmentless trajectory created %d boxes", s.Len())
	}
}
