package core

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/geom"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

// pt is shorthand for geom.Point{X: x, Y: y}.
func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

// rectSeq is a minimal Boxes implementation for tests.
type rectSeq []geom.Rect

func (r rectSeq) Len() int             { return len(r) }
func (r rectSeq) Rect(i int) geom.Rect { return r[i] }

// boxesFor builds one box per segment for each trajectory and merges the
// rest by extension — a miniature of what package tbox does, sufficient to
// validate LowerBound's admissibility contract here without an import cycle.
func boxesFor(ts []*traj.Trajectory) rectSeq {
	base := ts[0]
	seq := make(rectSeq, base.NumSegments())
	for i := range seq {
		e := base.Segment(i)
		seq[i] = geom.RectOf(e.S1.XY(), e.S2.XY())
	}
	for _, t := range ts[1:] {
		assign := AssignSegmentsInto(nil, t, seq)
		for i, j := range assign {
			e := t.Segment(i)
			seq[j] = seq[j].ExtendPoint(e.S1.XY()).ExtendPoint(e.S2.XY())
		}
	}
	return seq
}

func TestLowerBoundZeroForMembers(t *testing.T) {
	tr := traj.FromXY(0, 0, 0, 5, 0, 5, 5, 9, 9)
	b := boxesFor([]*traj.Trajectory{tr})
	if got := LowerBound(tr, b); got != 0 {
		t.Errorf("LowerBound(member, own boxes) = %v, want 0", got)
	}
}

// The contract the index depends on (Theorem 2): for every member of the
// box sequence, LowerBound(q, B) ≤ EDwP(q, member).
func TestLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for it := 0; it < 60; it++ {
		group := make([]*traj.Trajectory, 1+rng.Intn(4))
		for i := range group {
			group[i] = randomSmoothTraj(rng, 3+rng.Intn(8))
		}
		b := boxesFor(group)
		q := randomSmoothTraj(rng, 3+rng.Intn(8))
		lb := LowerBound(q, b)
		for _, m := range group {
			d := Distance(q, m)
			if lb > d+1e-6*(1+d) {
				t.Fatalf("LowerBound %v exceeds EDwP %v\nq=%v\nm=%v", lb, d, q.Points, m.Points)
			}
		}
	}
}

// ...and against AvgDistance when normalised by the largest member length.
func TestLowerBoundAdmissibleNormalised(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for it := 0; it < 40; it++ {
		group := make([]*traj.Trajectory, 1+rng.Intn(4))
		maxLen := 0.0
		for i := range group {
			group[i] = randomSmoothTraj(rng, 3+rng.Intn(8))
			if l := group[i].Length(); l > maxLen {
				maxLen = l
			}
		}
		b := boxesFor(group)
		q := randomSmoothTraj(rng, 3+rng.Intn(8))
		lbAvg := LowerBound(q, b) / (q.Length() + maxLen)
		for _, m := range group {
			d := AvgDistance(q, m)
			if lbAvg > d+1e-6*(1+d) {
				t.Fatalf("normalised LowerBound %v exceeds EDwPavg %v", lbAvg, d)
			}
		}
	}
}

// flat lays a box sequence out as the MinX, MinY, MaxX, MaxY slab the
// screens take.
func (r rectSeq) flat() []float64 {
	out := make([]float64, 0, 4*len(r))
	for _, b := range r {
		out = append(out, b.Min.X, b.Min.Y, b.Max.X, b.Max.Y)
	}
	return out
}

// runBoxes summarises m the way the arena summarises a member: boxes over
// runs of 1–4 consecutive segments, and per box the length of the
// segments in its run.
func runBoxes(rng *rand.Rand, m *traj.Trajectory) (rects, lens []float64) {
	for i := 0; i < m.NumSegments(); {
		r, l := geom.Empty(), 0.0
		for n := 1 + rng.Intn(4); n > 0 && i < m.NumSegments(); n, i = n-1, i+1 {
			e := m.Segment(i)
			r = r.ExtendPoint(e.S1.XY()).ExtendPoint(e.S2.XY())
			l += e.Length()
		}
		rects = append(rects, r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
		lens = append(lens, l)
	}
	return rects, lens
}

// stutter repeats some of t's points in place, so the copy has
// zero-length segments.
func stutter(rng *rand.Rand, t *traj.Trajectory) *traj.Trajectory {
	var pts []traj.Point
	for _, p := range t.Points {
		pts = append(pts, p)
		for rng.Intn(3) == 0 {
			pts = append(pts, p)
		}
	}
	return traj.New(t.ID, pts)
}

// boundCases yields (query, group) pairs over the shapes the bounds must
// hold on: random walks at every offset from overlapping to far apart,
// synthetic taxi trips, ASL gestures (everything overlapping, 40 points a
// side), a short query against long members and the reverse, and
// trajectories with zero-length segments on either side.
func boundCases(rng *rand.Rand, visit func(name string, q *traj.Trajectory, group []*traj.Trajectory)) {
	shift := func(t *traj.Trajectory, dx, dy float64) *traj.Trajectory {
		c := t.Clone()
		for i := range c.Points {
			c.Points[i].X += dx
			c.Points[i].Y += dy
		}
		return c
	}
	walks := func(n, lo, hi int) []*traj.Trajectory {
		g := make([]*traj.Trajectory, n)
		for i := range g {
			g[i] = randomSmoothTraj(rng, lo+rng.Intn(hi-lo+1))
		}
		return g
	}
	for it := 0; it < 60; it++ {
		q := shift(randomSmoothTraj(rng, 3+rng.Intn(8)), rng.Float64()*60, rng.Float64()*60)
		visit("random", q, walks(1+rng.Intn(4), 3, 10))
	}
	for it := 0; it < 20; it++ {
		visit("short query", shift(randomSmoothTraj(rng, 2+rng.Intn(2)), rng.Float64()*30, 0), walks(1+rng.Intn(3), 30, 60))
		visit("long query", shift(randomSmoothTraj(rng, 30+rng.Intn(30)), rng.Float64()*30, 0), walks(1+rng.Intn(3), 2, 4))
		g := walks(1+rng.Intn(3), 3, 10)
		for i := range g {
			g[i] = stutter(rng, g[i])
		}
		visit("zero-length segments", stutter(rng, shift(randomSmoothTraj(rng, 3+rng.Intn(6)), rng.Float64()*20, rng.Float64()*20)), g)
		p := traj.P(rng.Float64()*40, rng.Float64()*40, 0)
		visit("stationary query", traj.New(0, []traj.Point{p, p, p}), g)
	}
	taxi := synth.Taxi(synth.DefaultTaxi(80))
	asl := synth.ASL(synth.ASLConfig{NumClasses: 8, Instances: 5, Points: 40, Jitter: 0.04, Seed: 2})
	for _, c := range []struct {
		name   string
		corpus []*traj.Trajectory
	}{{"taxi", taxi}, {"asl", asl}} {
		for it := 0; it < 30; it++ {
			g := make([]*traj.Trajectory, 1+rng.Intn(4))
			for i := range g {
				g[i] = c.corpus[(it*7+i*13)%len(c.corpus)]
			}
			visit(c.name, c.corpus[(it*11+5)%len(c.corpus)], g)
		}
	}
}

// slack is the float tolerance of the admissibility comparisons.
func slack(d float64) float64 { return 1e-9 * (1 + d) }

// The query path prunes with the flat screen instead of the Theorem-2 DP.
// Over a node's boxes it must stay below the DP, which stays below the raw
// EDwP of every member (properties (a)), and below EDwPsub too, because
// neither bound uses that the alignment consumes the member in full (c).
func TestScreenBelowLowerBoundBelowDistances(t *testing.T) {
	var scr SegScreen
	tight, n := 0.0, 0
	boundCases(rand.New(rand.NewSource(31)), func(name string, q *traj.Trajectory, group []*traj.Trajectory) {
		b := boxesFor(group)
		scr.Reset(q)
		screen := ScreenLowerBound(&scr, b.flat(), math.Inf(1))
		lb := LowerBound(q, b)
		if screen > lb+slack(lb) {
			t.Fatalf("%s: screen %v exceeds LowerBound %v\nq=%v", name, screen, lb, q.Points)
		}
		if lb > 0 {
			tight, n = tight+screen/lb, n+1
		}
		for _, m := range group {
			if d := Distance(q, m); lb > d+slack(d) {
				t.Fatalf("%s: LowerBound %v exceeds EDwP %v\nq=%v\nm=%v", name, lb, d, q.Points, m.Points)
			}
			if d := SubDistance(q, m); screen > d+slack(d) {
				t.Fatalf("%s: screen %v exceeds EDwPsub %v\nq=%v\nm=%v", name, screen, d, q.Points, m.Points)
			}
			// The same over the member's own boxes, as the leaf screen
			// of a sub search applies it.
			rects, _ := runBoxes(rand.New(rand.NewSource(int64(n))), m)
			if own, d := ScreenLowerBound(&scr, rects, math.Inf(1)), SubDistance(q, m); own > d+slack(d) {
				t.Fatalf("%s: member screen %v exceeds EDwPsub %v\nq=%v\nm=%v", name, own, d, q.Points, m.Points)
			}
		}
	})
	t.Logf("mean screen/LowerBound over %d cases with a positive bound: %.3f", n, tight/float64(n))
}

// Property (b): over one trajectory's boxes the query side and the member
// side add up to at most the raw EDwP — the two charge disjoint shares of
// every edit's coverage — at the box-run tier and at the single-bounding-
// box tier alike, and the normalised sum stays below EDwPavg.
func TestTwoSidedScreenAdmissible(t *testing.T) {
	var scr SegScreen
	rng := rand.New(rand.NewSource(32))
	gained := 0
	boundCases(rand.New(rand.NewSource(33)), func(name string, q *traj.Trajectory, group []*traj.Trajectory) {
		scr.Reset(q)
		inf := math.Inf(1)
		for _, m := range group {
			rects, lens := runBoxes(rng, m)
			bb := m.Bounds()
			bbox := []float64{bb.Min.X, bb.Min.Y, bb.Max.X, bb.Max.Y}
			d, avg := Distance(q, m), AvgDistance(q, m)
			for tier, in := range []struct{ rects, lens []float64 }{{rects, lens}, {bbox, []float64{m.Length()}}} {
				qs := ScreenLowerBound(&scr, in.rects, inf)
				both := ScreenMemberSide(&scr, in.rects, in.lens, qs, inf)
				if both < qs {
					t.Fatalf("%s tier %d: member side lowered the sum: %v < %v", name, tier, both, qs)
				}
				if both > qs {
					gained++
				}
				if both > d+slack(d) {
					t.Fatalf("%s tier %d: query side %v + member side %v exceeds EDwP %v\nq=%v\nm=%v",
						name, tier, qs, both-qs, d, q.Points, m.Points)
				}
				if den := q.Length() + m.Length(); den > 0 && both/den > avg+slack(avg) {
					t.Fatalf("%s tier %d: normalised two-sided screen %v exceeds EDwPavg %v", name, tier, both/den, avg)
				}
				// Early exit: a limit below the sum yields some value above it.
				if both > 0 {
					if got := ScreenMemberSide(&scr, in.rects, in.lens, ScreenLowerBound(&scr, in.rects, both/2), both/2); got <= both/2 {
						t.Fatalf("%s tier %d: limited sum %v not above limit %v", name, tier, got, both/2)
					}
				}
			}
		}
	})
	if gained == 0 {
		t.Error("the member side never added anything")
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	q := traj.FromXY(0, 0, 0, 1, 1)
	if got := LowerBound(q, rectSeq(nil)); got != 0 {
		t.Errorf("LowerBound vs no boxes = %v, want 0", got)
	}
	pointTraj := traj.New(0, []traj.Point{traj.P(0, 0, 0)})
	b := rectSeq{geom.RectOf(pt(0, 0), pt(1, 1))}
	if got := LowerBound(pointTraj, b); got != 0 {
		t.Errorf("LowerBound of segmentless query = %v, want 0", got)
	}
}

func TestLowerBoundPositiveWhenFar(t *testing.T) {
	member := traj.FromXY(0, 0, 0, 1, 0, 2, 0)
	b := boxesFor([]*traj.Trajectory{member})
	far := traj.FromXY(1, 100, 100, 101, 100)
	lb := LowerBound(far, b)
	if lb <= 0 {
		t.Errorf("LowerBound for distant query = %v, want > 0", lb)
	}
	// Still admissible.
	if d := Distance(far, member); lb > d {
		t.Errorf("LowerBound %v > distance %v", lb, d)
	}
}

func TestLowerBoundMonotoneInBoxGrowth(t *testing.T) {
	// Extending boxes can only lower (or keep) the bound.
	member := traj.FromXY(0, 0, 0, 4, 0, 8, 0)
	small := boxesFor([]*traj.Trajectory{member})
	big := make(rectSeq, len(small))
	for i, r := range small {
		big[i] = r.ExtendPoint(pt(50, 50))
	}
	q := traj.FromXY(1, 20, 20, 24, 20)
	if LowerBound(q, big) > LowerBound(q, small)+1e-12 {
		t.Error("growing boxes increased the lower bound")
	}
}

func TestAssignSegmentsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for it := 0; it < 50; it++ {
		base := randomSmoothTraj(rng, 4+rng.Intn(6))
		b := boxesFor([]*traj.Trajectory{base})
		tr := randomSmoothTraj(rng, 3+rng.Intn(8))
		assign := AssignSegmentsInto(nil, tr, b)
		if len(assign) != tr.NumSegments() {
			t.Fatalf("assignment size %d, want %d", len(assign), tr.NumSegments())
		}
		for i := 1; i < len(assign); i++ {
			if assign[i] < assign[i-1] {
				t.Fatalf("assignment not monotone: %v", assign)
			}
		}
		for _, j := range assign {
			if j < 0 || j >= b.Len() {
				t.Fatalf("assignment out of range: %v", assign)
			}
		}
	}
}

// assignSegmentsTables is the assignment DP as it was written before the
// tables moved into the pooled scratch — one cost, back-pointer and growth
// row per segment — kept as the oracle: the bulk load's partition follows
// the assignment, so the pooled version must return the same indices.
func assignSegmentsTables(t *traj.Trajectory, b Boxes) []int {
	n := t.NumSegments()
	nb := b.Len()
	if n == 0 || nb == 0 {
		return nil
	}
	inf := math.Inf(1)
	cost := make([][]float64, n)
	from := make([][]int, n)
	growCache := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, nb)
		from[i] = make([]int, nb)
		growCache[i] = make([]float64, nb)
		e := t.Segment(i).Spatial()
		for j := 0; j < nb; j++ {
			r := b.Rect(j)
			u := r.ExtendPoint(e.A).ExtendPoint(e.B)
			growCache[i][j] = u.Area() - r.Area()
			cost[i][j] = inf
			from[i][j] = -1
		}
	}
	for j := 0; j < nb; j++ {
		cost[0][j] = growCache[0][j]
	}
	for i := 1; i < n; i++ {
		best := inf
		bestJ := -1
		for j := 0; j < nb; j++ {
			if cost[i-1][j] < best {
				best = cost[i-1][j]
				bestJ = j
			}
			if best < inf {
				cost[i][j] = best + growCache[i][j]
				from[i][j] = bestJ
			}
		}
	}
	bestJ := 0
	for j := 1; j < nb; j++ {
		if cost[n-1][j] < cost[n-1][bestJ] {
			bestJ = j
		}
	}
	out := make([]int, n)
	j := bestJ
	for i := n - 1; i >= 0; i-- {
		out[i] = j
		if i > 0 {
			j = from[i][j]
		}
	}
	return out
}

func TestAssignSegmentsMatchesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var buf [8]int
	for it := 0; it < 300; it++ {
		group := make([]*traj.Trajectory, 1+rng.Intn(3))
		for i := range group {
			group[i] = randomSmoothTraj(rng, 2+rng.Intn(12))
		}
		b := boxesFor(group)
		if it%7 == 0 {
			b[rng.Intn(len(b))] = geom.Empty() // a box nothing was put in
		}
		if it%5 == 0 && len(b) > 1 {
			b[1] = b[0] // equal growths: ties go to the earlier box
		}
		tr := randomSmoothTraj(rng, 2+rng.Intn(14))
		want := assignSegmentsTables(tr, b)
		// buf is too short for the longer trajectories: both the in-place
		// and the fallback result must agree with the oracle.
		got := AssignSegmentsInto(buf[:0], tr, b)
		if len(got) != len(want) {
			t.Fatalf("it %d: %d indices, want %d", it, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("it %d: assignment %v, want %v", it, got, want)
			}
		}
		if len(want) <= len(buf) && &got[0] != &buf[0] {
			t.Fatalf("it %d: a %d-index result left the %d-index buffer", it, len(want), len(buf))
		}
	}
}

func TestAssignSegmentsZeroAllocs(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewSource(27))
	var b Boxes = boxesFor([]*traj.Trajectory{randomSmoothTraj(rng, 30)})
	tr := randomSmoothTraj(rng, 20)
	var buf [32]int
	AssignSegmentsInto(buf[:0], tr, b)
	if n := testing.AllocsPerRun(100, func() { AssignSegmentsInto(buf[:0], tr, b) }); n != 0 {
		t.Errorf("AssignSegmentsInto allocates %v per run, want 0", n)
	}
}

func TestAssignSegmentsPrefersCoveringBox(t *testing.T) {
	// Two far-apart boxes; a segment inside the second must map there.
	b := rectSeq{
		geom.RectOf(pt(0, 0), pt(1, 1)),
		geom.RectOf(pt(100, 100), pt(110, 110)),
	}
	tr := traj.FromXY(0, 102, 102, 105, 105)
	assign := AssignSegmentsInto(nil, tr, b)
	if len(assign) != 1 || assign[0] != 1 {
		t.Errorf("assignment = %v, want [1]", assign)
	}
}

func TestLowerBoundIsFiniteAndFast(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	group := []*traj.Trajectory{randomSmoothTraj(rng, 60)}
	b := boxesFor(group)
	q := randomSmoothTraj(rng, 60)
	lb := LowerBound(q, b)
	if math.IsInf(lb, 0) || math.IsNaN(lb) || lb < 0 {
		t.Errorf("invalid bound %v", lb)
	}
}
