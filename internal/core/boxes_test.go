package core

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

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
		assign := AssignSegments(t, seq)
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

func TestLowerBoundEmpty(t *testing.T) {
	q := traj.FromXY(0, 0, 0, 1, 1)
	if got := LowerBound(q, rectSeq(nil)); got != 0 {
		t.Errorf("LowerBound vs no boxes = %v, want 0", got)
	}
	pointTraj := traj.New(0, []traj.Point{traj.P(0, 0, 0)})
	b := rectSeq{geom.RectOf(geom.Pt(0, 0), geom.Pt(1, 1))}
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
		big[i] = r.ExtendPoint(geom.Pt(50, 50))
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
		assign := AssignSegments(tr, b)
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
		geom.RectOf(geom.Pt(0, 0), geom.Pt(1, 1)),
		geom.RectOf(geom.Pt(100, 100), geom.Pt(110, 110)),
	}
	tr := traj.FromXY(0, 102, 102, 105, 105)
	assign := AssignSegments(tr, b)
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
