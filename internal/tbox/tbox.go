// Package tbox implements the paper's trajectory bounding boxes
// (Definitions 4–5): st-boxes and trajectory box sequences (tBoxSeqs), the
// summaries TrajTree stores at its internal nodes. An st-box here is its
// rectangle alone: the MinL Definition 4 adds is read by no bound.
//
// A Seq is created from a pivot trajectory (one box per segment, the
// paper's createTBoxSeq(T)) and grows by absorbing further trajectories:
// each new trajectory's segments are assigned to boxes monotonically in box
// order, minimising volume growth — the merge step of Section IV-B — and
// the boxes are extended to contain them. The package maintains the
// containment invariant core.LowerBound's admissibility (Theorem 2) relies
// on: every absorbed trajectory's geometry lies inside its assigned boxes,
// in box order.
package tbox

import (
	"fmt"
	"math"

	"trajmatch/internal/core"
	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// Seq is a trajectory box sequence (Definition 5): its st-boxes'
// spatial bounding rectangles. Definition 4 also gives each st-box a
// MinL, the shortest segment it encloses; no bound reads it (the screens
// charge the query side, and the member side's weights are derived per
// member by package arena), so a Seq does not keep it.
//
// The rectangles live in one flat slab, the layout core.ScreenLowerBound
// scans, and the slab is the Seq: Insert and coarsen rewrite it in place,
// so the bound a search computes can never lag the boxes the sequence
// holds.
type Seq struct {
	rects []float64 // 4 per box: MinX, MinY, MaxX, MaxY
}

var _ core.Boxes = (*Seq)(nil)

// FromTrajectory creates the initial tBoxSeq of a pivot trajectory: one
// st-box per st-segment. MaxBoxes (if > 0) coarsens the sequence by
// repeatedly merging the adjacent pair whose union grows the least, keeping
// lower-bound evaluation cheap on long pivots.
func FromTrajectory(t *traj.Trajectory, maxBoxes int) *Seq {
	return &Seq{rects: AppendRects(make([]float64, 0, 4*t.NumSegments()), t, maxBoxes)}
}

// AppendRects appends to dst the rects of FromTrajectory(t, maxBoxes), 4
// values per box, and returns the extended slice: the box sequence alone,
// coarsened in dst's own tail, which holds one box per segment meanwhile.
func AppendRects(dst []float64, t *traj.Trajectory, maxBoxes int) []float64 {
	start := len(dst)
	for i := range t.NumSegments() {
		e := t.Segment(i)
		r := geom.RectOf(e.S1.XY(), e.S2.XY())
		dst = append(dst, r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
	}
	if maxBoxes > 0 {
		dst = dst[:start+len(coarsen(dst[start:], maxBoxes))]
	}
	return dst
}

// FromFlat reassembles a Seq from its rect slab (MinX, MinY, MaxX, MaxY
// per box), for deserialisation; the Seq takes ownership of it, and
// Insert rewrites it in place.
func FromFlat(rects []float64) *Seq { return &Seq{rects: rects} }

// Len implements core.Boxes.
func (s *Seq) Len() int { return len(s.rects) / 4 }

// Rect implements core.Boxes.
func (s *Seq) Rect(i int) geom.Rect { return rectAt(s.rects, i) }

// rectAt and putRect read and write box i of a flat rect slab.
func rectAt(rects []float64, i int) geom.Rect {
	r := rects[4*i : 4*i+4]
	return geom.Rect{Min: geom.Point{X: r[0], Y: r[1]}, Max: geom.Point{X: r[2], Y: r[3]}}
}

func putRect(rects []float64, i int, r geom.Rect) {
	w := rects[4*i : 4*i+4]
	w[0], w[1], w[2], w[3] = r.Min.X, r.Min.Y, r.Max.X, r.Max.Y
}

// Rects returns the boxes' rectangles as the flat MinX, MinY, MaxX, MaxY
// slab core.ScreenLowerBound takes. It aliases the sequence and is valid
// until the next Insert.
func (s *Seq) Rects() []float64 { return s.rects }

// assignStack is the number of segments whose assignment ExpansionCost and
// Insert keep on their stack; longer trajectories fall back to the heap.
const assignStack = 64

// ExpansionCost returns the total volume growth that absorbing t would
// cause — the argmin criterion of Algorithm 1, line 11 — without modifying
// the sequence.
func (s *Seq) ExpansionCost(t *traj.Trajectory) float64 {
	if len(s.rects) == 0 {
		return t.Bounds().Area()
	}
	// The assignment is monotone in box order, so the segments a box
	// absorbs are consecutive: grow each box over its run and add the
	// growths in ascending box order, a fixed summation order. The run's
	// extent is a flat min/max over its points, bit-identical to
	// extending the box point by point (an empty box included), and the
	// run holds at least one segment, so the grown box is never empty.
	var buf [assignStack]int
	assign := core.AssignSegmentsInto(buf[:0], t, s)
	v := t.View()
	var growth float64
	for i := 0; i < len(assign); {
		j := assign[i]
		r := s.rects[4*j : 4*j+4]
		x0, y0, x1, y1 := r[0], r[1], r[2], r[3]
		for ; i < len(assign) && assign[i] == j; i++ {
			x0 = min(x0, v.X[i], v.X[i+1])
			y0 = min(y0, v.Y[i], v.Y[i+1])
			x1 = max(x1, v.X[i], v.X[i+1])
			y1 = max(y1, v.Y[i], v.Y[i+1])
		}
		growth += (x1-x0)*(y1-y0) - s.Rect(j).Area()
	}
	return growth
}

// Insert absorbs t into the sequence, extending the assigned boxes to
// contain its segments.
func (s *Seq) Insert(t *traj.Trajectory) {
	if t.NumSegments() == 0 {
		return
	}
	if len(s.rects) == 0 {
		*s = *FromTrajectory(t, 0)
		return
	}
	var buf [assignStack]int
	for i, j := range core.AssignSegmentsInto(buf[:0], t, s) {
		e := t.Segment(i)
		putRect(s.rects, j, s.Rect(j).ExtendPoint(e.S1.XY()).ExtendPoint(e.S2.XY()))
	}
}

// Contains reports whether every segment of t lies inside a monotone
// assignment of boxes — the containment invariant. It is used by tests and
// failure-injection checks, not on the query path.
func (s *Seq) Contains(t *traj.Trajectory) bool {
	n := s.Len()
	if t.NumSegments() == 0 || n == 0 {
		return n > 0 || t.NumSegments() == 0
	}
	// Greedy monotone check: each segment must fit in some box at or after
	// the previous segment's box.
	j := 0
	for i := 0; i < t.NumSegments(); i++ {
		e := t.Segment(i)
		for j < n {
			r := s.Rect(j)
			if r.Contains(e.S1.XY()) && r.Contains(e.S2.XY()) {
				break
			}
			j++
		}
		if j == n {
			return false
		}
	}
	return true
}

// coarsen merges adjacent boxes of a rect slab until at most max remain,
// each merge picking the pair whose union adds the least area, and
// returns the shortened slab.
func coarsen(rects []float64, max int) []float64 {
	for len(rects) > 4*max {
		bestI := -1
		bestGrow := math.Inf(1)
		for i := 0; 4*(i+2) <= len(rects); i++ {
			a, b := rectAt(rects, i), rectAt(rects, i+1)
			grow := a.Union(b).Area() - a.Area() - b.Area()
			if grow < bestGrow {
				bestGrow = grow
				bestI = i
			}
		}
		i := bestI
		putRect(rects, i, rectAt(rects, i).Union(rectAt(rects, i+1)))
		rects = append(rects[:4*(i+1)], rects[4*(i+2):]...)
	}
	return rects
}

// Build constructs a tBoxSeq over a set of trajectories following the
// iterative procedure of Section IV-B: initialise from the first, then
// absorb the rest in order.
func Build(ts []*traj.Trajectory, maxBoxes int) *Seq {
	if len(ts) == 0 {
		return &Seq{}
	}
	s := FromTrajectory(ts[0], maxBoxes)
	for _, t := range ts[1:] {
		s.Insert(t)
	}
	return s
}

// String summarises the sequence for debugging, with its volume ΣVol(b_i)
// (in 2-D a box's volume is its area, Definition 5).
func (s *Seq) String() string {
	var vol float64
	for i := range s.Len() {
		vol += s.Rect(i).Area()
	}
	return fmt.Sprintf("tBoxSeq[%d boxes, vol %.2f]", s.Len(), vol)
}
