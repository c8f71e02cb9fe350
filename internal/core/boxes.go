package core

import (
	"math"

	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// Boxes abstracts a trajectory box sequence (package tbox implements it).
// Using an interface here keeps the dependency arrow pointing from the
// index structures to the distance function, never back.
type Boxes interface {
	// Len returns the number of st-boxes in the sequence.
	Len() int
	// Rect returns the spatial extent of the i-th box.
	Rect(i int) geom.Rect
}

// LowerBound returns an admissible lower bound on EDwP(q, T) for every
// trajectory T summarised by the box sequence b — the operational form of
// the paper's EDwPsub(Q, tBoxSeq) (Theorem 2).
//
// The bound assigns each segment of q to one box, monotonically in box
// order, and charges 2·dist(segment, box) × length(segment); boxes may be
// skipped freely (the paper's free prefix/suffix skipping, extended to
// interior boxes, which is what makes the bound provably admissible under
// arbitrary re-partitioning of members — see "Bounds" in
// docs/ARCHITECTURE.md). Cost is O(len(q) · b.Len()).
//
// It is the reference the query path's bound is tested against, not the
// bound the query path pays for: searches prune with ScreenLowerBound, a
// relaxation of this DP that costs a sixth of it per call, and no
// non-test code calls it. It stays exported as the reference the tests of
// core, tbox and trajtree share.
//
// Admissibility sketch: fix a member T and an optimal EDwP(q, T) alignment.
// Every edit matches a piece of q's segment i against geometry of T lying
// inside some box k (construction invariant), so its rep cost is at least
// 2·dist(e_i, box_k) and its coverage at least the q-side piece length.
// Summing over the pieces of segment i and taking the best single box of
// the (monotone) run it spans yields exactly one path of this DP.
func LowerBound(q *traj.Trajectory, b Boxes) float64 {
	n := q.NumSegments()
	nb := b.Len()
	if n == 0 || nb == 0 {
		return 0
	}
	inf := math.Inf(1)
	// dp[j] = min cost having consumed segments < i, currently at box j.
	// Rows come from the shared kernel scratch pool, so steady-state bound
	// evaluations allocate nothing.
	scratch := scratchPool.Get().(*dpScratch)
	dp, nxt := scratch.lbRows(nb)
	for j := range dp {
		dp[j] = 0 // free skip of any box prefix
	}
	for i := 0; i < n; i++ {
		e := q.Segment(i).Spatial()
		l := e.Length()
		bestSoFar := inf
		for j := 0; j < nb; j++ {
			// Pass boxes freely: entering box j can come from any j' <= j.
			if dp[j] < bestSoFar {
				bestSoFar = dp[j]
			}
			nxt[j] = bestSoFar + 2*b.Rect(j).DistToSegment(e)*l
		}
		dp, nxt = nxt, dp
	}
	best := inf
	for j := 0; j < nb; j++ {
		if dp[j] < best {
			best = dp[j] // free skip of any box suffix
		}
	}
	scratchPool.Put(scratch)
	return best
}

// SegScreen is the pooled per-query state of ScreenLowerBound: each
// query segment's spatial bounding box and length, laid out as parallel
// arrays so the screen's inner loop is pure float arithmetic over
// contiguous memory. Reset once per query, then shared across every
// member screened.
type SegScreen struct {
	x0, y0, x1, y1, l []float64
}

// Reset fills the screen's arrays from q's segments.
func (s *SegScreen) Reset(q *traj.Trajectory) {
	n := q.NumSegments()
	if cap(s.l) < n {
		s.x0 = make([]float64, n)
		s.y0 = make([]float64, n)
		s.x1 = make([]float64, n)
		s.y1 = make([]float64, n)
		s.l = make([]float64, n)
	}
	s.x0, s.y0, s.x1, s.y1, s.l = s.x0[:n], s.y0[:n], s.x1[:n], s.y1[:n], s.l[:n]
	v := q.View()
	for i := 0; i < n; i++ {
		ax, bx := v.X[i], v.X[i+1]
		if bx < ax {
			ax, bx = bx, ax
		}
		ay, by := v.Y[i], v.Y[i+1]
		if by < ay {
			ay, by = by, ay
		}
		s.x0[i], s.x1[i] = ax, bx
		s.y0[i], s.y1[i] = ay, by
		dx := v.X[i+1] - v.X[i]
		dy := v.Y[i+1] - v.Y[i]
		s.l[i] = math.Sqrt(dx*dx + dy*dy)
	}
}

// ScreenLowerBound returns a cheap admissible lower bound on the raw
// (cumulative) EDwP(q, T) — and on EDwPsub(q, T) — for any trajectory T
// whose geometry lies inside the given rects: a flat slab of MinX, MinY,
// MaxX, MaxY quadruples, a node's tBoxSeq, a member's arena-resident box
// sequence or its single bounding box. It is the one bound primitive of
// the query path. It relaxes Theorem 2 twice: each query segment picks
// its best rect independently (the monotone-assignment constraint is
// dropped, which can only lower the value), and the rect-to-segment
// distance is relaxed to the rect-to-segment-bounding-box distance
// (again a lower bound). Both relaxations keep it below LowerBound,
// hence below EDwP; like LowerBound it charges only the query side of
// each edit's coverage and never uses that T is consumed in full, which
// is what makes it valid for EDwPsub and leaves room for
// ScreenMemberSide ("Bounds" in docs/ARCHITECTURE.md). The running sum
// only grows, so the scan early-exits as soon as it passes limit; the
// returned value is then merely "some value above limit".
func ScreenLowerBound(s *SegScreen, rects []float64, limit float64) float64 {
	sum := 0.0
	for i, l := range s.l {
		if l == 0 {
			continue
		}
		x0, y0, x1, y1 := s.x0[i], s.y0[i], s.x1[i], s.y1[i]
		best := math.Inf(1)
		for r := 0; r+3 < len(rects); r += 4 {
			if d2 := rectDist2(rects[r], rects[r+1], rects[r+2], rects[r+3], x0, y0, x1, y1); d2 < best {
				best = d2
				if best == 0 {
					break
				}
			}
		}
		if best > 0 {
			sum += 2 * math.Sqrt(best) * l
			if sum > limit {
				return sum
			}
		}
	}
	return sum
}

// rectDist2 is the squared distance between two axis-parallel rectangles
// given as min/max corners; 0 when they touch or overlap.
func rectDist2(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64) float64 {
	dx := 0.0
	if d := ax0 - bx1; d > 0 {
		dx = d
	} else if d := bx0 - ax1; d > 0 {
		dx = d
	}
	dy := 0.0
	if d := ay0 - by1; d > 0 {
		dy = d
	} else if d := by0 - ay1; d > 0 {
		dy = d
	}
	return dx*dx + dy*dy
}

// ScreenMemberSide adds the member side of the coverage to sum and
// returns the total, early-exiting like ScreenLowerBound once it passes
// limit. rects are boxes of one trajectory T and lens[k] the length of
// T's segments assigned to (and lying inside) box k. EDwP charges every
// edit rep × (|e1| + |e2|); ScreenLowerBound bounds the Σ rep·|e1| share
// from the query's segments, and global EDwP also consumes all of T, so
// the pieces of T inside box k carry at least lens[k] of |e2| coverage,
// each at a rep of at least twice the distance from box k to the nearest
// query segment's bounding box. The two shares are disjoint terms of the
// same sum, so they add. Not valid for EDwPsub, which may skip most of T.
func ScreenMemberSide(s *SegScreen, rects, lens []float64, sum, limit float64) float64 {
	if len(s.l) == 0 {
		return sum // a query without segments has no nearest segment to charge
	}
	for k, l := range lens {
		if l == 0 {
			continue
		}
		r := rects[4*k : 4*k+4]
		best := math.Inf(1)
		for i := range s.l {
			if d2 := rectDist2(r[0], r[1], r[2], r[3], s.x0[i], s.y0[i], s.x1[i], s.y1[i]); d2 < best {
				best = d2
				if best == 0 {
					break
				}
			}
		}
		if best > 0 {
			sum += 2 * math.Sqrt(best) * l
			if sum > limit {
				return sum
			}
		}
	}
	return sum
}

// AssignSegmentsInto maps each segment of t to one box of b, monotonically
// in box order, minimising the total enlargement this trajectory would
// cause: the cost of assigning segment i to box j is the area growth of
// box j when extended to cover the segment. It returns one box index per
// segment, written into dst's backing array when it is large enough, so
// a caller that only inspects the result can keep it on its stack.
//
// This realises the paper's createTBoxSeq(T, B) merge step: the alignment
// determines which boxes absorb which pieces of the new trajectory while
// keeping every point of the trajectory inside its assigned box — the
// containment invariant that LowerBound's admissibility rests on.
//
// The DP tables come from the pooled scratch: the bulk load asks for one
// assignment per (trajectory, candidate group) pair and would otherwise
// spend its time in the allocator and the collector.
func AssignSegmentsInto(dst []int, t *traj.Trajectory, b Boxes) []int {
	n := t.NumSegments()
	nb := b.Len()
	if n == 0 || nb == 0 {
		return nil
	}
	s := scratchPool.Get().(*dpScratch)
	defer scratchPool.Put(s)
	rects := s.lbRects(nb)
	area, prev, cur, from := s.assignRows(n, nb)
	for j := range rects {
		rects[j] = b.Rect(j)
		area[j] = rects[j].Area()
	}
	inf := math.Inf(1)
	v := t.View()
	// cur[j] is the cheapest cost of segments 0..i with segment i in box j;
	// from[i*nb+j] is the box segment i-1 took on that path. A box's
	// growth is the area of its union with the segment's bounding box:
	// min and max are exact, so the flat form is bit-identical to
	// extending the box by each end point, an empty box included.
	for i := 0; i < n; i++ {
		ax, ay, bx, by := v.X[i], v.Y[i], v.X[i+1], v.Y[i+1]
		x0, y0, x1, y1 := min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)
		best, bestJ := inf, -1 // prefix min over prev[0..j]
		for j, r := range rects {
			grow := (max(r.Max.X, x1)-min(r.Min.X, x0))*(max(r.Max.Y, y1)-min(r.Min.Y, y0)) - area[j]
			if i == 0 {
				cur[j] = grow
				continue
			}
			if prev[j] < best {
				best, bestJ = prev[j], j
			}
			cur[j], from[i*nb+j] = inf, -1
			if best < inf {
				cur[j], from[i*nb+j] = best+grow, int32(bestJ)
			}
		}
		prev, cur = cur, prev
	}
	// Terminal: best column in the last row, which the swap left in prev.
	j := 0
	for c := 1; c < nb; c++ {
		if prev[c] < prev[j] {
			j = c
		}
	}
	out := dst[:0]
	if cap(out) < n {
		out = make([]int, n)
	}
	out = out[:n]
	for i := n - 1; i >= 0; i-- {
		out[i] = j
		if i > 0 {
			j = int(from[i*nb+j])
		}
	}
	return out
}
