package core

import (
	"sync"

	"trajmatch/internal/geom"
)

// dpScratch holds the reusable buffers of the hot kernels: the two rolling
// DP rows of run (cur/next, m·nL states each) and the two rolling rows of
// LowerBound (dp/nxt, one state per box). A single pooled struct backs both
// so a query thread that alternates between bound evaluations and exact
// distances keeps hitting the same warm allocation.
//
// Buffers only ever grow; steady-state distance calls on trajectories no
// longer than any seen before perform zero allocations.
type dpScratch struct {
	rows []float64 // backing for run's cur and next (2·m·nL)
	lb   []float64 // backing for LowerBound's dp and nxt (2·nb)

	// Auxiliary per-column state of run: seg caches t2's segment lengths
	// (hoisted out of the cell loop — every sample-anchored layer reuses
	// them), projX/projY hold the INS2 projection computed at row i for
	// column j, which is exactly the layer-I2 head of cell (i+1, j), and
	// stamp records which row each cached projection belongs to.
	seg   []float64
	projX []float64
	projY []float64
	stamp []int32

	// rects is AssignSegmentsInto's devirtualised copy of the box sequence:
	// the Boxes interface is consulted once per box per call instead of
	// once per DP cell, and the inner loop streams over a contiguous rect
	// array.
	rects []geom.Rect

	// assign and from are AssignSegmentsInto's tables: the boxes' areas
	// and two rolling cost rows (nb states each), and one back-pointer
	// per (segment, box) cell.
	assign []float64
	from   []int32
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// dpRows returns cur and next row slices with m·nL states each.
func (s *dpScratch) dpRows(m int) (cur, next []float64) {
	need := 2 * m * nL
	if cap(s.rows) < need {
		s.rows = make([]float64, need)
	}
	r := s.rows[:need]
	return r[: m*nL : m*nL], r[m*nL:]
}

// auxRows returns the per-column auxiliary buffers of run, m entries each.
func (s *dpScratch) auxRows(m int) (seg, projX, projY []float64, stamp []int32) {
	if cap(s.seg) < m {
		s.seg = make([]float64, m)
		s.projX = make([]float64, m)
		s.projY = make([]float64, m)
		s.stamp = make([]int32, m)
	}
	return s.seg[:m], s.projX[:m], s.projY[:m], s.stamp[:m]
}

// lbRows returns dp and nxt row slices with nb states each.
func (s *dpScratch) lbRows(nb int) (dp, nxt []float64) {
	need := 2 * nb
	if cap(s.lb) < need {
		s.lb = make([]float64, need)
	}
	r := s.lb[:need]
	return r[:nb:nb], r[nb:]
}

// lbRects returns AssignSegmentsInto's devirtualised rect buffer, nb entries.
func (s *dpScratch) lbRects(nb int) []geom.Rect {
	if cap(s.rects) < nb {
		s.rects = make([]geom.Rect, nb)
	}
	return s.rects[:nb]
}

// assignRows returns AssignSegmentsInto's tables for n segments and nb boxes.
func (s *dpScratch) assignRows(n, nb int) (area, prev, cur []float64, from []int32) {
	if cap(s.assign) < 3*nb {
		s.assign = make([]float64, 3*nb)
	}
	if cap(s.from) < n*nb {
		s.from = make([]int32, n*nb)
	}
	r := s.assign[:3*nb]
	return r[:nb:nb], r[nb : 2*nb : 2*nb], r[2*nb:], s.from[:n*nb]
}
