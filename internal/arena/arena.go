// Package arena implements the shard-level memory layout of the index:
// every member trajectory's samples live in shared structure-of-arrays
// slabs (parallel X/Y coordinate arrays plus an array-of-structs point
// slab that preserves timestamps), addressed through a per-trajectory
// (offset, length) table. The hot DP kernels stream over the contiguous
// coordinate slabs instead of chasing per-trajectory allocations, the
// per-member summaries (total spatial length, bounding box, and a
// coarsened box sequence) back the batched leaf-level lower-bound pass,
// and the whole layout serialises to a flat, checksummed, mmap-able
// snapshot section (see file.go) so a warm boot can serve straight from
// the page cache without deserialising.
//
// An Arena is immutable once built: inserts after a build live on the
// ordinary heap as an overlay (they simply have no arena entry) until
// the next Rebuild folds them into fresh slabs.
package arena

import (
	"fmt"
	"math"

	"trajmatch/internal/geom"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

// MemberBoxes is the box budget of the per-member summaries: the same
// coarsening budget the candidate verification path used to spend per
// query, paid once at build time instead.
const MemberBoxes = 16

// Arena is one shard's slab storage plus the per-member summary tables.
type Arena struct {
	// Point storage: member i's samples are pts[offs[i]:offs[i+1]], with
	// the spatial projection split into xs/ys over the same index range.
	pts  []traj.Point
	xs   []float64
	ys   []float64
	offs []int64

	// Per-member identity and summaries.
	ids    []int64
	labels []int64
	lens   []float64 // total spatial length (traj.Length)
	bbox   []float64 // 4 per member: MinX, MinY, MaxX, MaxY

	// Coarsened per-member box sequences (tbox.FromTrajectory with the
	// MemberBoxes budget), flattened: member i's rects are
	// boxes[4*boxOffs[i] : 4*boxOffs[i+1]] as MinX, MinY, MaxX, MaxY
	// quadruples.
	boxes   []float64
	boxOffs []int64
	// boxLens[k] is the length of the owning member's segments assigned
	// to box k of the boxes slab — the weights of the member side of the
	// screen (core.ScreenMemberSide). Derived from xs/ys and boxes by
	// deriveBoxLens at Build and at decode alike; never stored.
	boxLens []float64

	byID map[int]int32

	// mapped is non-nil when the slabs alias an mmap'd snapshot file
	// (the mapping itself, kept alive for the arena's lifetime).
	mapped []byte
}

// Build constructs an arena over members: samples are copied into fresh
// contiguous slabs, each trajectory's Points is re-pointed at its slab
// window (bit-identical values, shared backing), and its SoA view and
// cached length are primed so the kernels never materialise per-call
// copies. Build is called under the same serialisation as any index
// (re)build; the trajectories must already be validated.
func Build(members []*traj.Trajectory) *Arena {
	a := &Arena{
		offs:    make([]int64, 1, len(members)+1),
		boxOffs: make([]int64, 1, len(members)+1),
		ids:     make([]int64, 0, len(members)),
		labels:  make([]int64, 0, len(members)),
		lens:    make([]float64, 0, len(members)),
		bbox:    make([]float64, 0, 4*len(members)),
		byID:    make(map[int]int32, len(members)),
	}
	total := 0
	for _, m := range members {
		total += len(m.Points)
	}
	a.pts = make([]traj.Point, 0, total)
	a.xs = make([]float64, 0, total)
	a.ys = make([]float64, 0, total)
	for i, m := range members {
		start := len(a.pts)
		a.pts = append(a.pts, m.Points...)
		for _, p := range m.Points {
			a.xs = append(a.xs, p.X)
			a.ys = append(a.ys, p.Y)
		}
		end := len(a.pts)
		a.offs = append(a.offs, int64(end))
		a.ids = append(a.ids, int64(m.ID))
		a.labels = append(a.labels, int64(m.Label))
		a.lens = append(a.lens, m.Length())
		seq := tbox.FromTrajectory(m, MemberBoxes)
		bb := geom.Empty()
		for j := 0; j < seq.Len(); j++ {
			r := seq.Rect(j)
			a.boxes = append(a.boxes, r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
			bb = bb.Union(r)
		}
		a.boxOffs = append(a.boxOffs, int64(len(a.boxes)/4))
		a.bbox = append(a.bbox, bb.Min.X, bb.Min.Y, bb.Max.X, bb.Max.Y)
		a.byID[m.ID] = int32(i)

		// Re-point the trajectory at its slab window and prime the SoA
		// view; the capped slice keeps appends elsewhere from spilling
		// into the next member's window.
		m.Points = a.pts[start:end:end]
		m.Prime(traj.View{X: a.xs[start:end:end], Y: a.ys[start:end:end]}, a.lens[i])
	}
	if err := a.deriveBoxLens(); err != nil {
		// FromTrajectory builds each box as the union of a run of the
		// member's own segments, so the walk cannot miss.
		panic(err)
	}
	return a
}

// deriveBoxLens fills boxLens: every segment of every member adds its
// length to the first box, at or after its predecessor's, that contains
// both its end points. Any assignment of segments to boxes containing
// them makes the member side admissible (its argument only needs the
// segment's geometry to lie inside the box it is charged to); this walk
// is the cheapest one that always succeeds on boxes FromTrajectory made,
// because box k is the union of the k-th run of consecutive segments
// and so the walk never gets ahead of a segment's own run. A segment no
// remaining box contains means the boxes are not this member's:
// ErrCorrupt.
func (a *Arena) deriveBoxLens() error {
	a.boxLens = make([]float64, len(a.boxes)/4)
	for m := range a.ids {
		k, end := a.boxOffs[m], a.boxOffs[m+1]
		for p := a.offs[m]; p+1 < a.offs[m+1]; p++ {
			ax, ay, bx, by := a.xs[p], a.ys[p], a.xs[p+1], a.ys[p+1]
			for ; k < end; k++ {
				if r := a.boxes[4*k : 4*k+4]; r[0] <= min(ax, bx) && max(ax, bx) <= r[2] &&
					r[1] <= min(ay, by) && max(ay, by) <= r[3] {
					break
				}
			}
			if k == end {
				return fmt.Errorf("%w: member %d: segment %d lies in none of its boxes", ErrCorrupt, m, p-a.offs[m])
			}
			a.boxLens[k] += math.Sqrt((bx-ax)*(bx-ax) + (by-ay)*(by-ay))
		}
	}
	return nil
}

// Len returns the number of member trajectories in the arena.
func (a *Arena) Len() int { return len(a.ids) }

// Index returns the arena index of tr: the entry under tr's ID, when it
// is tr's own — tr's samples are that entry's slab window, as they are
// for every trajectory Build re-pointed and Members materialised. A
// trajectory inserted under the ID of a deleted member has an entry
// under its ID that summarises the deleted member's samples, not its
// own, and is reported absent.
func (a *Arena) Index(tr *traj.Trajectory) (int, bool) {
	i, ok := a.byID[tr.ID]
	if !ok {
		return 0, false
	}
	start := a.offs[i]
	if n := len(tr.Points); n == 0 || int64(n) != a.offs[i+1]-start || &tr.Points[0] != &a.pts[start] {
		return 0, false
	}
	return int(i), true
}

// Length returns member i's total spatial length (identical to the
// trajectory's cached Length).
func (a *Arena) Length(i int) float64 { return a.lens[i] }

// LengthSlab is Length as a one-value window, the weight that pairs
// with BBox the way BoxLens pairs with Boxes.
func (a *Arena) LengthSlab(i int) []float64 { return a.lens[i : i+1] }

// BBox returns member i's spatial bounding box as a 4-float window
// (MinX, MinY, MaxX, MaxY) into the shared slab.
func (a *Arena) BBox(i int) []float64 { return a.bbox[4*i : 4*i+4] }

// Boxes returns member i's coarsened box-sequence rects as a flat
// window of MinX, MinY, MaxX, MaxY quadruples.
func (a *Arena) Boxes(i int) []float64 {
	return a.boxes[4*a.boxOffs[i] : 4*a.boxOffs[i+1]]
}

// BoxLens returns, parallel to Boxes(i), the length of member i's
// segments inside each box; the values sum to Length(i) up to rounding.
func (a *Arena) BoxLens(i int) []float64 {
	return a.boxLens[a.boxOffs[i]:a.boxOffs[i+1]]
}

// MemStats describes an arena's residency for observability endpoints.
type MemStats struct {
	// Members and Points count the slab-resident trajectories and their
	// samples; trajectories inserted after the build (the overlay) are
	// not included.
	Members int `json:"members"`
	Points  int `json:"points"`
	// Bytes is the total slab footprint (point, coordinate, and summary
	// slabs). For an mmap-backed arena this is file-backed page-cache
	// residency, not heap.
	Bytes int `json:"bytes"`
	// Mapped reports whether the slabs alias an mmap'd snapshot file
	// rather than heap allocations.
	Mapped bool `json:"mapped"`
}

// Stats returns the arena's residency counters.
func (a *Arena) Stats() MemStats {
	if a == nil {
		return MemStats{}
	}
	return MemStats{
		Members: len(a.ids),
		Points:  len(a.pts),
		Bytes: 24*len(a.pts) + 8*(len(a.xs)+len(a.ys)+len(a.lens)+len(a.bbox)+len(a.boxes)+len(a.boxLens)) +
			8*(len(a.offs)+len(a.ids)+len(a.labels)+len(a.boxOffs)),
		Mapped: a.mapped != nil,
	}
}
