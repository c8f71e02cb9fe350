// Package arena implements the shard-level memory layout of the index:
// every member trajectory's samples live in shared structure-of-arrays
// slabs (parallel X/Y coordinate arrays plus an array-of-structs point
// slab that preserves timestamps), addressed through a per-trajectory
// (offset, length) table. The hot DP kernels stream over the contiguous
// coordinate slabs instead of chasing per-trajectory allocations, the
// per-member screen summaries (total spatial length, bounding box, and a
// coarsened box sequence with its segment lengths) back the leaf-level
// lower bound, installed on each member as windows into the slabs, and
// the whole layout serialises to a flat, checksummed, mmap-able snapshot
// section (see file.go) so a warm boot can serve straight from the page
// cache without deserialising.
//
// An Arena is immutable once built: inserts after a build live on the
// ordinary heap as an overlay (they have no arena entry) until the next
// Rebuild folds them into fresh slabs. Each carries the summary
// Summarize derives from its own samples, bit-identical to the windows a
// build would install, so every member is screened alike. A snapshot
// file holds no overlay: Encode writes every live member once, from its
// own samples and summary, so a loaded arena holds every member of the
// saved tree and no deleted one.
package arena

import (
	"fmt"
	"math"
	"slices"

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
// screen summary are primed as windows into the slabs, so the kernels and
// the screens never materialise per-call copies. Build is called under
// the same serialisation as any index (re)build; the trajectories must
// already be validated.
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
		a.pts = append(a.pts, m.Points...)
		for _, p := range m.Points {
			a.xs = append(a.xs, p.X)
			a.ys = append(a.ys, p.Y)
		}
		a.offs = append(a.offs, int64(len(a.pts)))
		a.ids = append(a.ids, int64(m.ID))
		a.labels = append(a.labels, int64(m.Label))
		a.lens = append(a.lens, m.Length())
		first := len(a.boxes)
		a.boxes = tbox.AppendRects(a.boxes, m, MemberBoxes)
		a.bbox = appendBounds(a.bbox, a.boxes[first:])
		a.boxOffs = append(a.boxOffs, int64(len(a.boxes)/4))
		a.byID[m.ID] = int32(i)
	}
	if err := a.deriveBoxLens(); err != nil {
		// The members are valid, AppendRects builds each box as the
		// union of a run of the member's own segments, and the length
		// and bbox above are the ones the walk derives, so it cannot
		// fail.
		panic(err)
	}
	a.prime(members)
	return a
}

// prime re-points each member at its slab window and installs its view
// and screen summary as capped windows into the slabs.
func (a *Arena) prime(members []*traj.Trajectory) {
	sums := make([]traj.Summary, len(members))
	for i, m := range members {
		start, end := a.offs[i], a.offs[i+1]
		b0, b1 := a.boxOffs[i], a.boxOffs[i+1]
		sums[i] = traj.Summary{BBox: a.bbox[4*i : 4*i+4 : 4*i+4], Length: a.lens[i : i+1 : i+1],
			Boxes: a.boxes[4*b0 : 4*b1 : 4*b1], BoxLens: a.boxLens[b0:b1:b1]}
		m.Points = a.pts[start:end:end]
		m.Prime(traj.View{X: a.xs[start:end:end], Y: a.ys[start:end:end]}, &sums[i])
	}
}

// Summarize returns tr's screen summary, bit-identical to the windows
// Build and Members install over the same samples, in one slab beside its
// header up to 64 segments. tr must be valid, as every member is: Insert
// validates it first.
func Summarize(tr *traj.Trajectory) *traj.Summary {
	var stack [4 * 64]float64
	rects := tbox.AppendRects(stack[:0], tr, MemberBoxes)
	k := len(rects) / 4
	slab := make([]float64, 5+5*k)
	s := &traj.Summary{BBox: appendBounds(slab[:0:4], rects), Length: slab[4:5:5],
		Boxes: slab[5 : 5+4*k : 5+4*k], BoxLens: slab[5+4*k:]}
	s.Length[0] = tr.Length()
	copy(s.Boxes, rects)
	v := tr.View()
	chargeSegments(v.X, v.Y, s.Boxes, s.BoxLens) // cannot miss, as in Build
	return s
}

// appendBounds appends the union of rects, 4 values per box, to dst.
func appendBounds(dst, rects []float64) []float64 {
	bb := geom.Empty()
	for k := 0; k+4 <= len(rects); k += 4 {
		bb = bb.Union(geom.Rect{Min: geom.Point{X: rects[k], Y: rects[k+1]}, Max: geom.Point{X: rects[k+2], Y: rects[k+3]}})
	}
	return append(dst, bb.Min.X, bb.Min.Y, bb.Max.X, bb.Max.Y)
}

// deriveBoxLens fills boxLens through chargeSegments, and checks every
// member as Insert checks a new member and Build summarises it: its
// samples pass traj.Validate and its coordinate slabs equal them, its
// stored length is the sum of its segments' lengths, and its stored bbox
// is the union of its boxes. The slabs of a decoded file come from
// another process, or another machine, so this is the loader's one
// member check. A sample Validate refuses, slabs that disagree, a
// segment no box contains (boxes that are not the member's), or a length
// or bbox the member's own samples and boxes do not give is ErrCorrupt:
// a screen over a wrong length or bbox could reject a true neighbour.
func (a *Arena) deriveBoxLens() error {
	a.boxLens = make([]float64, len(a.boxes)/4)
	var bb [4]float64
	for m := range a.ids {
		p0, p1, b0, b1 := a.offs[m], a.offs[m+1], a.boxOffs[m], a.boxOffs[m+1]
		pts, xs, ys := a.pts[p0:p1], a.xs[p0:p1], a.ys[p0:p1]
		if err := (&traj.Trajectory{Points: pts}).Validate(); err != nil {
			return fmt.Errorf("%w: member %d: %v", ErrCorrupt, m, err)
		}
		for j, p := range pts {
			if xs[j] != p.X || ys[j] != p.Y {
				return fmt.Errorf("%w: member %d: coordinate slabs disagree with sample %d", ErrCorrupt, m, j)
			}
		}
		length, seg := chargeSegments(xs, ys, a.boxes[4*b0:4*b1], a.boxLens[b0:b1])
		if seg >= 0 {
			return fmt.Errorf("%w: member %d: segment %d lies in none of its boxes", ErrCorrupt, m, seg)
		}
		if length != a.lens[m] {
			return fmt.Errorf("%w: member %d: stored length %v, its segments sum to %v", ErrCorrupt, m, a.lens[m], length)
		}
		if got := appendBounds(bb[:0], a.boxes[4*b0:4*b1]); !slices.Equal(got, a.bbox[4*m:4*m+4]) {
			return fmt.Errorf("%w: member %d: stored bbox %v, its boxes span %v", ErrCorrupt, m, a.bbox[4*m:4*m+4], got)
		}
	}
	return nil
}

// chargeSegments adds the length of every segment of the samples xs, ys
// to lens[k] of the first box k of rects, at or after its predecessor's,
// that contains both its end points, and returns the samples' length,
// the segment lengths summed in order exactly as traj.Length sums them,
// and -1; or the index of the first segment no remaining box contains.
// Any assignment of segments to boxes containing them makes the member
// side admissible (its argument only needs the segment's geometry to lie
// inside the box it is charged to); this walk is the cheapest one that
// always succeeds on boxes AppendRects made, because box k is the union
// of the k-th run of consecutive segments and so the walk never gets
// ahead of a segment's own run.
func chargeSegments(xs, ys, rects, lens []float64) (float64, int) {
	k, length := 0, 0.0
	for p := 0; p+1 < len(xs); p++ {
		ax, ay, bx, by := xs[p], ys[p], xs[p+1], ys[p+1]
		for ; k < len(lens); k++ {
			if r := rects[4*k : 4*k+4]; r[0] <= min(ax, bx) && max(ax, bx) <= r[2] &&
				r[1] <= min(ay, by) && max(ay, by) <= r[3] {
				break
			}
		}
		if k == len(lens) {
			return length, p
		}
		// geom.Point.Dist's expression, operand for operand, so the sum
		// is traj.Length's bit for bit.
		dx, dy := ax-bx, ay-by
		l := math.Sqrt(dx*dx + dy*dy)
		lens[k] += l
		length += l
	}
	return length, -1
}

// Index returns the arena index of tr: the entry under tr's ID, when it
// is tr's own — tr's samples are that entry's slab window, as they are
// for every trajectory Build re-pointed and Members materialised. A
// trajectory inserted under the ID of a deleted member has an entry
// under its ID that holds the deleted member's samples, not its own, and
// is reported absent.
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
