package sketch

import (
	"math"
	"slices"
	"sync"

	"trajmatch/internal/traj"
)

// splitmix64 is the same finalizer the shard router uses: a cheap,
// well-mixed 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cellCoordLimit clamps quantized cell coordinates. The corpora live
// within a few thousand cells of the origin; the clamp only matters for
// adversarial inputs (fuzzing feeds near-±MaxFloat64 coordinates, whose
// quotient overflows int64), where collapsing everything beyond ±2³¹
// onto the boundary cell keeps tokenization total and deterministic.
const cellCoordLimit = int64(1) << 31

// quantize maps one coordinate onto its cell index, clamped.
func quantize(v, cell float64) int64 {
	f := math.Floor(v / cell)
	switch {
	case math.IsNaN(f):
		return 0
	case f >= float64(cellCoordLimit):
		return cellCoordLimit
	case f <= -float64(cellCoordLimit):
		return -cellCoordLimit
	}
	return int64(f)
}

// cellToken hashes a cell coordinate pair into one 64-bit token.
func cellToken(ix, iy int64) uint64 {
	return splitmix64(uint64(ix) ^ splitmix64(uint64(iy)))
}

// coarseFactor is the pitch multiple of the second, coarser cell level.
// Fine cells drive the primary overlap ranking; coarse cells
// (coarseFactor× the pitch) exist so members that are spatially near a
// query without sharing a single fine cell — the parallel-street case —
// still rank above the arbitrary rest when the candidate budget has
// room left.
const coarseFactor = 8

// tokensAt appends tr's ordered cell-token sequence at the given pitch
// to dst. It walks each segment's interpolated movement at half-cell
// steps — emitting every cell the movement passes through, not just the
// sampled points — and collapses consecutive duplicates. Two
// trajectories along the same path at different sampling rates
// therefore emit nearly identical sequences, which is what makes the
// overlap ranking usable under the paper's inconsistent-sampling premise.
// Non-finite points are skipped (indexed trajectories never carry them;
// fuzzing does).
func tokensAt(dst []uint64, tr *traj.Trajectory, cell float64) []uint64 {
	w := cellWalk{cell: cell}
	w.feed(tr.Points, func(t uint64) { dst = append(dst, t) })
	return dst
}

// cellWalk is the resumable tokenization cursor: it carries the
// consecutive-duplicate collapse state and the previous raw point across
// feed calls, so feeding a point sequence in arbitrary chunks emits
// exactly the token stream of feeding it whole. Index tokenizes a
// finished trajectory through a throwaway walk; Stream keeps one alive
// per growing track so each append tokenizes only the new segments.
type cellWalk struct {
	cell           float64
	lastCx, lastCy int64
	haveCell       bool
	prev           traj.Point
	havePrev       bool
}

// feed advances the walk over pts, invoking emit for every newly entered
// cell. Segment interiors are walked at half-cell steps so every
// traversed cell is emitted regardless of sampling rate; non-finite
// points are skipped (and suppress the walk of their adjacent segments)
// but still become the predecessor of the next point, mirroring the
// whole-array semantics.
func (w *cellWalk) feed(pts []traj.Point, emit func(uint64)) {
	emitXY := func(x, y float64) {
		cx, cy := quantize(x, w.cell), quantize(y, w.cell)
		if w.haveCell && cx == w.lastCx && cy == w.lastCy {
			return
		}
		w.lastCx, w.lastCy = cx, cy
		w.haveCell = true
		emit(cellToken(cx, cy))
	}
	for _, p := range pts {
		if finite(p.X) && finite(p.Y) {
			if w.havePrev && finite(w.prev.X) && finite(w.prev.Y) {
				// Walk the segment interior at half-cell steps so every
				// traversed cell is emitted regardless of sampling rate.
				px, py := w.prev.X, w.prev.Y
				dx, dy := p.X-px, p.Y-py
				dist := math.Hypot(dx, dy)
				if finite(dist) && dist > w.cell/2 {
					steps := int(dist / (w.cell / 2))
					if steps > maxWalkSteps {
						steps = maxWalkSteps
					}
					for s := 1; s < steps; s++ {
						f := float64(s) / float64(steps)
						emitXY(px+f*dx, py+f*dy)
					}
				}
			}
			emitXY(p.X, p.Y)
		}
		w.prev = p
		w.havePrev = true
	}
}

// maxWalkSteps caps the per-segment walk so one absurdly long segment
// (fuzzing, corrupt input) cannot make tokenization unbounded; beyond
// the cap the walk subsamples the segment uniformly instead.
const maxWalkSteps = 1 << 12

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// keyBuf is the working memory of one member's key computation, pooled
// across Insert, Build and Candidates.
type keyBuf struct {
	fine, coarse []uint64
}

var keyPool = sync.Pool{New: func() any { return new(keyBuf) }}

// keys computes everything the index files tr under: its distinct fine
// and coarse cell tokens, sorted. It is the one per-member step that
// Insert, Build and Candidates share. The returned slices alias b and
// are valid until b's next use.
func (ix *Index) keys(tr *traj.Trajectory, b *keyBuf) (fine, coarse []uint64) {
	b.fine = tokensAt(b.fine[:0], tr, ix.p.CellSize)
	b.coarse = tokensAt(b.coarse[:0], tr, ix.p.CellSize*coarseFactor)
	return dedupe(b.fine), dedupe(b.coarse)
}

// dedupe sorts an ordered token sequence in place and returns its
// distinct tokens — the posting-list keys.
func dedupe(toks []uint64) []uint64 {
	slices.Sort(toks)
	return slices.Compact(toks)
}
