package sketch

import (
	"math"
	"slices"
	"sync"

	"trajmatch/internal/traj"
)

// splitmix64 is the same finalizer the shard router uses: a cheap,
// well-mixed 64-bit permutation. All sketch hashing composes it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix2 combines two words through the finalizer; used for token,
// shingle and band-key construction.
func mix2(a, b uint64) uint64 { return splitmix64(a ^ splitmix64(b)) }

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
	return mix2(uint64(ix), uint64(iy))
}

// coarseFactor is the pitch multiple of the second, coarser cell level.
// Fine cells drive the shingles, signatures and primary overlap
// ranking; coarse cells (coarseFactor× the pitch) exist so members that
// are spatially near a query without sharing a single fine cell — the
// parallel-street case — still rank above the arbitrary rest when the
// candidate budget has room left.
const coarseFactor = 8

// tokensAt appends tr's ordered cell-token sequence at the given pitch
// to dst. It walks each segment's interpolated movement at half-cell
// steps — emitting every cell the movement passes through, not just the
// sampled points — and collapses consecutive duplicates. Two
// trajectories along the same path at different sampling rates
// therefore emit nearly identical sequences, which is what makes the
// fingerprint usable under the paper's inconsistent-sampling premise.
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

// shingles returns the hashed k-gram set of the ordered token sequence
// in buf's storage (sorted, distinct). Each gram g is stored as
// splitmix64(g), the inner hash of the signature's mix2(seed, g) =
// splitmix64(seed ^ splitmix64(g)), so it is taken once per shingle
// rather than once per seed; splitmix64 is a bijection, so the set has
// as many members as the gram set. Sequences shorter than the shingle
// length contribute one whole-sequence shingle, so every tokenizable
// trajectory has a non-empty set; an empty token sequence yields an
// empty set.
func (ix *Index) shingles(buf, toks []uint64) []uint64 {
	buf = buf[:0]
	if k := ix.p.Shingle; len(toks) < k {
		if len(toks) > 0 {
			buf = append(buf, splitmix64(gram(toks)))
		}
	} else {
		for i := 0; i+k <= len(toks); i++ {
			buf = append(buf, splitmix64(gram(toks[i:i+k])))
		}
	}
	return dedupe(buf)
}

// gram hashes one ordered token run into a single shingle value; the
// k-gram sets and the short-sequence whole-run fallback both build on
// it.
func gram(ts []uint64) uint64 {
	h := uint64(0x5851f42d4c957f2d)
	for _, t := range ts {
		h = mix2(h, t)
	}
	return h
}

// signature returns the MinHash signature of a hashed shingle set in
// buf's storage: one minimum per seeded hash function, splitmix64(seed
// ^ h) over the set's hashes h. An empty set yields an empty signature
// (the member lands in no band and is reachable only through the
// overlap ranking and the full-scan floor).
func (ix *Index) signature(buf, hashed []uint64) []uint64 {
	dst := buf[:0]
	if len(hashed) == 0 {
		return dst
	}
	for _, seed := range ix.seeds {
		min := uint64(math.MaxUint64)
		for _, h := range hashed {
			if v := splitmix64(seed ^ h); v < min {
				min = v
			}
		}
		dst = append(dst, min)
	}
	return dst
}

// bandKeys folds the signature into one bucket key per band, in buf's
// storage. Keys mix in the band index, so identical row values in
// different bands cannot collide into one bucket.
func (ix *Index) bandKeys(buf, sig []uint64) []uint64 {
	dst := buf[:0]
	if len(sig) == 0 {
		return dst
	}
	for b := 0; b < ix.p.Bands; b++ {
		h := splitmix64(uint64(b) + 0x9e3779b97f4a7c15)
		for r := 0; r < ix.rows; r++ {
			h = mix2(h, sig[b*ix.rows+r])
		}
		dst = append(dst, h)
	}
	return dst
}

// keyBuf is the working memory of one member's key computation, pooled
// across Insert, Build and Candidates.
type keyBuf struct {
	fine, coarse, shingles, sig, bands []uint64
}

var keyPool = sync.Pool{New: func() any { return new(keyBuf) }}

// keys computes everything the index files tr under: its band keys and
// its distinct fine and coarse cell tokens, sorted. It is the one
// per-member step that Insert, Build and Candidates share. The returned
// slices alias b and are valid until b's next use.
func (ix *Index) keys(tr *traj.Trajectory, b *keyBuf) (bands, fine, coarse []uint64) {
	b.fine = tokensAt(b.fine[:0], tr, ix.p.CellSize)
	b.shingles = ix.shingles(b.shingles, b.fine)
	b.sig = ix.signature(b.sig, b.shingles)
	b.bands = ix.bandKeys(b.bands, b.sig)
	b.coarse = tokensAt(b.coarse[:0], tr, ix.p.CellSize*coarseFactor)
	return b.bands, dedupe(b.fine), dedupe(b.coarse)
}

// dedupe sorts an ordered token sequence in place and returns its
// distinct tokens — the posting-list keys.
func dedupe(toks []uint64) []uint64 {
	slices.Sort(toks)
	return slices.Compact(toks)
}
