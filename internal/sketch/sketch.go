// Package sketch is the sub-linear candidate generator in front of the
// exact metric backends: a Geodabs-style fingerprint index (PAPERS.md,
// "Geodabs: Trajectory Indexing Meets Fingerprinting at Scale") that
// turns each trajectory into a set of grid-cell shingles, compresses the
// set into a MinHash signature, and files the signature into a banded
// LSH inverted index. A query probes its own bands and gets back a small
// candidate set — trajectories whose shingle sets are likely similar —
// which the exact bounded kernels then verify under the engine's shared
// k-th-best bound. The prefilter trades nothing for correctness on the
// verified answers themselves (every returned distance is exact); what
// it trades is recall — a true neighbour absent from the candidate set
// is never examined — so the index stacks two mechanisms whose union
// keeps measured recall@k high (see docs/ARCHITECTURE.md, "Candidate
// prefilter"):
//
//   - banded MinHash-LSH: trajectories colliding with the query in at
//     least one signature band (high-Jaccard matches surface with high
//     probability, the classic b×r amplification);
//   - overlap ranking: the cell posting lists rank trajectories by how
//     many grid cells they share with the query, and the top `want` are
//     always admitted — the robustness backstop for moderate-Jaccard
//     true neighbours that banding alone would miss.
//
// Tokenization walks the *interpolated* movement, emitting every cell a
// segment passes through rather than only the sampled points, so two
// trajectories following the same path at different sampling rates
// produce nearly identical token sets — the inconsistent-sampling
// premise of the source paper carries down into the prefilter layer.
//
// An Index is safe for concurrent use: Candidates takes a read lock,
// Insert/Delete/Clear a write lock. All randomness derives from
// Params.Seed, so equal corpora under equal parameters produce equal
// candidate sets — the property the snapshot warm-boot path relies on to
// rebuild the prefilter deterministically instead of persisting it.
package sketch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"trajmatch/internal/backend"
	"trajmatch/internal/traj"
)

// Params fix the sketch geometry for a whole corpus. Like EDR's ε they
// must be chosen once, before sharding, so every shard tokenizes
// identically; the snapshot manifest records the resolved values. The
// zero value of every field selects a default (WithDefaults).
type Params struct {
	// CellSize is the tokenization grid pitch in corpus units (metres
	// for the synthetic taxi corpora). 0 derives it from the database at
	// engine build time (DeriveCellSize: half the median spatial segment
	// length, the same whole-corpus-statistic pattern as EDR's ε).
	CellSize float64 `json:"cell_size"`
	// Shingle is the number of consecutive cell tokens per shingle
	// (k-gram). Default 2. Trajectories with fewer tokens contribute one
	// whole-sequence shingle instead, so every valid trajectory has a
	// non-empty shingle set.
	Shingle int `json:"shingle"`
	// Hashes is the MinHash signature length; must be divisible by
	// Bands. Default 64.
	Hashes int `json:"hashes"`
	// Bands is the LSH band count; rows per band = Hashes/Bands.
	// Default 16 (so 4 rows per band).
	Bands int `json:"bands"`
	// MinCands is the per-query floor of the candidate set (before the
	// query's own k scales it up; the engine requests
	// max(MinCands, 4·k)). The overlap ranking widens the LSH matches up
	// to this size, and a shard smaller than the floor degrades to a
	// full scan — exact by construction. Default 32.
	MinCands int `json:"min_cands"`
	// Seed drives every hash function. Default 1.
	Seed int64 `json:"seed"`
}

// WithDefaults returns p with every unset field replaced by its default
// — the normal form the snapshot manifest records. CellSize stays 0
// when unset; it is corpus-derived, not defaulted (resolve it with
// DeriveCellSize before building an Index).
func (p Params) WithDefaults() Params {
	if p.Shingle <= 0 {
		p.Shingle = 2
	}
	if p.Hashes <= 0 {
		p.Hashes = 64
	}
	if p.Bands <= 0 {
		p.Bands = 16
	}
	if p.MinCands <= 0 {
		p.MinCands = 32
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Validate rejects parameter combinations an Index cannot be built
// with. It expects a resolved CellSize (> 0).
func (p Params) Validate() error {
	if !(p.CellSize > 0) || math.IsInf(p.CellSize, 1) {
		return fmt.Errorf("sketch: cell size must be positive and finite (got %v)", p.CellSize)
	}
	if p.Shingle <= 0 {
		return fmt.Errorf("sketch: shingle length must be positive (got %d)", p.Shingle)
	}
	if p.Hashes <= 0 || p.Bands <= 0 || p.Hashes%p.Bands != 0 {
		return fmt.Errorf("sketch: hashes (%d) must be a positive multiple of bands (%d)", p.Hashes, p.Bands)
	}
	if p.MinCands <= 0 {
		return fmt.Errorf("sketch: min cands must be positive (got %d)", p.MinCands)
	}
	return nil
}

// DeriveCellSize picks a tokenization pitch from whole-corpus
// statistics: half the median spatial segment length, so a typical
// sampling interval crosses a couple of cells and the segment walk in
// between fills the gaps. Falls back to 1 for corpora without a single
// positive-length segment (all-stationary or empty databases), where
// any pitch tokenizes everything into one cell anyway.
func DeriveCellSize(db []*traj.Trajectory) float64 {
	var lens []float64
	for _, t := range db {
		for i := 0; i < t.NumSegments(); i++ {
			if l := t.Segment(i).Length(); l > 0 && !math.IsInf(l, 1) {
				lens = append(lens, l)
			}
		}
	}
	if len(lens) == 0 {
		return 1
	}
	sort.Float64s(lens)
	c := lens[len(lens)/2] / 2
	if !(c > 0) {
		return 1
	}
	return c
}

// Index is one shard's fingerprint index. Every member occupies an
// int32 slot in a dense slot table (ID, band keys and cell tokens);
// slots freed by Delete are reused by later inserts, so the table never
// outgrows the peak live count. The banded LSH buckets and the fine and
// coarse cell posting lists map each key to the slots filed under it,
// which lets Candidates count overlaps into flat per-slot counters
// instead of per-query maps. It implements backend.CandidateSource.
type Index struct {
	p     Params
	rows  int
	seeds []uint64 // one per MinHash function

	mu     sync.RWMutex
	bands  map[uint64][]int32 // band bucket key -> member slots
	cells  map[uint64][]int32 // fine cell token -> member slots
	coarse map[uint64][]int32 // coarse cell token -> member slots
	slotOf map[int]int32      // member ID -> slot
	slots  []member           // slot table; free slots hold the zero member
	free   []int32            // free slots, reused last-freed first
}

// member is one slot's record: the ID it holds and the buckets it was
// filed under (Delete unfiles exactly these; Candidates reads the token
// counts as the Jaccard set sizes).
type member struct {
	id         int
	bandKeys   []uint64
	cellToks   []uint64
	coarseToks []uint64
}

// NewIndex builds an empty index; Params must Validate.
func NewIndex(p Params) (*Index, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		p:      p,
		rows:   p.Hashes / p.Bands,
		seeds:  make([]uint64, p.Hashes),
		bands:  make(map[uint64][]int32),
		cells:  make(map[uint64][]int32),
		coarse: make(map[uint64][]int32),
		slotOf: make(map[int]int32),
	}
	s := uint64(p.Seed)
	for i := range ix.seeds {
		s = splitmix64(s)
		ix.seeds[i] = s
	}
	return ix, nil
}

// Build constructs an index over db, used by the engine's per-shard
// bulk load and the snapshot warm boot (rebuilding is deterministic, so
// the prefilter itself is never persisted).
func Build(db []*traj.Trajectory, p Params) (*Index, error) {
	ix, err := NewIndex(p)
	if err != nil {
		return nil, err
	}
	for _, t := range db {
		ix.Insert(t)
	}
	return ix, nil
}

// Size returns the number of indexed trajectories.
func (ix *Index) Size() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.slotOf)
}

// Insert files tr into the LSH buckets and posting lists. Re-inserting
// an ID replaces its previous entry (the engine never does; the
// robustness matters for op-sequence tests).
func (ix *Index) Insert(tr *traj.Trajectory) {
	toks := ix.tokens(tr)
	m := member{
		id:         tr.ID,
		bandKeys:   ix.bandKeys(ix.signature(ix.shingles(toks))),
		cellToks:   dedupe(toks),
		coarseToks: dedupe(ix.tokensAt(tr, ix.p.CellSize*coarseFactor)),
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(tr.ID)
	var slot int32
	if n := len(ix.free); n > 0 {
		slot = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.slots[slot] = m
	} else {
		slot = int32(len(ix.slots))
		ix.slots = append(ix.slots, m)
	}
	ix.slotOf[tr.ID] = slot
	file(ix.bands, m.bandKeys, slot)
	file(ix.cells, m.cellToks, slot)
	file(ix.coarse, m.coarseToks, slot)
}

// Delete removes the member with the given ID, reporting whether it was
// indexed. A deleted ID can never be returned by Candidates again.
func (ix *Index) Delete(id int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.removeLocked(id)
}

func (ix *Index) removeLocked(id int) bool {
	slot, ok := ix.slotOf[id]
	if !ok {
		return false
	}
	m := &ix.slots[slot]
	unfile(ix.bands, m.bandKeys, slot)
	unfile(ix.cells, m.cellToks, slot)
	unfile(ix.coarse, m.coarseToks, slot)
	*m = member{}
	ix.free = append(ix.free, slot)
	delete(ix.slotOf, id)
	return true
}

// file appends slot to the posting list of every key.
func file(post map[uint64][]int32, keys []uint64, slot int32) {
	for _, k := range keys {
		post[k] = append(post[k], slot)
	}
}

// unfile removes one occurrence of slot from the posting list of every
// key, dropping lists that become empty. Posting order carries no
// meaning (Candidates ranks by score and ID), so removal swaps the last
// entry into the hole. Finding the slot is a linear search, so a delete
// costs the summed length of the member's lists rather than O(keys).
func unfile(post map[uint64][]int32, keys []uint64, slot int32) {
	for _, k := range keys {
		list := post[k]
		i := slices.Index(list, slot)
		if i < 0 {
			continue
		}
		last := len(list) - 1
		list[i] = list[last]
		if last == 0 {
			delete(post, k)
		} else {
			post[k] = list[:last]
		}
	}
}

// CandStats reports how a candidate set was assembled; the engine folds
// it into the per-query backend.Stats. It is the backend contract's
// CandidateInfo — the alias makes *Index satisfy
// backend.CandidateSource directly.
type CandStats = backend.CandidateInfo

// The Index is the engine's CandidateSource: one per shard, shared
// across metric sets.
var _ backend.CandidateSource = (*Index)(nil)

// jaccard is the exact Jaccard similarity of two sets given their
// intersection and individual sizes.
func jaccard(shared, a, b int) float64 {
	if u := a + b - shared; u > 0 {
		return float64(shared) / float64(u)
	}
	return 0
}

// Candidates returns the IDs the prefilter admits for q, sorted
// ascending — a deterministic function of (indexed members, params, q,
// want). The set is the union of the banded-LSH matches and the top
// `want` members of the overlap ranking: fine-cell Jaccard first (the
// same similarity the MinHash signatures estimate, computed exactly
// over the posting lists — normalized, so a long member crossing the
// query once cannot outrank a short near-duplicate), coarse-cell
// Jaccard as the tie-break (members spatially near the query without a
// single shared fine cell still fill the budget's tail ahead of the
// arbitrary rest). When the index holds at most `want` members
// everything is admitted. want <= 0 means the params' MinCands floor.
//
// The overlaps are counted into per-slot counters from a pool, so a
// call touches only the posting lists of the query's own keys and
// ranks only the members sharing a cell with it; the counters are
// zeroed again through the touched list before they go back.
func (ix *Index) Candidates(q *traj.Trajectory, want int) ([]int, CandStats) {
	want = max(want, ix.p.MinCands)
	toks := ix.tokens(q)
	keys := ix.bandKeys(ix.signature(ix.shingles(toks)))
	fineQ := dedupe(toks)
	coarseQ := dedupe(ix.tokensAt(q, ix.p.CellSize*coarseFactor))

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var st CandStats
	if len(ix.slotOf) <= want {
		st.FullScan = true
		out := make([]int, 0, len(ix.slotOf))
		for id := range ix.slotOf {
			out = append(out, id)
		}
		slices.Sort(out)
		st.LSHHits = len(out)
		return out, st
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	gen := sc.reset(len(ix.slots))

	for _, k := range keys {
		for _, s := range ix.bands[k] {
			if sc.stamp[s] != gen {
				sc.stamp[s] = gen
				sc.admitted = append(sc.admitted, s)
			}
		}
	}
	st.LSHHits = len(sc.admitted)

	for _, c := range fineQ {
		for _, s := range ix.cells[c] {
			if sc.fine[s] == 0 {
				sc.touched = append(sc.touched, s)
			}
			sc.fine[s]++
		}
	}
	for _, c := range coarseQ {
		for _, s := range ix.coarse[c] {
			if sc.fine[s] == 0 && sc.coarse[s] == 0 {
				sc.touched = append(sc.touched, s)
			}
			sc.coarse[s]++
		}
	}
	// The blend keeps the exact fine-cell Jaccard dominant while letting
	// coarse co-location break the low-overlap region apart: a member
	// with one stray shared cell should not outrank a parallel-street
	// near-neighbour that shares most coarse cells but no fine one. A
	// shared fine cell usually implies a shared coarse cell, but the
	// half-cell walk can clip a corner at one pitch and not the other —
	// fine-only sharers rank on their fine Jaccard alone.
	const coarseWeight = 0.25
	for _, s := range sc.touched {
		m := &ix.slots[s]
		var score float64
		if c := sc.coarse[s]; c > 0 {
			score = coarseWeight * jaccard(int(c), len(coarseQ), len(m.coarseToks))
			if n := sc.fine[s]; n > 0 {
				score += jaccard(int(n), len(fineQ), len(m.cellToks))
			}
		} else {
			score = jaccard(int(sc.fine[s]), len(fineQ), len(m.cellToks))
		}
		sc.fine[s], sc.coarse[s] = 0, 0
		sc.ranked = append(sc.ranked, ranked{slot: s, id: m.id, score: score})
	}
	// Ranking order: higher score first, then lower ID. IDs are
	// distinct, so the order is total and the top `want` are one set.
	top := sc.ranked
	if len(top) > want {
		slices.SortFunc(top, func(a, b ranked) int {
			switch {
			case a.score > b.score:
				return -1
			case a.score < b.score:
				return 1
			}
			return cmp.Compare(a.id, b.id)
		})
		top = top[:want]
	}
	for _, r := range top {
		if sc.stamp[r.slot] != gen {
			sc.stamp[r.slot] = gen
			sc.admitted = append(sc.admitted, r.slot)
			st.Widened = true
		}
	}
	out := make([]int, len(sc.admitted))
	for i, s := range sc.admitted {
		out[i] = ix.slots[s].id
	}
	slices.Sort(out)
	return out, st
}

// ranked is one overlap-ranking entry.
type ranked struct {
	slot  int32
	id    int
	score float64
}

// scratch is one Candidates call's working memory, pooled across calls
// and across indexes. The per-slot counters are all zero between calls;
// stamp[s] == gen marks slot s admitted in the current call.
type scratch struct {
	fine, coarse []int32 // shared fine / coarse cell count per slot
	stamp        []uint32
	gen          uint32
	touched      []int32 // slots with a nonzero counter, first-touch order
	admitted     []int32 // admitted slots, LSH matches first
	ranked       []ranked
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset sizes the scratch for a slot table of n entries, empties its
// lists and returns the call's admission stamp.
func (sc *scratch) reset(n int) uint32 {
	if len(sc.fine) < n {
		sc.fine = make([]int32, n)
		sc.coarse = make([]int32, n)
		sc.stamp = make([]uint32, n)
	}
	sc.gen++
	if sc.gen == 0 {
		clear(sc.stamp)
		sc.gen = 1
	}
	sc.touched, sc.admitted, sc.ranked = sc.touched[:0], sc.admitted[:0], sc.ranked[:0]
	return sc.gen
}

// dedupe returns the distinct tokens of an ordered token sequence,
// sorted — the posting-list keys.
func dedupe(toks []uint64) []uint64 {
	if len(toks) == 0 {
		return nil
	}
	out := slices.Clone(toks)
	slices.Sort(out)
	return slices.Compact(out)
}
