// Package sketch is the sub-linear candidate generator in front of the
// exact metric backends. Each trajectory is filed under the grid cells
// its movement crosses, at a fine pitch and at a coarse one, in inverted
// posting lists. A query reads the lists of its own cells and ranks
// every member that shares a cell with it by exact cell Jaccard: fine
// first, coarse as the tie-break. The top `want` are the candidate set,
// which the exact bounded kernels then verify under the engine's shared
// k-th-best bound. The prefilter trades nothing for correctness on the
// verified answers themselves (every returned distance is exact); what
// it trades is recall — a true neighbour the ranking leaves out is never
// examined (see docs/ARCHITECTURE.md, "Candidate prefilter").
//
// Tokenization walks the *interpolated* movement, emitting every cell a
// segment passes through rather than only the sampled points, so two
// trajectories following the same path at different sampling rates
// produce nearly identical token sets — the inconsistent-sampling
// premise of the source paper carries down into the prefilter layer.
//
// An Index is safe for concurrent use: Candidates takes a read lock,
// Insert/Delete a write lock. Nothing in it is random, so equal corpora
// under equal parameters produce equal candidate sets — the property
// the snapshot warm-boot path relies on to rebuild the prefilter
// deterministically instead of persisting it.
package sketch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"trajmatch/internal/par"
	"trajmatch/internal/traj"
)

// Params fix the sketch geometry for a whole corpus. Like EDR's ε they
// must be chosen once, before sharding, so every shard tokenizes
// identically; the snapshot manifest records the resolved values.
type Params struct {
	// CellSize is the tokenization grid pitch in corpus units (metres
	// for the synthetic taxi corpora). 0 derives it from the database at
	// engine build time (DeriveCellSize: half the median spatial segment
	// length, the same whole-corpus-statistic pattern as EDR's ε).
	CellSize float64 `json:"cell_size"`
}

// Validate rejects parameters an Index cannot be built with. It expects
// a resolved CellSize (> 0).
func (p Params) Validate() error {
	if !(p.CellSize > 0) || math.IsInf(p.CellSize, 1) {
		return fmt.Errorf("sketch: cell size must be positive and finite (got %v)", p.CellSize)
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

// Index is one shard's cell index. Every member occupies an int32 slot
// in a dense slot table (ID and cell tokens); slots freed by Delete are
// reused by later inserts, so the table never outgrows the peak live
// count. The fine and coarse cell posting lists map each token to the
// slots filed under it, which lets Candidates count overlaps into flat
// per-slot counters instead of per-query maps.
type Index struct {
	p Params

	mu     sync.RWMutex
	cells  map[uint64][]int32 // fine cell token -> member slots
	coarse map[uint64][]int32 // coarse cell token -> member slots
	slotOf map[int]int32      // member ID -> slot
	slots  []member           // slot table; free slots hold the zero member
	free   []int32            // free slots, reused last-freed first
}

// member is one slot's record: the ID it holds and the cell tokens it
// was filed under (Delete unfiles exactly these; Candidates reads the
// token counts as the Jaccard set sizes).
type member struct {
	id         int
	cellToks   []uint64
	coarseToks []uint64
}

// NewIndex builds an empty index; Params must Validate.
func NewIndex(p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Index{
		p:      p,
		cells:  make(map[uint64][]int32),
		coarse: make(map[uint64][]int32),
		slotOf: make(map[int]int32),
	}, nil
}

// Build bulk-loads an index over db: the engine's per-shard load and
// the boot path's one build after WAL replay (rebuilding is
// deterministic, so the prefilter itself is never persisted). The result
// equals inserting db in order — the same slots, the same posting lists,
// hence the same candidate sets — but every member's keys are computed
// in parallel (GOMAXPROCS workers) and the two posting maps are filled
// concurrently. A repeated ID keeps its first occurrence's slot and the
// last occurrence's geometry, as Insert's replacement does.
func Build(db []*traj.Trajectory, p Params) (*Index, error) {
	ix, err := NewIndex(p)
	if err != nil {
		return nil, err
	}
	ms := make([]member, len(db))
	par.For(0, len(db), func(i int) { ms[i] = ix.prep(db[i]) })
	// Slots in input order, compacted in place: a slot index never
	// passes the input position that fills it.
	ix.slotOf = make(map[int]int32, len(db))
	for _, m := range ms {
		if s, ok := ix.slotOf[m.id]; ok {
			ix.slots[s] = m
			continue
		}
		ix.slotOf[m.id] = int32(len(ix.slots))
		ix.slots = append(ms[:len(ix.slots)], m)
	}
	clear(ms[len(ix.slots):])
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ix.cells = fileAll(ix.slots, func(m *member) []uint64 { return m.cellToks })
	}()
	go func() {
		defer wg.Done()
		ix.coarse = fileAll(ix.slots, func(m *member) []uint64 { return m.coarseToks })
	}()
	wg.Wait()
	return ix, nil
}

// fileAll returns the posting lists of slots under keys: each list holds
// its slots in slot order, as filing them one at a time would. A counting
// pass sizes every list first, so the lists are capped windows of one
// slab, each filled once: a later Insert that grows a list reallocates it
// instead of writing into its neighbour's. The counting pass keeps each
// key's count as its list's length, over one scratch array of len(slots)
// that no list writes to: a member files each key once, so no count
// exceeds it, and the map holds the keys once, as the result does.
func fileAll(slots []member, keys func(*member) []uint64) map[uint64][]int32 {
	post := make(map[uint64][]int32)
	counts := make([]int32, len(slots))
	total := 0
	for s := range slots {
		ks := keys(&slots[s])
		for _, k := range ks {
			post[k] = counts[:len(post[k])+1]
		}
		total += len(ks)
	}
	slab := make([]int32, 0, total)
	for k, list := range post {
		n := len(slab)
		slab = slab[:n+len(list)]
		post[k] = slab[n:n:len(slab)]
	}
	for s := range slots {
		for _, k := range keys(&slots[s]) {
			post[k] = append(post[k], int32(s))
		}
	}
	return post
}

// Size returns the number of indexed trajectories.
func (ix *Index) Size() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.slotOf)
}

// Insert files tr into the posting lists. Re-inserting an ID replaces
// its previous entry in the same slot (the engine never does; the
// robustness matters for op-sequence tests). Build is the bulk form of
// a run of Inserts on an empty index.
func (ix *Index) Insert(tr *traj.Trajectory) {
	m := ix.prep(tr)
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
	file(ix.cells, m.cellToks, slot)
	file(ix.coarse, m.coarseToks, slot)
}

// prep computes tr's member record. Its two token lists share one
// allocation; the working memory comes from keyPool.
func (ix *Index) prep(tr *traj.Trajectory) member {
	b := keyPool.Get().(*keyBuf)
	defer keyPool.Put(b)
	fine, coarse := ix.keys(tr, b)
	nf := len(fine)
	all := append(append(make([]uint64, 0, nf+len(coarse)), fine...), coarse...)
	return member{id: tr.ID, cellToks: all[:nf:nf], coarseToks: all[nf:]}
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
// want). The set is the top `want` members of the overlap ranking:
// fine-cell Jaccard first (exact over the posting lists, and normalized,
// so a long member crossing the query once cannot outrank a short
// near-duplicate), coarse-cell Jaccard as the tie-break (members
// spatially near the query without a single shared fine cell still fill
// the budget's tail ahead of the arbitrary rest). Only members sharing
// a cell with q are ranked, so fewer than `want` may come back. When the
// index holds at most `want` members everything is admitted. want must
// not be negative.
//
// The overlaps are counted into per-slot counters from a pool, so a
// call touches only the posting lists of the query's own keys and
// ranks only the members sharing a cell with it; the counters are
// zeroed again through the touched list before they go back.
func (ix *Index) Candidates(q *traj.Trajectory, want int) []int {
	b := keyPool.Get().(*keyBuf)
	defer keyPool.Put(b)
	fineQ, coarseQ := ix.keys(q, b)

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.slotOf) <= want {
		out := make([]int, 0, len(ix.slotOf))
		for id := range ix.slotOf {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(len(ix.slots))

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
		sc.ranked = append(sc.ranked, ranked{id: m.id, score: score})
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
	out := make([]int, len(top))
	for i, r := range top {
		out[i] = r.id
	}
	slices.Sort(out)
	return out
}

// ranked is one overlap-ranking entry.
type ranked struct {
	id    int
	score float64
}

// scratch is one Candidates call's working memory, pooled across calls
// and across indexes. The per-slot counters are all zero between calls.
type scratch struct {
	fine, coarse []int32 // shared fine / coarse cell count per slot
	touched      []int32 // slots with a nonzero counter, first-touch order
	ranked       []ranked
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset sizes the scratch for a slot table of n entries and empties its
// lists.
func (sc *scratch) reset(n int) {
	if len(sc.fine) < n {
		sc.fine = make([]int32, n)
		sc.coarse = make([]int32, n)
	}
	sc.touched, sc.ranked = sc.touched[:0], sc.ranked[:0]
}
