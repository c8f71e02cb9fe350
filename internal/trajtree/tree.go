// Package trajtree implements TrajTree (Section IV), the paper's index for
// exact k-nearest-neighbour queries under EDwP. Every node summarises its
// subtree with a trajectory box sequence (package tbox) whose EDwPsub-style
// lower bound prunes the search — Theorem 2, in the flat relaxation
// core.ScreenLowerBound. Leaves hold the trajectories, which the search
// bounds one by one, each by its own screen summary. The vantage-point
// descriptors of Section IV-E are not served: they only seeded the k-th
// best distance, which the descent's own bounds reach as cheaply, and the
// paper's UB-Factor experiments compute them in package eval.
//
// Queries return the exact k-NN set: candidates are visited best-first by
// lower bound and the search stops when the smallest outstanding lower
// bound cannot beat the current k-th best distance.
//
// A Tree is immutable under queries and safe for concurrent searches;
// Insert, Delete and Rebuild require external serialisation. Package
// server wraps a Tree in an RWMutex-guarded engine that provides exactly
// that serialisation for concurrent workloads. A Tree owns no goroutine:
// updates maintain it where they change it, and Rebuild re-packs it only
// when asked (update.go).
package trajtree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"trajmatch/internal/arena"
	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

// Options configure construction. The zero value is usable: every field
// falls back to the paper's defaults (Section V-A).
type Options struct {
	// Theta is the diversity-drop threshold θ of Algorithm 1 controlling
	// the branching factor. Default 0.8.
	Theta float64
	// LeafSize is the minimum node size n: nodes with at most this many
	// trajectories become leaves. Default 10.
	LeafSize int
	// MaxBoxes caps the number of st-boxes per tBoxSeq (long pivots are
	// coarsened); 0 means the default of 32.
	MaxBoxes int
	// MaxFanout caps the number of pivots per node regardless of θ.
	// Default 16.
	MaxFanout int
	// PivotCandidates caps how many trajectories the max-min pivot scan of
	// Algorithm 1 examines per round (a uniform sample); 0 means the
	// default of 64. The scan is at most O(candidates·pivots) EDwPsub
	// calls per node, most of them bounded, screened away or never made,
	// and still the larger part of the construction cost the paper
	// reports in Fig. 6(e): on a serial 10 000-trip taxi build about 57 %
	// of the CPU, against about 36 % for assigning the members to the
	// pivots (Seq.ExpansionCost).
	PivotCandidates int
	// Cumulative switches query distances from EDwPavg (Eq. 4, the paper's
	// experimental default) to cumulative EDwP.
	Cumulative bool
	// Seed drives all randomised choices, making builds reproducible.
	Seed int64
	// Parallel enables concurrent subtree construction.
	Parallel bool
}

// WithDefaults returns o with every unset field replaced by the paper's
// default, the normal form a built Tree reports through Tree.Options.
// The server's snapshot loader uses it to compare a manifest's recorded
// options (which may have been hand-edited) against the loaded shards'.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 0.8
	}
	if o.LeafSize == 0 {
		o.LeafSize = 10
	}
	if o.MaxBoxes == 0 {
		o.MaxBoxes = 32
	}
	if o.MaxFanout == 0 {
		o.MaxFanout = 16
	}
	if o.PivotCandidates == 0 {
		o.PivotCandidates = 64
	}
	return o
}

// node is a TrajTree node: the tBoxSeq summary its parent bounds it by,
// its subtree's members and the longest member's length. A leaf also
// carries slab, one slabStride record per member in member order (its
// bounding box and its length, from its summary), which the descent
// screens the members at without touching them (query.go); an internal
// node's slab is nil. A leaf's own seq bounds nothing in a search: it
// serves Insert's child choice and the file. Delete leaves seq and maxLen
// as they were (update.go): they still cover every member left.
type node struct {
	seq      *tbox.Seq
	children []*node
	members  []*traj.Trajectory
	slab     []float64
	maxLen   float64
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// slabStride is the width of a leaf's slab record: the member's bounding
// box (MinX, MinY, MaxX, MaxY) and its length.
const slabStride = 5

// appendSlab appends the slab records of ms, in order, to dst.
func appendSlab(dst []float64, ms []*traj.Trajectory) []float64 {
	for _, m := range ms {
		s := m.Summary()
		dst = append(dst, s.BBox[0], s.BBox[1], s.BBox[2], s.BBox[3], s.Length[0])
	}
	return dst
}

// Tree is the TrajTree index.
type Tree struct {
	root *node
	opt  Options
	size int
	rng  *rand.Rand

	// byID indexes the root's member list by trajectory ID, overlay
	// included (the arena's own index covers slab members only).
	byID map[int]*traj.Trajectory

	// ar is the shard's arena: slab-resident samples plus the screen
	// summaries its members carry. It is rebuilt by Rebuild and nil only
	// for trees grown purely by Insert from empty. Members inserted after
	// the last (re)build or load form the overlay: heap-resident,
	// summarised at Insert, and folded into fresh slabs by the next
	// Rebuild, or by a save and load. Only MemStats reads it (the overlay
	// count and the slab residency); Save writes the members themselves.
	ar      *arena.Arena
	overlay int // live members without an arena entry
}

// New bulk-loads a TrajTree over db. Every trajectory must have at least
// two points and a unique ID; New returns an error otherwise.
func New(db []*traj.Trajectory, opt Options) (*Tree, error) {
	tr := newTreeShell(opt, len(db))
	for _, t := range db {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("trajtree: trajectory %d: %w", t.ID, err)
		}
		if tr.byID[t.ID] != nil {
			return nil, fmt.Errorf("trajtree: duplicate trajectory ID %d", t.ID)
		}
		tr.byID[t.ID] = t
	}
	if len(db) > 0 {
		owned := make([]*traj.Trajectory, len(db))
		copy(owned, db)
		// The arena is built first so construction-time distance calls
		// already stream over the primed slab views; priming installs
		// bit-identical values, so the built tree is unchanged.
		tr.ar = arena.Build(owned)
		tr.root = tr.build(owned, tbox.Build(owned, tr.opt.MaxBoxes), tr.opt.Parallel)
	}
	return tr, nil
}

// newTreeShell returns a rootless Tree of the given size with normalised
// options and an empty ID index, for New and Load to fill.
func newTreeShell(opt Options, size int) *Tree {
	opt = opt.withDefaults()
	return &Tree{opt: opt, size: size, rng: rand.New(rand.NewSource(opt.Seed)),
		byID: make(map[int]*traj.Trajectory, size)}
}

// Size returns the number of indexed trajectories.
func (t *Tree) Size() int { return t.size }

// Options returns the tree's construction options with defaults filled
// in. The sharded snapshot manifest records them, and the snapshot
// loader verifies every reloaded shard carries the same parameters, so
// a snapshot directory cannot silently mix shards from differently
// configured engines.
func (t *Tree) Options() Options { return t.opt }

// Height returns the height of the tree (leaves have height 1).
func (t *Tree) Height() int { return height(t.root) }

func height(n *node) int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.children {
		if h := height(c); h > max {
			max = h
		}
	}
	return max + 1
}

// distBounded is the bound-aware query distance, EDwPavg by default
// (Section V-A): it returns the exact
// distance whenever it does not exceed limit and +Inf otherwise, letting
// the kernel abandon the dynamic program early; the second return reports
// whether a +Inf came from the limit (counted as Stats.EarlyAbandons)
// rather than from a genuinely infinite distance. Every query path passes
// its current pruning threshold (the k-th best distance, or the radius
// of a range query) so candidates that cannot enter the answer
// are rejected at a fraction of a full evaluation's cost. cancel (may be
// nil) is the query's cooperative cancellation flag, polled by the
// kernel once per DP row.
func (t *Tree) distBounded(a, b *traj.Trajectory, limit float64, cancel *core.Cancel) (float64, bool) {
	if t.opt.Cumulative {
		return core.DistanceBoundedCancel(a, b, limit, cancel)
	}
	return core.AvgDistanceBoundedCancel(a, b, limit, cancel)
}

// denom is the divisor that takes the raw cumulative domain the screens
// sum in to the domain of the query distance against a trajectory (or
// the longest of a node's trajectories) of length tLen: Eq. 4's
// normaliser for EDwPavg, 1 for cumulative EDwP and for EDwPsub, which
// is inherently cumulative.
func (t *Tree) denom(sub bool, qLen, tLen float64) float64 {
	if sub || t.opt.Cumulative {
		return 1
	}
	return qLen + tLen
}

// nodeBound lower-bounds the query distance from q (in scr) to every
// member below n: the flat screen over the node's tBoxSeq slab, divided
// by den = denom(sub, qLen, n.maxLen). It early-exits against limit: the
// value is exact whenever it does not exceed limit, and some value
// strictly above limit otherwise, so every `>= limit`/`> limit` pruning
// decision is the unbounded value's. limit is translated into the raw
// domain inflated by the same relative epsilon the bounded kernel uses,
// so boundary values survive the multiplication-versus-division
// rounding difference.
func nodeBound(scr *core.SegScreen, den float64, n *node, limit float64) float64 {
	if den == 0 {
		return 0
	}
	raw := limit * den
	raw += raw * 1e-12
	return core.ScreenLowerBound(scr, n.seq.Rects(), raw) / den
}

// memberLimit translates limit into the raw domain of a member screen
// whose divisor is den (denom of the member's length). A screen above
// the returned value proves that evaluating the member cannot beat
// limit — that the bounded kernel would abandon it — so rejecting the
// member there skips work whose outcome is already known, never a
// candidate that could enter the answer. The raw limit is inflated by a
// relative 1e-9 so the screen's float rounding (~1e-13 relative) can
// never flip a decision the kernel — whose own epsilon is 1e-12 — would
// have taken the other way. A member whose divisor is not positive (it
// and the query both of zero length) is never rejected: +Inf.
func memberLimit(limit, den float64) float64 {
	if den <= 0 {
		return math.Inf(1)
	}
	raw := limit * den
	return raw + raw*1e-9
}

// memberScreen is one tier of the member screen, over flat windows of a
// member's summary: the query side over rects and, for the
// whole-trajectory distances, the member side weighted by lens on top of
// it; EDwPsub does not consume the member, so sub searches get the query
// side alone. Like core.ScreenLowerBound it early-exits once it passes
// raw: the value is exact whenever it does not exceed raw. The descent
// runs two tiers: the single bounding box (O(len q), from the leaf's
// slab) when it queues a member, the coarsened box sequence
// (O(len q · MemberBoxes)) when it first takes the member off the queue.
func memberScreen(scr *core.SegScreen, sub bool, rects, lens []float64, raw float64) float64 {
	sum := core.ScreenLowerBound(scr, rects, raw)
	if sum <= raw && !sub {
		sum = core.ScreenMemberSide(scr, rects, lens, sum, raw)
	}
	return sum
}

// arenaIndex returns the arena index of member tr; false for the
// overlay — a member inserted under a deleted member's ID included — and
// for every member of a tree grown purely by Insert, which has no arena.
func (t *Tree) arenaIndex(tr *traj.Trajectory) (int, bool) {
	if t.ar == nil {
		return 0, false
	}
	return t.ar.Index(tr)
}

// MemStats describes the tree's memory layout for the stats endpoint:
// the arena's slab residency and the overlay count.
type MemStats struct {
	Arena arena.MemStats `json:"arena"`
	// Overlay counts live members not resident in the arena —
	// trajectories inserted since the last (re)build or load.
	Overlay int `json:"overlay"`
}

// MemStats returns the tree's memory-layout counters. Like every Tree
// accessor it requires the caller to serialise updates against reads.
func (t *Tree) MemStats() MemStats {
	return MemStats{Arena: t.ar.Stats(), Overlay: t.overlay}
}

// build constructs the subtree over ts, whose summary seq (already
// containing all of ts) becomes the node's tBoxSeq.
func (t *Tree) build(ts []*traj.Trajectory, seq *tbox.Seq, parallel bool) *node {
	n := &node{seq: seq, members: ts, maxLen: maxLength(ts)}
	var groups [][]*traj.Trajectory
	var seqs []*tbox.Seq
	if len(ts) > t.opt.LeafSize {
		groups, seqs = t.partition(ts)
	}
	if len(groups) < 2 {
		// A leaf, oversized when Algorithm 1 cannot split it further.
		n.slab = appendSlab(make([]float64, 0, slabStride*len(ts)), ts)
		return n
	}
	n.children = make([]*node, len(groups))
	if parallel {
		var wg sync.WaitGroup
		// Every child draws from its own stream, derived from the seed, so
		// the cap changes scheduling only: the tree is the same at every
		// cap.
		sem := make(chan struct{}, buildSlots())
		for i := range groups {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				sub := &Tree{opt: t.opt, rng: rand.New(rand.NewSource(t.opt.Seed + int64(i) + 1))}
				n.children[i] = sub.build(groups[i], seqs[i], false)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range groups {
			n.children[i] = t.build(groups[i], seqs[i], false)
		}
	}
	return n
}

// buildSlots is how many subtrees a parallel build constructs at once:
// one per P of the scheduler, the count the engine sizes its pools by.
func buildSlots() int { return runtime.GOMAXPROCS(0) }

func maxLength(ts []*traj.Trajectory) float64 {
	var max float64
	for _, t := range ts {
		if l := t.Length(); l > max {
			max = l
		}
	}
	return max
}

// Stats carries per-query instrumentation used by the experiments. It is
// the unified backend.Stats type every metric backend answers with;
// DistanceCalls counts exact EDwP evaluations here.
type Stats = backend.Stats

// Result is one k-NN answer, the unified backend.Result type.
type Result = backend.Result

// String renders a brief tree summary.
func (t *Tree) String() string {
	return fmt.Sprintf("TrajTree[%d trajectories, height %d]", t.size, t.Height())
}

// checkInvariants walks the tree verifying structural invariants; tests use
// it after builds and updates, and the loader on every file. No non-root
// node is empty: Delete drops a child it empties, and the loader the empty
// nodes of a file saved before Delete did.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("nil root with size %d", t.size)
		}
		return nil
	}
	count := 0
	var walk func(n *node) error
	walk = func(n *node) error {
		if n != t.root && len(n.members) == 0 {
			return fmt.Errorf("empty non-root node")
		}
		if n.leaf() {
			count += len(n.members)
			for _, m := range n.members {
				if m.Length() > n.maxLen+1e-9 {
					return fmt.Errorf("leaf maxLen %v below member %d length %v", n.maxLen, m.ID, m.Length())
				}
			}
			return nil
		}
		sub := 0
		for _, c := range n.children {
			sub += len(c.members)
			if c.maxLen > n.maxLen+1e-9 {
				return fmt.Errorf("child maxLen %v exceeds parent %v", c.maxLen, n.maxLen)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		if sub != len(n.members) {
			return fmt.Errorf("internal node members %d != children total %d", len(n.members), sub)
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("leaf total %d != size %d", count, t.size)
	}
	if len(t.byID) != len(t.root.members) {
		return fmt.Errorf("ID index holds %d entries for %d members", len(t.byID), len(t.root.members))
	}
	for _, m := range t.root.members {
		if t.byID[m.ID] != m {
			return fmt.Errorf("ID index does not map %d to its member", m.ID)
		}
	}
	return nil
}
