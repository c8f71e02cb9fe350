// Package backend defines the contract between the serving engine and a
// metric index: one Backend interface capturing what the engine actually
// needs — k-NN search under a Ctl (cancellation + evaluation budget) and
// an optional SharedBound, which also answers range queries (k with no
// cap, the bound seeded at the radius) — plus the unified Result/Stats
// types every implementation answers with, and capability interfaces for
// the operations not every metric can support (sub-trajectory search,
// mutation, persistence). The list of metric names lives in
// internal/metrics, not here.
//
// The package deliberately depends only on the trajectory model and the
// kernel cancellation flag, so any index implementation can adopt it
// without pulling in the engine: trajtree (the reference implementation,
// fully capable) aliases these types directly, and a metric without a
// tree is a Flat index (flat.go) — a lower bound and a kernel over the
// shared bound-ordered scan (scan.go); DTW and EDR are built that way.
// The sharded engine in internal/server is generic over Backend —
// sharding, shared-bound fan-out, caching, cancellation and stats
// accounting are written once and serve every metric. (Snapshot
// persistence is the one capability the engine recognises by concrete
// type rather than an interface here, because the stream format is
// tree-specific; see the server's snapshot notes.)
package backend

import (
	"errors"

	"trajmatch/internal/traj"
)

// Result is one search answer: a matched trajectory and its distance
// under the backend's metric. All backends share this type, so the
// engine's merge, cache and wire layers never see a metric-specific
// answer shape.
type Result struct {
	Traj *traj.Trajectory
	Dist float64
}

// Stats is per-query work instrumentation, shared by every backend and,
// through its JSON tags, the wire form of the counters in with_stats
// answers and GET /v1/stats. The counters were named for the tree search
// but map naturally onto flat bound-ordered scans too: DistanceCalls
// counts exact metric evaluations started, EarlyAbandons the ones the
// bounded kernel cut short, LowerBoundCalls the admissible lower bounds
// computed, NodesPruned the candidates (or subtrees) rejected by a bound
// alone, and NodesVisited the index nodes expanded (zero for a flat
// index).
type Stats struct {
	// DistanceCalls counts exact metric evaluations (possibly abandoned).
	DistanceCalls int `json:"distance_calls"`
	// EarlyAbandons counts exact evaluations the bounded kernel cut short
	// because no completion could beat the current pruning threshold.
	// DistanceCalls - EarlyAbandons is the number of full evaluations.
	EarlyAbandons int `json:"early_abandons"`
	// ScreenRejects counts the EarlyAbandons a lower-bound screen decided
	// before any kernel started; DistanceCalls - ScreenRejects is the
	// number of kernel starts. Zero for backends without a member screen.
	ScreenRejects int `json:"screen_rejects"`
	// LowerBoundCalls counts admissible lower-bound evaluations that
	// admit a candidate to the search or cut it: in the tree, the node
	// bounds of internal nodes and the bounding-box screens of leaf
	// members; in a flat scan, one per candidate.
	LowerBoundCalls int `json:"lower_bound_calls"`
	// NodesVisited counts index nodes expanded during the search (in the
	// tree, internal nodes and a leaf root).
	NodesVisited int `json:"nodes_visited"`
	// NodesPruned counts nodes or candidates discarded by a bound test
	// without an exact evaluation: those a bound cut, and those still
	// queued when the limit stopped the search.
	NodesPruned int `json:"nodes_pruned"`
	// PrefilterCandidates counts the candidates the sketch prefilter
	// admitted for exact verification (zero, and absent on the wire,
	// when the query did not ask for the prefilter).
	PrefilterCandidates int `json:"prefilter_candidates,omitempty"`
	// PrefilterSkipped counts indexed trajectories the prefilter
	// excluded without any bound or distance computation — the
	// sub-linear saving the sketch layer buys.
	PrefilterSkipped int `json:"prefilter_skipped,omitempty"`
}

// Add accumulates o into s; the engine uses it to fold per-shard and
// per-query stats into cumulative counters.
func (s *Stats) Add(o Stats) {
	s.DistanceCalls += o.DistanceCalls
	s.EarlyAbandons += o.EarlyAbandons
	s.ScreenRejects += o.ScreenRejects
	s.LowerBoundCalls += o.LowerBoundCalls
	s.NodesVisited += o.NodesVisited
	s.NodesPruned += o.NodesPruned
	s.PrefilterCandidates += o.PrefilterCandidates
	s.PrefilterSkipped += o.PrefilterSkipped
}

// Backend is one shard's worth of metric index: the minimal surface the
// engine needs to build, route and answer queries. Implementations must
// support concurrent searches; the engine serialises every mutation
// (capability Mutable) against searches through a per-shard lock.
//
// Search contract, shared by all methods: bound may be nil (a
// self-contained search) or shared across concurrent searches of disjoint
// shards — the search may prune and abandon against it, and should
// publish its local k-th best through Tighten the moment its answer set
// fills, but ignoring the bound is merely slower, never wrong. ctl may be
// nil (uncancellable, unbudgeted); otherwise the search must poll
// Cancelled between candidate evaluations and hand CancelFlag to its DP
// kernel so a fired context aborts within one row of work. Returns are
// the (distance, ID)-deterministic answer list, the per-query Stats, a
// truncation flag (the Ctl's evaluation budget ran out; the answer is
// best-effort), and ctl's context error — when non-nil, the other returns
// are meaningless and must be discarded.
type Backend interface {
	// Size returns the number of indexed trajectories.
	Size() int
	// Lookup returns the indexed trajectory with the given ID, or nil.
	Lookup(id int) *traj.Trajectory
	// SearchKNN answers exact k-nearest-neighbour search under the
	// backend's metric, sorted by (distance, ID). A range query is
	// SearchKNN(q, math.MaxInt, NewSharedBound(radius), ctl): the answer
	// set never fills, so the limit stays at the radius.
	SearchKNN(q *traj.Trajectory, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error)
}

// SubSearcher is the capability interface for sub-trajectory search
// (EDwPsub, Eq. 6). Backends whose metric has no sub-trajectory form
// simply do not implement it; the engine answers ErrNotSupported.
type SubSearcher interface {
	SearchSub(q *traj.Trajectory, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error)
}

// Distancer is the capability interface for one exact whole-trajectory
// distance evaluation under the backend's metric, outside any index
// walk. The live-track scan and the continuous-query matcher use it to
// evaluate unindexed (still growing) trajectories with the same bounded
// kernel, limit semantics and cancellation the indexed search uses:
// returns the exact distance and false when the evaluation ran to
// completion — which may be above limit, so callers compare — or a value
// above limit and true when it was abandoned (by the limit or by ctl's
// cancellation — when ctl.Err() is non-nil the result is meaningless).
// limit may be +Inf; ctl may be nil.
type Distancer interface {
	DistanceBetween(q, t *traj.Trajectory, limit float64, ctl *Ctl) (float64, bool)
}

// SubDistancer is the sub-trajectory form (EDwPsub, Eq. 6): the
// distance from q to the best contiguous sub-trajectory of t, with the
// same bounded-kernel contract as Distancer. Metrics without a
// sub-trajectory form simply do not implement it.
type SubDistancer interface {
	SubDistanceBetween(q, t *traj.Trajectory, limit float64, ctl *Ctl) (float64, bool)
}

// Mutable is the capability interface for in-place updates. The engine
// only accepts Insert/Delete/Rebuild when every loaded backend is
// Mutable — a partial update would let the metrics' views of the corpus
// diverge — and answers ErrNotSupported otherwise.
type Mutable interface {
	Insert(tr *traj.Trajectory) error
	Delete(id int) bool
	Rebuild() error
}

// ErrNotSupported reports that a backend lacks the capability an
// operation needs (mutation on a static index, sub-trajectory search on
// a metric without one). The HTTP layer maps it to 501 not_implemented.
var ErrNotSupported = errors.New("not supported by backend")

// Spec names a bootable metric backend and knows how to build one
// Backend per shard partition. Build is called once per shard with that
// shard's slice of the database; any whole-database parameters (an ε
// derived from global statistics, tree options) must be fixed inside the
// closure before sharding, so every shard agrees on them.
type Spec struct {
	// Name is the metric identifier ("edwp", "dtw", "edr"), one of
	// metrics.Names.
	Name string
	// Build constructs one shard's backend over db.
	Build func(db []*traj.Trajectory) (Backend, error)
}
