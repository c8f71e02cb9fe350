// Package edrindex implements an indexed k-NN evaluator for the EDR
// distance, the competitor labelled "EDR" in Figs. 5(j) and 6(a). It
// follows the pruning framework of the original EDR paper (Chen, Özsu,
// Oria; SIGMOD 2005) with two admissible lower bounds — the sequence-length
// difference and a grid-histogram mismatch count — and an early-abandoning
// dynamic program ordered by those bounds.
//
// The Index implements backend.Backend (SearchKNN/SearchRange under a
// shared bound and a cancellation Ctl), so the sharded engine of
// internal/server serves EDR through the same /v1 API as EDwP. It is a
// static index: no mutation, no persistence — the engine degrades those
// operations to not_implemented.
package edrindex

import (
	"math"

	"trajmatch/internal/backend"
	"trajmatch/internal/baseline"
	"trajmatch/internal/traj"
)

// MetricName is the registered backend identifier of this index.
const MetricName = "edr"

func init() { backend.Register(MetricName) }

var (
	_ backend.Backend           = (*Index)(nil)
	_ backend.CandidateSearcher = (*Index)(nil)
	_ backend.Distancer         = (*Index)(nil)
)

// DistanceBetween evaluates bounded EDR between two trajectories at the
// index's ε — the live-track scan's entry into the same early-abandon
// kernel the indexed search uses.
func (ix *Index) DistanceBetween(q, t *traj.Trajectory, limit float64, ctl *backend.Ctl) (float64, bool) {
	return ix.edr.DistEarlyAbandonCancel(q, t, intLimit(limit), ctl.CancelFlag())
}

// cellKey addresses an ε-grid cell.
type cellKey struct{ cx, cy int }

// Index answers EDR k-NN queries over a fixed database.
type Index struct {
	eps   float64
	db    []*traj.Trajectory
	grids []map[cellKey]int // per-trajectory ε-grid histograms
	byID  map[int]*traj.Trajectory
	pos   map[int]int // ID → db position, for candidate-restricted search
	edr   baseline.EDR
}

// New builds the index: one ε-grid histogram per trajectory.
func New(db []*traj.Trajectory, eps float64) *Index {
	ix := &Index{eps: eps, db: db, edr: baseline.EDR{Eps: eps},
		byID: make(map[int]*traj.Trajectory, len(db)), pos: make(map[int]int, len(db))}
	ix.grids = make([]map[cellKey]int, len(db))
	for i, t := range db {
		ix.grids[i] = gridOf(t, eps)
		ix.byID[t.ID] = t
		ix.pos[t.ID] = i
	}
	return ix
}

// DefaultEps derives the matching threshold ε from the database, half
// the median segment length — the scaling the eval harness uses for
// every threshold-based metric. Returns 1 for a degenerate database.
func DefaultEps(db []*traj.Trajectory) float64 {
	if m := traj.MedianSegmentLength(db); m > 0 {
		return m * 0.5
	}
	return 1
}

// BackendSpec returns the buildable backend spec for EDR at the given ε.
// The ε must be fixed from whole-database statistics (DefaultEps) before
// sharding, so every shard prices edits identically.
func BackendSpec(eps float64) backend.Spec {
	return backend.Spec{
		Name: MetricName,
		Build: func(db []*traj.Trajectory) (backend.Backend, error) {
			return New(db, eps), nil
		},
	}
}

// Size returns the number of indexed trajectories.
func (ix *Index) Size() int { return len(ix.db) }

// Lookup returns the indexed trajectory with the given ID, or nil.
func (ix *Index) Lookup(id int) *traj.Trajectory { return ix.byID[id] }

func gridOf(t *traj.Trajectory, eps float64) map[cellKey]int {
	g := make(map[cellKey]int, t.NumPoints())
	for _, p := range t.Points {
		g[cellKey{int(math.Floor(p.X / eps)), int(math.Floor(p.Y / eps))}]++
	}
	return g
}

// lowerBound returns an admissible lower bound on EDR(q, db[i]).
func (ix *Index) lowerBound(q *traj.Trajectory, qGrid map[cellKey]int, i int) float64 {
	n, m := q.NumPoints(), ix.db[i].NumPoints()
	lenDiff := n - m
	if lenDiff < 0 {
		lenDiff = -lenDiff
	}
	// Histogram bound: a query point can only match a database point lying
	// in its 3×3 cell neighbourhood; every query point without any such
	// candidate forces at least one edit, and those edits are distinct.
	unmatched := 0
	tg := ix.grids[i]
	for c, cnt := range qGrid {
		found := false
		for dx := -1; dx <= 1 && !found; dx++ {
			for dy := -1; dy <= 1; dy++ {
				if tg[cellKey{c.cx + dx, c.cy + dy}] > 0 {
					found = true
					break
				}
			}
		}
		if !found {
			unmatched += cnt
		}
	}
	if unmatched > lenDiff {
		return float64(unmatched)
	}
	return float64(lenDiff)
}

// Result is one k-NN answer under EDR, the unified backend.Result type.
type Result = backend.Result

// Stats reports how much work a query did, the unified backend.Stats
// type: every candidate costs one LowerBoundCall, candidates rejected by
// bound alone count as NodesPruned, evaluated ones as DistanceCalls, and
// evaluations cut short by the row-minimum test as EarlyAbandons.
type Stats = backend.Stats

// orderCands computes every lower bound and hands back the candidates
// in backend.SortCands order. The bound pass polls ctl periodically so
// even the pre-scan setup stops promptly under a fired deadline.
func (ix *Index) orderCands(q *traj.Trajectory, st *Stats, ctl *backend.Ctl) ([]backend.Cand, error) {
	qGrid := gridOf(q, ix.eps)
	cands := make([]backend.Cand, len(ix.db))
	for i := range ix.db {
		if i%64 == 0 && ctl.Cancelled() {
			return nil, ctl.Err()
		}
		st.LowerBoundCalls++
		cands[i] = backend.Cand{I: i, ID: ix.db[i].ID, LB: ix.lowerBound(q, qGrid, i)}
	}
	backend.SortCands(cands)
	return cands, nil
}

// intLimit converts a float abandon limit into the integer bound the EDR
// dynamic program tests strictly: rowMin > limit ⟺ rowMin > ⌊limit⌋ for
// the integer-valued rowMin. -1 (disabled) for an infinite limit.
func intLimit(limit float64) int {
	if math.IsInf(limit, 1) {
		return -1
	}
	return int(math.Floor(limit))
}

// SearchKNN returns the exact EDR k-nearest neighbours of q sorted by
// (distance, ID) — deterministic membership under exact ties. bound may
// be nil or shared across concurrent searches of disjoint shards; ctl
// (may be nil) injects cancellation — polled between candidates by the
// scan and per DP row inside the kernel — and the query-wide evaluation
// budget.
func (ix *Index) SearchKNN(q *traj.Trajectory, k int, bound *backend.SharedBound, ctl *backend.Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if k <= 0 || len(ix.db) == 0 {
		return nil, st, false, ctl.Err()
	}
	cands, err := ix.orderCands(q, &st, ctl)
	if err != nil {
		return nil, st, false, err
	}
	res, truncated, err := backend.ScanKNN(cands, k, bound, ctl, &st,
		func(i int) *traj.Trajectory { return ix.db[i] },
		func(i int, limit float64) (float64, bool) {
			return ix.edr.DistEarlyAbandonCancel(q, ix.db[i], intLimit(limit), ctl.CancelFlag())
		})
	return res, st, truncated, err
}

// SearchKNNIn is the backend.CandidateSearcher capability: SearchKNN
// restricted to the prefilter's candidate IDs. The candidate subset is
// ordered by the same admissible bounds as the full scan, so pruning and
// early abandonment carry over unchanged. IDs not present in the index
// are skipped.
func (ix *Index) SearchKNNIn(q *traj.Trajectory, ids []int, k int, bound *backend.SharedBound, ctl *backend.Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if k <= 0 || len(ids) == 0 || len(ix.db) == 0 {
		return nil, st, false, ctl.Err()
	}
	qGrid := gridOf(q, ix.eps)
	cands := make([]backend.Cand, 0, len(ids))
	for n, id := range ids {
		if n%64 == 0 && ctl.Cancelled() {
			return nil, st, false, ctl.Err()
		}
		i, ok := ix.pos[id]
		if !ok {
			continue
		}
		st.LowerBoundCalls++
		cands = append(cands, backend.Cand{I: i, ID: id, LB: ix.lowerBound(q, qGrid, i)})
	}
	backend.SortCands(cands)
	res, truncated, err := backend.ScanKNN(cands, k, bound, ctl, &st,
		func(i int) *traj.Trajectory { return ix.db[i] },
		func(i int, limit float64) (float64, bool) {
			return ix.edr.DistEarlyAbandonCancel(q, ix.db[i], intLimit(limit), ctl.CancelFlag())
		})
	return res, st, truncated, err
}

// SearchRange returns every indexed trajectory with EDR(q, t) ≤ radius,
// sorted by (distance, ID).
func (ix *Index) SearchRange(q *traj.Trajectory, radius float64, ctl *backend.Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if len(ix.db) == 0 {
		return nil, st, false, ctl.Err()
	}
	cands, err := ix.orderCands(q, &st, ctl)
	if err != nil {
		return nil, st, false, err
	}
	res, truncated, err := backend.ScanRange(cands, radius, ctl, &st,
		func(i int) *traj.Trajectory { return ix.db[i] },
		func(i int, limit float64) (float64, bool) {
			return ix.edr.DistEarlyAbandonCancel(q, ix.db[i], intLimit(limit), ctl.CancelFlag())
		})
	return res, st, truncated, err
}

// KNNBrute is the unpruned scan, used to verify exactness, with the same
// (distance, ID) ordering as SearchKNN.
func (ix *Index) KNNBrute(q *traj.Trajectory, k int) []Result {
	ans := backend.NewKBest(k)
	for _, t := range ix.db {
		ans.Offer(t, ix.edr.Dist(q, t))
	}
	return ans.Results()
}
