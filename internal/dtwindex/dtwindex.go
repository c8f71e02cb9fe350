// Package dtwindex answers exact k-NN queries under DTW, re-creating the
// lineage the paper's Related Work starts from ("initial efforts on
// indexing trajectory retrieval were primarily directed towards indexing
// DTW" — Yi et al. and Keogh's exact indexing). Envelope bounds do not
// transfer directly to unequal-length 2-D trajectories, so this index uses
// two admissible bounds that do:
//
//   - the corner bound (LB_Kim style): DTW always matches first with first
//     and last with last, so dist(q₁,t₁) + dist(qₙ,tₘ) never exceeds it;
//   - the MBR bound: every query point participates in at least one matched
//     pair, so Σᵢ dist(qᵢ, MBR(T)) never exceeds DTW(Q,T).
//
// Candidates are visited in bound order with an early-abandoning DTW whose
// row minima cut off once the running k-th best is exceeded.
//
// The Index implements backend.Backend (SearchKNN/SearchRange under a
// shared bound and a cancellation Ctl), so the sharded engine of
// internal/server serves DTW through the same /v1 API as EDwP. It is a
// static index: no mutation, no persistence — the engine degrades those
// operations to not_implemented.
package dtwindex

import (
	"math"

	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// MetricName is the registered backend identifier of this index.
const MetricName = "dtw"

func init() { backend.Register(MetricName) }

var (
	_ backend.Backend           = (*Index)(nil)
	_ backend.CandidateSearcher = (*Index)(nil)
	_ backend.Distancer         = (*Index)(nil)
)

// DistanceBetween evaluates bounded DTW between two trajectories —
// the live-track scan's entry into the same kernel the indexed search
// uses.
func (ix *Index) DistanceBetween(q, t *traj.Trajectory, limit float64, ctl *backend.Ctl) (float64, bool) {
	return dtwDist(q.Points, t.Points, limit, ctl.CancelFlag())
}

// Index holds the database with one precomputed MBR per trajectory.
type Index struct {
	db   []*traj.Trajectory
	mbrs []geom.Rect
	byID map[int]*traj.Trajectory
	pos  map[int]int // ID → db position, for candidate-restricted search
}

// New builds the index.
func New(db []*traj.Trajectory) *Index {
	ix := &Index{db: db, mbrs: make([]geom.Rect, len(db)),
		byID: make(map[int]*traj.Trajectory, len(db)), pos: make(map[int]int, len(db))}
	for i, t := range db {
		ix.mbrs[i] = t.Bounds()
		ix.byID[t.ID] = t
		ix.pos[t.ID] = i
	}
	return ix
}

// BackendSpec returns the buildable backend spec for DTW.
func BackendSpec() backend.Spec {
	return backend.Spec{
		Name: MetricName,
		Build: func(db []*traj.Trajectory) (backend.Backend, error) {
			return New(db), nil
		},
	}
}

// Size returns the number of indexed trajectories.
func (ix *Index) Size() int { return len(ix.db) }

// Lookup returns the indexed trajectory with the given ID, or nil.
func (ix *Index) Lookup(id int) *traj.Trajectory { return ix.byID[id] }

// lowerBound returns max(corner bound, MBR bound) for db[i].
func (ix *Index) lowerBound(q *traj.Trajectory, i int) float64 {
	t := ix.db[i]
	if q.NumPoints() == 0 || t.NumPoints() == 0 {
		return 0
	}
	corner := q.Points[0].Dist(t.Points[0]) +
		q.Points[len(q.Points)-1].Dist(t.Points[len(t.Points)-1])
	var mbr float64
	r := ix.mbrs[i]
	for _, p := range q.Points {
		mbr += r.DistToPoint(p.XY())
	}
	if mbr > corner {
		return mbr
	}
	return corner
}

// Result is one k-NN answer under DTW, the unified backend.Result type.
type Result = backend.Result

// Stats reports per-query work, the unified backend.Stats type: every
// candidate costs one LowerBoundCall, candidates rejected by bound alone
// count as NodesPruned, evaluated ones as DistanceCalls, and evaluations
// the row-minimum test cut short as EarlyAbandons.
type Stats = backend.Stats

// orderCands computes every lower bound and hands back the candidates
// in backend.SortCands order. The bound pass polls ctl periodically so
// even the pre-scan setup stops promptly under a fired deadline.
func (ix *Index) orderCands(q *traj.Trajectory, st *Stats, ctl *backend.Ctl) ([]backend.Cand, error) {
	cands := make([]backend.Cand, len(ix.db))
	for i := range ix.db {
		if i%64 == 0 && ctl.Cancelled() {
			return nil, ctl.Err()
		}
		st.LowerBoundCalls++
		cands[i] = backend.Cand{I: i, ID: ix.db[i].ID, LB: ix.lowerBound(q, i)}
	}
	backend.SortCands(cands)
	return cands, nil
}

// SearchKNN returns the exact DTW k-nearest neighbours of q sorted by
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
			return dtwDist(q.Points, ix.db[i].Points, limit, ctl.CancelFlag())
		})
	return res, st, truncated, err
}

// SearchKNNIn is the backend.CandidateSearcher capability: SearchKNN
// restricted to the prefilter's candidate IDs. The same lower bounds
// order the candidate subset, so verification keeps the full pruning and
// early-abandon discipline — only the scan's population shrinks. IDs not
// present in the index are skipped.
func (ix *Index) SearchKNNIn(q *traj.Trajectory, ids []int, k int, bound *backend.SharedBound, ctl *backend.Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if k <= 0 || len(ids) == 0 || len(ix.db) == 0 {
		return nil, st, false, ctl.Err()
	}
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
		cands = append(cands, backend.Cand{I: i, ID: id, LB: ix.lowerBound(q, i)})
	}
	backend.SortCands(cands)
	res, truncated, err := backend.ScanKNN(cands, k, bound, ctl, &st,
		func(i int) *traj.Trajectory { return ix.db[i] },
		func(i int, limit float64) (float64, bool) {
			return dtwDist(q.Points, ix.db[i].Points, limit, ctl.CancelFlag())
		})
	return res, st, truncated, err
}

// SearchRange returns every indexed trajectory with DTW(q, t) ≤ radius,
// sorted by (distance, ID). The radius seeds the abandon limit of every
// evaluation, so members far outside it cost a fraction of a full DP.
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
			return dtwDist(q.Points, ix.db[i].Points, limit, ctl.CancelFlag())
		})
	return res, st, truncated, err
}

// KNNBrute is the unpruned scan for verification, with the same
// (distance, ID) ordering as SearchKNN.
func (ix *Index) KNNBrute(q *traj.Trajectory, k int) []Result {
	ans := backend.NewKBest(k)
	for _, t := range ix.db {
		d, _ := dtwDist(q.Points, t.Points, math.Inf(1), nil)
		ans.Offer(t, d)
	}
	return ans.Results()
}

// dtwDist computes DTW with Euclidean ground distance, abandoning as soon
// as a whole row exceeds limit (+Inf disables). DTW costs only
// accumulate, so the abandoned value is itself a valid lower bound
// > limit; the abandon test is strict, so a distance tying the limit
// exactly is still computed in full. cancel (may be nil) is polled once
// per DP row; a fired flag abandons immediately — the caller discards the
// poisoned answer through its Ctl's error.
func dtwDist(P, Q []traj.Point, limit float64, cancel *core.Cancel) (float64, bool) {
	n, m := len(P), len(Q)
	if n == 0 || m == 0 {
		if n == m {
			return 0, false
		}
		return 1e308, false // the no-alignment sentinel, exact as before
	}
	inf := 1e308
	prev := make([]float64, m)
	cur := make([]float64, m)
	for i := 0; i < n; i++ {
		if cancel.Cancelled() {
			return 0, true
		}
		rowMin := inf
		for j := 0; j < m; j++ {
			d := P[i].Dist(Q[j])
			switch {
			case i == 0 && j == 0:
				cur[j] = d
			case i == 0:
				cur[j] = cur[j-1] + d
			case j == 0:
				cur[j] = prev[j] + d
			default:
				best := prev[j-1]
				if prev[j] < best {
					best = prev[j]
				}
				if cur[j-1] < best {
					best = cur[j-1]
				}
				cur[j] = best + d
			}
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > limit {
			return rowMin, true
		}
		prev, cur = cur, prev
	}
	return prev[m-1], false
}
