package backend

import (
	"math"
	"sort"

	"trajmatch/internal/traj"
)

// KBest accumulates the k best candidates under the lexicographic
// (distance, ID) order — the same order the engine's cross-shard merge
// sorts by. Every k-NN search holds its answer in one, through the
// Verifier (scan.go). That makes the answer a function of the
// candidate set alone: when several candidates tie exactly at the k-th
// distance, membership is decided by ID, not by the order the scan
// happened to visit them. That determinism is what lets a sharded fan-out
// be byte-identical to the standalone index (and a re-run byte-identical
// to the last one) even on databases with duplicated trajectories.
//
// The answer set is small in practice — k, or the members within a
// range query's radius (k = math.MaxInt) — so it is a sorted slice with
// insertion by binary search rather than a heap; Bound is O(1).
type KBest struct {
	k   int
	res []Result
}

// NewKBest returns an accumulator retaining the k best (smallest
// (distance, ID)) candidates. k comes straight from a request, so the
// answer set grows with what it holds rather than being sized by k: a
// k of 2⁴⁰ must cost no more than the candidates actually offered.
func NewKBest(k int) *KBest {
	return &KBest{k: max(k, 0)}
}

// less is the (distance, ID) order every answer list is sorted by.
func less(aDist float64, aID int, bDist float64, bID int) bool {
	if aDist != bDist {
		return aDist < bDist
	}
	return aID < bID
}

// SortResults sorts rs by (distance, ID): the one answer order of every
// backend, the cross-shard merge and the live-track stage.
func SortResults(rs []Result) {
	sort.Slice(rs, func(a, b int) bool {
		return less(rs[a].Dist, rs[a].Traj.ID, rs[b].Dist, rs[b].Traj.ID)
	})
}

// Offer inserts the candidate if it belongs in the current k best,
// evicting the (distance, ID)-largest entry when over capacity. It
// reports whether the candidate was kept.
func (q *KBest) Offer(t *traj.Trajectory, d float64) bool {
	if q.k <= 0 {
		return false
	}
	if len(q.res) >= q.k {
		w := q.res[len(q.res)-1]
		if !less(d, t.ID, w.Dist, w.Traj.ID) {
			return false
		}
	}
	i := sort.Search(len(q.res), func(i int) bool {
		return less(d, t.ID, q.res[i].Dist, q.res[i].Traj.ID)
	})
	if len(q.res) < q.k {
		q.res = append(q.res, Result{})
	}
	copy(q.res[i+1:], q.res[i:])
	q.res[i] = Result{Traj: t, Dist: d}
	return true
}

// Bound returns the tightest abandon limit the answer set justifies: the
// k-th best distance once full, +Inf before (and always for k = 0, which
// holds nothing to bound by). A candidate whose distance
// strictly exceeds it can never enter the answer (a candidate tying it
// exactly still can, on ID — callers must abandon strictly above Bound,
// never at it).
func (q *KBest) Bound() float64 {
	if len(q.res) < q.k || q.k == 0 {
		return math.Inf(1)
	}
	return q.res[len(q.res)-1].Dist
}

// Full reports whether k candidates are held.
func (q *KBest) Full() bool { return len(q.res) >= q.k }

// Results returns the held candidates sorted by (distance, ID). The
// slice is the accumulator's own backing store; do not Offer afterwards.
func (q *KBest) Results() []Result { return q.res }
