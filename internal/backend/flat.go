package backend

import (
	"math"

	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// Flat is a flat metric index: a static database searched by the
// bound-ordered scan (ScanKNN). A metric supplies only an
// admissible lower bound and an early-abandoning kernel; Flat owns the
// members, the candidate pass and every search entry point. DTW
// (dtwindex) and EDR (edrindex) are Flat indexes. It implements Backend,
// CandidateSearcher and Distancer; it is not Mutable, so the engine
// answers updates on it with ErrNotSupported.
//
// Every candidate costs one LowerBoundCall, candidates rejected by the
// bound alone count as NodesPruned, evaluated ones as DistanceCalls, and
// evaluations the kernel cut short as EarlyAbandons.
type Flat struct {
	db    []*traj.Trajectory
	pos   map[int]int // ID → db position
	bound func(q *traj.Trajectory) func(i int) float64
	dist  func(q, t *traj.Trajectory, limit float64, cancel *core.Cancel) (float64, bool)
}

var (
	_ Backend           = (*Flat)(nil)
	_ CandidateSearcher = (*Flat)(nil)
	_ Distancer         = (*Flat)(nil)
)

// NewFlat indexes db. bound(q) prepares a query — any per-query setup
// happens there, once — and returns the admissible lower bound of q
// against db[i]. dist is the metric's kernel under the Distancer
// contract: the exact distance with abandoned = false when it ran to
// completion — above limit too, since a DTW or EDR row minimum can stay
// within limit while the final cell does not — or some value above
// limit with abandoned = true when it stopped early; cancel (may be nil)
// is polled per DP row. The verify step drops a completed value above
// the limit, so no answer exceeds it.
func NewFlat(db []*traj.Trajectory,
	bound func(q *traj.Trajectory) func(i int) float64,
	dist func(q, t *traj.Trajectory, limit float64, cancel *core.Cancel) (float64, bool)) *Flat {
	f := &Flat{db: db, pos: make(map[int]int, len(db)), bound: bound, dist: dist}
	for i, t := range db {
		f.pos[t.ID] = i
	}
	return f
}

// Size returns the number of indexed trajectories.
func (f *Flat) Size() int { return len(f.db) }

// Lookup returns the indexed trajectory with the given ID, or nil.
func (f *Flat) Lookup(id int) *traj.Trajectory {
	if i, ok := f.pos[id]; ok {
		return f.db[i]
	}
	return nil
}

// DistanceBetween evaluates the kernel between two trajectories — the
// live-track scan's entry into the same kernel the indexed search uses.
func (f *Flat) DistanceBetween(q, t *traj.Trajectory, limit float64, ctl *Ctl) (float64, bool) {
	return f.dist(q, t, limit, ctl.CancelFlag())
}

// candidates bounds the n members at(0) … at(n-1) names (at reports
// false for an ID the index does not hold) and returns them in
// SortCands order. The pass polls ctl every 64 members, so even the
// pre-scan setup stops promptly under a fired deadline.
func (f *Flat) candidates(q *traj.Trajectory, n int, at func(j int) (int, bool), st *Stats, ctl *Ctl) ([]Cand, error) {
	lb := f.bound(q)
	cands := make([]Cand, 0, n)
	for j := 0; j < n; j++ {
		if j%64 == 0 && ctl.Cancelled() {
			return nil, ctl.Err()
		}
		i, ok := at(j)
		if !ok {
			continue
		}
		st.LowerBoundCalls++
		cands = append(cands, Cand{T: f.db[i], LB: lb(i)})
	}
	SortCands(cands)
	return cands, nil
}

func (f *Flat) every(j int) (int, bool) { return j, true }

func (f *Flat) eval(q *traj.Trajectory, ctl *Ctl) func(t *traj.Trajectory, limit float64) (float64, bool) {
	return func(t *traj.Trajectory, limit float64) (float64, bool) {
		return f.dist(q, t, limit, ctl.CancelFlag())
	}
}

// SearchKNN returns the exact k nearest members of q sorted by
// (distance, ID), under the Backend search contract.
func (f *Flat) SearchKNN(q *traj.Trajectory, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	return f.knn(q, k, len(f.db), f.every, bound, ctl)
}

// SearchKNNIn is SearchKNN restricted to the candidate IDs (the
// CandidateSearcher capability). The same bounds order the subset, so
// pruning and early abandoning carry over; IDs not in the index are
// skipped, and an empty list answers empty.
func (f *Flat) SearchKNNIn(q *traj.Trajectory, ids []int, k int, bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	return f.knn(q, k, len(ids), func(j int) (int, bool) {
		i, ok := f.pos[ids[j]]
		return i, ok
	}, bound, ctl)
}

func (f *Flat) knn(q *traj.Trajectory, k, n int, at func(j int) (int, bool), bound *SharedBound, ctl *Ctl) ([]Result, Stats, bool, error) {
	var st Stats
	if k <= 0 || n == 0 || len(f.db) == 0 {
		return nil, st, false, ctl.Err()
	}
	cands, err := f.candidates(q, n, at, &st, ctl)
	if err != nil {
		return nil, st, false, err
	}
	res, truncated, err := ScanKNN(cands, k, bound, ctl, &st, f.eval(q, ctl))
	return res, st, truncated, err
}

// KNNBrute is the unpruned scan the tests verify against, with the same
// (distance, ID) ordering as SearchKNN.
func (f *Flat) KNNBrute(q *traj.Trajectory, k int) []Result {
	ans := NewKBest(k)
	for _, t := range f.db {
		d, _ := f.dist(q, t, math.Inf(1), nil)
		ans.Offer(t, d)
	}
	return ans.Results()
}
