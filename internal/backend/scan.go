package backend

import (
	"sort"

	"trajmatch/internal/traj"
)

// This file is the verify step behind every exact search and the
// bound-ordered scan built on it: the candidate ordering, pruning,
// budget, shared-bound and tie-break discipline live here once, and a
// caller contributes only its candidates and its early-abandoning kernel.

// Cand pairs a candidate trajectory with its admissible lower bound.
// Scans visit candidates in ascending (bound, ID) order — SortCands — so
// the visit order, and with it every tie-broken decision and stats
// counter downstream, is a deterministic function of the database alone.
type Cand struct {
	T  *traj.Trajectory
	LB float64
}

// SortCands orders candidates by (lower bound, ID).
func SortCands(cands []Cand) {
	sort.Slice(cands, func(a, b int) bool {
		return less(cands[a].LB, cands[a].T.ID, cands[b].LB, cands[b].T.ID)
	})
}

// Verifier is the per-candidate step of an exact k-NN search: it spends
// one unit of the Ctl's evaluation budget, evaluates the candidate under
// the tightest admissible limit (Limit), counts an abandoned evaluation,
// offers an exact distance to the (distance, ID) answer set, and
// publishes every tightening through the shared bound. ScanKNN drives it
// over bound-ordered candidates and the tree descent over the members it
// takes off its queue, so which candidates enter an answer is decided by
// this one step whatever produced them.
type Verifier struct {
	ans       *KBest
	bound     *SharedBound
	ctl       *Ctl
	st        *Stats
	eval      func(t *traj.Trajectory, limit float64) (float64, bool)
	truncated bool
}

// NewVerifier returns the step for one k-NN search. bound and ctl follow
// the Backend search contract (either may be nil). eval must return the
// exact distance of t with false — a finished evaluation, which may lie
// above limit — or (any value, true) when no completion can stay within
// limit — the strict-abandon contract that keeps boundary ties eligible
// for the ID tie-break. Counters accumulate into st (DistanceCalls,
// EarlyAbandons).
func NewVerifier(k int, bound *SharedBound, ctl *Ctl, st *Stats,
	eval func(t *traj.Trajectory, limit float64) (float64, bool)) *Verifier {
	return &Verifier{ans: NewKBest(k), bound: bound, ctl: ctl, st: st, eval: eval}
}

// Limit returns the tightest admissible abandon limit currently known:
// the local k-th best once the answer set is full, lowered further by the
// shared bound when one is attached. Callers prune strictly above it — a
// candidate or subtree whose bound ties it exactly may still enter the
// answer on the ID tie-break.
func (v *Verifier) Limit() float64 {
	limit := v.ans.Bound()
	if v.bound != nil {
		if b := v.bound.Load(); b < limit {
			limit = b
		}
	}
	return limit
}

// Verify runs the step on t. Abandoned candidates are never offered:
// under a shared bound the local answer set may not be full yet, and a
// +Inf entry would poison it. Nor is a full evaluation that finished
// above the limit it ran under (a kernel may complete there without
// abandoning): it is dropped without counting as an abandon, so no
// answer exceeds the shared bound — and a range query, which is this
// step with no cap on k and the bound seeded at the radius, keeps
// exactly the members within its radius. Verify reports false when the
// search must stop: the budget ran out (Results then reports truncation)
// or the kernel was cut short by a fired context (Results then reports
// the context's error).
func (v *Verifier) Verify(t *traj.Trajectory) bool {
	if !v.ctl.Take() {
		v.truncated = true
		return false
	}
	v.st.DistanceCalls++
	limit := v.Limit()
	d, abandoned := v.eval(t, limit)
	if abandoned {
		if v.ctl.Cancelled() {
			// The kernel aborted on the flag, not the limit; the value is
			// meaningless and the poisoned answer is discarded.
			return false
		}
		v.st.EarlyAbandons++
		return true
	}
	if d > limit {
		return true
	}
	if v.ans.Offer(t, d) && v.bound != nil && v.ans.Full() {
		v.bound.Tighten(v.ans.Bound())
	}
	return true
}

// Results returns the answer sorted by (distance, ID) and whether the
// budget truncated it. A non-nil error is ctl's context error: a fired
// context may have poisoned in-flight evaluations, so the other returns
// are then meaningless and must be discarded.
func (v *Verifier) Results() ([]Result, bool, error) {
	if err := v.ctl.Err(); err != nil {
		return nil, false, err
	}
	return v.ans.Results(), v.truncated, nil
}

// ScanKNN runs the generic early-abandoning k-NN scan over (bound, ID)-
// ordered candidates: prune strictly above the Verifier's limit and run
// the Verifier on the rest. Counters accumulate into st (DistanceCalls,
// EarlyAbandons, NodesPruned); eval, truncation and error semantics are
// the Verifier's.
func ScanKNN(cands []Cand, k int, bound *SharedBound, ctl *Ctl, st *Stats,
	eval func(t *traj.Trajectory, limit float64) (float64, bool)) ([]Result, bool, error) {
	v := NewVerifier(k, bound, ctl, st, eval)
	for ci, c := range cands {
		if ctl.Cancelled() {
			break
		}
		if c.LB > v.Limit() {
			// Candidates are in ascending bound order and the limit only
			// ever tightens: everything left is pruned too.
			st.NodesPruned += len(cands) - ci
			break
		}
		if !v.Verify(c.T) {
			break
		}
	}
	return v.Results()
}
