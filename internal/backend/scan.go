package backend

import (
	"sort"

	"trajmatch/internal/traj"
)

// This file is the bound-ordered scan under every Flat index (flat.go):
// the candidate ordering, pruning, budget, shared-bound and tie-break
// discipline live here once, and a metric contributes only its lower
// bound and its early-abandoning kernel, through NewFlat.

// Cand pairs a database position with its admissible lower bound and the
// candidate's ID. Scans visit candidates in ascending (bound, ID) order
// — SortCands — so the visit order, and with it every tie-broken
// decision and stats counter downstream, is a deterministic function of
// the database alone.
type Cand struct {
	I  int
	ID int
	LB float64
}

// SortCands orders candidates by (lower bound, ID).
func SortCands(cands []Cand) {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].LB != cands[b].LB {
			return cands[a].LB < cands[b].LB
		}
		return cands[a].ID < cands[b].ID
	})
}

// ScanKNN runs the generic early-abandoning k-NN scan over (bound, ID)-
// ordered candidates: prune strictly above the tightest known limit
// (local k-th best and the shared bound), spend the Ctl's budget, skip
// abandoned evaluations, resolve exact ties by ID, and publish every
// tightening through bound. eval must return the exact distance of
// candidate i, or (lowerBound, true) when no completion can stay within
// limit — the strict-abandon contract that keeps boundary ties eligible
// for the ID tie-break. Counters accumulate into st (DistanceCalls,
// EarlyAbandons, NodesPruned); truncation and error semantics match
// Backend.SearchKNN.
func ScanKNN(cands []Cand, k int, bound *SharedBound, ctl *Ctl, st *Stats,
	lookup func(i int) *traj.Trajectory,
	eval func(i int, limit float64) (float64, bool)) ([]Result, bool, error) {
	ans := NewKBest(k)
	truncated := false
	for ci, c := range cands {
		if ctl.Cancelled() {
			return nil, false, ctl.Err()
		}
		limit := ans.Bound()
		if bound != nil {
			if b := bound.Load(); b < limit {
				limit = b
			}
		}
		if c.LB > limit {
			// Candidates are in ascending bound order and the limit only
			// ever tightens: everything left is pruned too. The prune is
			// strict — a candidate whose bound ties the k-th best exactly
			// may still enter the answer on the ID tie-break.
			st.NodesPruned += len(cands) - ci
			break
		}
		if !ctl.Take() {
			truncated = true
			break
		}
		st.DistanceCalls++
		d, abandoned := eval(c.I, limit)
		if abandoned {
			if ctl.Cancelled() {
				// The kernel aborted on the flag, not the limit; the value
				// is meaningless and the poisoned answer is discarded.
				return nil, false, ctl.Err()
			}
			st.EarlyAbandons++
			continue
		}
		if ans.Offer(lookup(c.I), d) && bound != nil && ans.Full() {
			bound.Tighten(ans.Bound())
		}
	}
	if err := ctl.Err(); err != nil {
		return nil, false, err
	}
	return ans.Results(), truncated, nil
}

// ScanRange is the radius counterpart of ScanKNN: the radius seeds every
// evaluation's abandon limit, members whose exact distance exceeds it
// are dropped, and the answer sorts by (distance, ID).
func ScanRange(cands []Cand, radius float64, ctl *Ctl, st *Stats,
	lookup func(i int) *traj.Trajectory,
	eval func(i int, limit float64) (float64, bool)) ([]Result, bool, error) {
	var out []Result
	truncated := false
	for ci, c := range cands {
		if ctl.Cancelled() {
			return nil, false, ctl.Err()
		}
		if c.LB > radius {
			st.NodesPruned += len(cands) - ci
			break
		}
		if !ctl.Take() {
			truncated = true
			break
		}
		st.DistanceCalls++
		d, abandoned := eval(c.I, radius)
		if abandoned {
			if ctl.Cancelled() {
				return nil, false, ctl.Err()
			}
			st.EarlyAbandons++
			continue
		}
		if d <= radius {
			out = append(out, Result{Traj: lookup(c.I), Dist: d})
		}
	}
	if err := ctl.Err(); err != nil {
		return nil, false, err
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Traj.ID < out[b].Traj.ID
	})
	return out, truncated, nil
}
