package backend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"trajmatch/internal/traj"
)

// fixedCands returns one candidate per (id, dist) pair, bounded by lb,
// with an eval that honours the strict-abandon contract: the exact
// distance when it is within limit, abandoned otherwise.
func fixedCands(lb float64, dists map[int]float64) ([]Cand, func(t *traj.Trajectory, limit float64) (float64, bool)) {
	var cands []Cand
	for id := range dists {
		cands = append(cands, Cand{T: &traj.Trajectory{ID: id}, LB: lb})
	}
	SortCands(cands)
	return cands, func(t *traj.Trajectory, limit float64) (float64, bool) {
		d := dists[t.ID]
		return d, d > limit
	}
}

func resultIDs(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Traj.ID
	}
	return out
}

// TestScanKNNTieAtSharedBound: a shared bound seeded at exactly the k-th
// best distance, with candidate bounds tying it, prunes nothing that
// belongs in the answer — the prune and the abandon are both strict, so
// the tie group reaches the ID tie-break and the smallest IDs win.
func TestScanKNNTieAtSharedBound(t *testing.T) {
	cands, eval := fixedCands(2, map[int]float64{9: 2, 4: 2, 7: 2, 1: 3, 5: 2})
	var st Stats
	res, truncated, err := ScanKNN(cands, 3, NewSharedBound(2), nil, &st, eval)
	if err != nil || truncated {
		t.Fatalf("err=%v truncated=%v", err, truncated)
	}
	if got := resultIDs(res); len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 7 {
		t.Fatalf("answer %v, want [4 5 7]", got)
	}
	if st.DistanceCalls != 5 || st.EarlyAbandons != 1 || st.NodesPruned != 0 {
		t.Fatalf("stats %+v, want 5 calls, 1 abandon (ID 1 at 3 > 2), nothing pruned", st)
	}
}

// TestVerifierTightensWhenFull: the step publishes the local k-th best
// through the shared bound only once the answer set holds k, and every
// later improvement lowers it again.
func TestVerifierTightensWhenFull(t *testing.T) {
	bound := NewSharedBound(math.Inf(1))
	dists := map[int]float64{1: 5, 2: 8, 3: 6, 4: 9}
	var st Stats
	v := NewVerifier(2, bound, nil, &st, func(t *traj.Trajectory, limit float64) (float64, bool) {
		d := dists[t.ID]
		return d, d > limit
	})
	for _, c := range []struct {
		id        int
		wantBound float64
	}{{1, math.Inf(1)}, {2, 8}, {3, 6}, {4, 6}} {
		if !v.Verify(&traj.Trajectory{ID: c.id}) {
			t.Fatalf("Verify(%d) asked to stop", c.id)
		}
		if b := bound.Load(); b != c.wantBound {
			t.Fatalf("after %d: shared bound %v, want %v", c.id, b, c.wantBound)
		}
	}
	res, _, _ := v.Results()
	if got := resultIDs(res); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("answer %v, want [1 3]", got)
	}
	if st.DistanceCalls != 4 || st.EarlyAbandons != 1 {
		t.Fatalf("stats %+v, want 4 calls and 1 abandon (ID 4 at 9 > 6)", st)
	}
}

// TestVerifierDropsValueAboveLimit: a kernel may run to completion and
// finish above the limit it was given without reporting an abandon (DTW
// and EDR do when the last row's minimum was within it). The step
// neither offers that value nor counts it as an abandon, so no answer
// exceeds a shared bound; the same rule is what makes a range query a
// k-NN search with no cap on k seeded at the radius.
func TestVerifierDropsValueAboveLimit(t *testing.T) {
	cands, _ := fixedCands(0, map[int]float64{1: 1, 2: 2, 3: 5, 4: 0})
	eval := func(t *traj.Trajectory, limit float64) (float64, bool) {
		if t.ID == 3 {
			return limit + 1, false
		}
		return float64(t.ID % 4), false
	}
	for _, c := range []struct {
		name string
		k    int
		seed float64
		want []int
	}{
		{"knn under a shared bound", 4, 2, []int{4, 1, 2}},
		{"range at radius 1", math.MaxInt, 1, []int{4, 1}},
		{"range at radius 0", math.MaxInt, 0, []int{4}},
	} {
		var st Stats
		res, truncated, err := ScanKNN(cands, c.k, NewSharedBound(c.seed), nil, &st, eval)
		if err != nil || truncated {
			t.Fatalf("%s: err=%v truncated=%v", c.name, err, truncated)
		}
		if got := resultIDs(res); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("%s: answer %v, want %v", c.name, got, c.want)
		}
		if st.DistanceCalls != 4 || st.EarlyAbandons != 0 {
			t.Fatalf("%s: stats %+v, want 4 calls and no abandon", c.name, st)
		}
	}
}

// TestVerifierBudgetTruncates: an exhausted budget stops the step before
// the evaluation it cannot pay for, and the answer is the best of the
// candidates evaluated so far, marked truncated.
func TestVerifierBudgetTruncates(t *testing.T) {
	cands, eval := fixedCands(0, map[int]float64{1: 7, 2: 3, 3: 5, 4: 1, 5: 2})
	ctl := NewCtl(context.Background(), 3)
	defer ctl.Release()
	var st Stats
	res, truncated, err := ScanKNN(cands, 2, nil, ctl, &st, eval)
	if err != nil || !truncated {
		t.Fatalf("err=%v truncated=%v, want a truncated answer", err, truncated)
	}
	if st.DistanceCalls != 3 {
		t.Fatalf("%d distance calls under a budget of 3", st.DistanceCalls)
	}
	if got := resultIDs(res); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("answer %v, want [2 3], the best of IDs 1–3", got)
	}
}

// TestVerifierCancelledKernel: an evaluation cut short by a fired context
// stops the step without counting an abandon, and the answer is replaced
// by the context's error.
func TestVerifierCancelledKernel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ctl := NewCtl(ctx, 0)
	defer ctl.Release()
	var st Stats
	v := NewVerifier(3, nil, ctl, &st, func(t *traj.Trajectory, limit float64) (float64, bool) {
		if t.ID == 2 {
			cancel()
			for !ctl.Cancelled() { // the context's watcher sets the flag
				runtime.Gosched()
			}
			return math.Inf(1), true
		}
		return float64(t.ID), false
	})
	if !v.Verify(&traj.Trajectory{ID: 1}) {
		t.Fatal("a plain evaluation asked to stop")
	}
	if v.Verify(&traj.Trajectory{ID: 2}) {
		t.Fatal("a cancelled evaluation did not stop the search")
	}
	if res, _, err := v.Results(); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Results after cancellation: %v, err %v", res, err)
	}
	if st.DistanceCalls != 2 || st.EarlyAbandons != 0 {
		t.Fatalf("stats %+v, want 2 calls and no abandon", st)
	}
}

// TestSortResultsOrder: SortResults orders by distance, then ID, over
// random lists with frequent exact ties.
func TestSortResultsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 50; it++ {
		rs := make([]Result, rng.Intn(30))
		for i := range rs {
			rs[i] = Result{Traj: &traj.Trajectory{ID: i}, Dist: float64(rng.Intn(4))}
		}
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		SortResults(rs)
		if !sort.SliceIsSorted(rs, func(a, b int) bool {
			return rs[a].Dist < rs[b].Dist || (rs[a].Dist == rs[b].Dist && rs[a].Traj.ID < rs[b].Traj.ID)
		}) {
			t.Fatalf("it=%d: not in (distance, ID) order: %v", it, rs)
		}
	}
}
