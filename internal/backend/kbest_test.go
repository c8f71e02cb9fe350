package backend

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"trajmatch/internal/traj"
)

// TestKBestMatchesSort: for random candidate streams with deliberate
// ties, KBest holds exactly the k smallest (distance, ID) pairs in
// order, whatever order they were offered in, and Offer reports a
// rejection exactly when the set is full and the candidate is no better
// than the worst held — always, for k = 0.
func TestKBestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 80; it++ {
		n := 1 + rng.Intn(40)
		k := rng.Intn(13)
		type pair struct {
			id int
			d  float64
		}
		cands := make([]pair, n)
		for i := range cands {
			// Coarse quantisation forces frequent exact ties.
			cands[i] = pair{id: i, d: float64(rng.Intn(5))}
		}
		rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

		q := NewKBest(k)
		for _, c := range cands {
			wantKept := k > 0
			if held := q.Results(); wantKept && len(held) == k {
				w := held[k-1]
				wantKept = c.d < w.Dist || (c.d == w.Dist && c.id < w.Traj.ID)
			}
			if kept := q.Offer(&traj.Trajectory{ID: c.id}, c.d); kept != wantKept {
				t.Fatalf("it=%d k=%d: Offer(%d, %v) kept=%v, want %v", it, k, c.id, c.d, kept, wantKept)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].id < cands[j].id
		})
		want := cands
		if len(want) > k {
			want = want[:k]
		}
		got := q.Results()
		if len(got) != len(want) {
			t.Fatalf("it=%d: %d results, want %d", it, len(got), len(want))
		}
		for i := range got {
			if got[i].Traj.ID != want[i].id || got[i].Dist != want[i].d {
				t.Fatalf("it=%d rank %d: (%d, %v), want (%d, %v)",
					it, i, got[i].Traj.ID, got[i].Dist, want[i].id, want[i].d)
			}
		}
		if q.Full() != (n >= k) {
			t.Fatalf("it=%d: Full() = %v with n=%d k=%d", it, q.Full(), n, k)
		}
		wantBound := math.Inf(1)
		if k > 0 && n >= k {
			wantBound = want[len(want)-1].d
		}
		if q.Bound() != wantBound {
			t.Fatalf("it=%d: Bound() = %v, want %v", it, q.Bound(), wantBound)
		}
	}
}

// TestKBestTieAtBound: a candidate tying the k-th distance exactly but
// with a smaller ID must displace the held entry — the strict-abandon
// contract of Bound depends on it.
func TestKBestTieAtBound(t *testing.T) {
	q := NewKBest(2)
	q.Offer(&traj.Trajectory{ID: 10}, 1)
	q.Offer(&traj.Trajectory{ID: 20}, 5)
	if !q.Offer(&traj.Trajectory{ID: 15}, 5) {
		t.Fatal("equal-distance smaller-ID candidate was rejected")
	}
	res := q.Results()
	if res[1].Traj.ID != 15 {
		t.Fatalf("held IDs %d/%d, want the ID tie-break to keep 15", res[0].Traj.ID, res[1].Traj.ID)
	}
	if q.Offer(&traj.Trajectory{ID: 30}, 5) {
		t.Fatal("equal-distance larger-ID candidate was kept")
	}
}
