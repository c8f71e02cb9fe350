package edrindex

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

func smallDB(n int) []*traj.Trajectory {
	cfg := synth.DefaultTaxi(n)
	cfg.CitySize = 3000
	return synth.Taxi(cfg)
}

func TestKNNMatchesBruteForce(t *testing.T) {
	db := smallDB(80)
	ix := New(db, 60)
	rng := rand.New(rand.NewSource(101))
	for it := 0; it < 10; it++ {
		q := db[rng.Intn(len(db))]
		for _, k := range []int{1, 5, 10} {
			got, _, _, _ := ix.SearchKNN(q, k, nil, nil)
			want := ix.KNNBrute(q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("k=%d rank %d: %v vs %v", k, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestLowerBoundAdmissible(t *testing.T) {
	db := smallDB(40)
	ix := New(db, 60)
	rng := rand.New(rand.NewSource(102))
	for it := 0; it < 20; it++ {
		q := db[rng.Intn(len(db))]
		qGrid := gridOf(q, ix.eps)
		for i := range db {
			lb := ix.lowerBound(q, qGrid, i)
			d := ix.edr.Dist(q, db[i])
			if lb > d+1e-9 {
				t.Fatalf("EDR lower bound %v exceeds distance %v", lb, d)
			}
		}
	}
}

func TestPruningHappens(t *testing.T) {
	db := smallDB(150)
	ix := New(db, 60)
	q := db[3]
	_, st, _, _ := ix.SearchKNN(q, 5, nil, nil)
	if st.NodesPruned == 0 {
		t.Error("no candidates pruned; bounds ineffective")
	}
	if st.DistanceCalls >= len(db) {
		t.Errorf("all %d candidates fully computed", st.DistanceCalls)
	}
}

// TestTieOrderingDeterministic is the regression test for the
// nondeterministic tie ordering: EDR's integer distances tie constantly,
// and with duplicated trajectories the ties are exact — membership and
// order must follow (distance, ID), matching the brute scan IDs exactly.
func TestTieOrderingDeterministic(t *testing.T) {
	base := smallDB(30)
	var db []*traj.Trajectory
	for i, tr := range base {
		db = append(db, tr)
		dup := tr.Clone()
		dup.ID = 1000 + i
		db = append(db, dup)
	}
	ix := New(db, 60)
	for it := 0; it < 10; it++ {
		q := base[it*3%len(base)]
		for _, k := range []int{1, 3, 7} {
			got, _, _, _ := ix.SearchKNN(q, k, nil, nil)
			want := ix.KNNBrute(q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i].Traj.ID != want[i].Traj.ID || got[i].Dist != want[i].Dist {
					t.Fatalf("k=%d rank %d: (%d, %v) vs brute (%d, %v)",
						k, i, got[i].Traj.ID, got[i].Dist, want[i].Traj.ID, want[i].Dist)
				}
			}
			for i := 1; i < len(got); i++ {
				prev, cur := got[i-1], got[i]
				if cur.Dist < prev.Dist || (cur.Dist == prev.Dist && cur.Traj.ID <= prev.Traj.ID) {
					t.Fatalf("k=%d: results not in (distance, ID) order at rank %d", k, i)
				}
			}
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	ix := New(nil, 10)
	if res, _, _, _ := ix.SearchKNN(traj.FromXY(0, 0, 0, 1, 1), 5, nil, nil); len(res) != 0 {
		t.Error("kNN over empty index returned results")
	}
	db := smallDB(5)
	ix = New(db, 10)
	if res, _, _, _ := ix.SearchKNN(db[0], 0, nil, nil); len(res) != 0 {
		t.Error("k=0 returned results")
	}
	res, _, _, _ := ix.SearchKNN(db[0], 100, nil, nil)
	if len(res) != 5 {
		t.Errorf("k>n returned %d results", len(res))
	}
}
