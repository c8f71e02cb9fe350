package dtwindex

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/baseline"
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
	ix := New(db)
	rng := rand.New(rand.NewSource(141))
	for it := 0; it < 10; it++ {
		q := db[rng.Intn(len(db))]
		for _, k := range []int{1, 5, 10} {
			got, _, _, _ := ix.SearchKNN(q, k, nil, nil)
			want := ix.KNNBrute(q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
					t.Fatalf("k=%d rank %d: %v vs %v", k, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestDTWAgreesWithBaseline(t *testing.T) {
	db := smallDB(20)
	m := baseline.DTW{}
	for i := 1; i < len(db); i++ {
		a, _ := dtwDist(db[0].Points, db[i].Points, math.Inf(1), nil)
		b := m.Dist(db[0], db[i])
		if math.Abs(a-b) > 1e-9*(1+b) {
			t.Fatalf("index DTW %v != baseline DTW %v", a, b)
		}
	}
}

func TestLowerBoundAdmissible(t *testing.T) {
	db := smallDB(40)
	ix := New(db)
	rng := rand.New(rand.NewSource(142))
	for it := 0; it < 20; it++ {
		q := db[rng.Intn(len(db))]
		for i := range db {
			lb := ix.lowerBound(q, i)
			d, _ := dtwDist(q.Points, db[i].Points, math.Inf(1), nil)
			if lb > d+1e-9*(1+d) {
				t.Fatalf("DTW lower bound %v exceeds distance %v", lb, d)
			}
		}
	}
}

func TestEarlyAbandonCertifiesBound(t *testing.T) {
	db := smallDB(30)
	rng := rand.New(rand.NewSource(143))
	for it := 0; it < 50; it++ {
		a := db[rng.Intn(len(db))]
		b := db[rng.Intn(len(db))]
		full, ab := dtwDist(a.Points, b.Points, math.Inf(1), nil)
		if ab {
			t.Fatal("unbounded evaluation abandoned")
		}
		// The abandon test is strict, so a limit equal to the true
		// distance must still produce the exact value.
		got, ab := dtwDist(a.Points, b.Points, full, nil)
		if ab || math.Abs(got-full) > 1e-9*(1+full) {
			t.Fatalf("limit = true distance altered result: %v (abandoned=%v) vs %v", got, ab, full)
		}
		if full > 1 {
			// Either the row-minimum test fires (the returned lower bound
			// certifies the limit) or the program runs to completion and
			// returns the exact distance; both prove d > limit.
			got, ab := dtwDist(a.Points, b.Points, full/2, nil)
			if got <= full/2 {
				t.Fatalf("value %v (abandoned=%v) does not certify limit %v", got, ab, full/2)
			}
			if !ab && math.Abs(got-full) > 1e-9*(1+full) {
				t.Fatalf("unabandoned bounded value %v differs from exact %v", got, full)
			}
		}
	}
}

func TestPruningHappens(t *testing.T) {
	db := smallDB(150)
	ix := New(db)
	_, st, _, _ := ix.SearchKNN(db[3], 5, nil, nil)
	if st.NodesPruned == 0 {
		t.Error("no candidates pruned")
	}
}

// TestTieOrderingDeterministic is the regression test for the
// nondeterministic tie ordering: with duplicated trajectories under
// fresh IDs, exact distance ties are resolved by ID — the answer is a
// pure function of the database, identical to the brute scan's
// (distance, ID) order, whatever order candidates were visited in.
func TestTieOrderingDeterministic(t *testing.T) {
	base := smallDB(30)
	var db []*traj.Trajectory
	for i, tr := range base {
		db = append(db, tr)
		dup := tr.Clone()
		dup.ID = 1000 + i
		db = append(db, dup)
	}
	ix := New(db)
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

func TestDegenerateInputs(t *testing.T) {
	ix := New(nil)
	if res, _, _, _ := ix.SearchKNN(traj.FromXY(0, 0, 0, 1, 1), 3, nil, nil); len(res) != 0 {
		t.Error("kNN over empty index returned results")
	}
	db := smallDB(4)
	ix = New(db)
	if res, _, _, _ := ix.SearchKNN(db[0], 0, nil, nil); len(res) != 0 {
		t.Error("k=0 returned results")
	}
}
