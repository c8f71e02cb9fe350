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
	rng := rand.New(rand.NewSource(142))
	for it := 0; it < 20; it++ {
		q := db[rng.Intn(len(db))]
		for i := range db {
			lb := lowerBound(q, db[i], db[i].Bounds())
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
