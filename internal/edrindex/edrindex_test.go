package edrindex

import (
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

func TestLowerBoundAdmissible(t *testing.T) {
	db := smallDB(40)
	edr := baseline.EDR{Eps: 60}
	rng := rand.New(rand.NewSource(102))
	for it := 0; it < 20; it++ {
		q := db[rng.Intn(len(db))]
		qGrid := gridOf(q, edr.Eps)
		for i := range db {
			lb := lowerBound(q, db[i], qGrid, gridOf(db[i], edr.Eps))
			d := edr.Dist(q, db[i])
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
