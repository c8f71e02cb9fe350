package edrindex

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

// TestEDRAgreesWithBaseline pins the index's kernel — baseline.EDR under
// the float abandon limit, converted by intLimit — to the baseline's
// bounded program on 400 random pairs of 0–40 points, empty sides
// included: at every integer bound from -1 up to the distance, the
// limit bound + 0.5 gives the same value and abandon flag as the bound
// itself, and an infinite limit gives Dist.
func TestEDRAgreesWithBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	walk := func(n int) *traj.Trajectory {
		pts := make([]traj.Point, n)
		x, y := rng.Float64()*50, rng.Float64()*50
		for i := range pts {
			x, y = x+rng.NormFloat64()*4, y+rng.NormFloat64()*4
			pts[i] = traj.P(x, y, float64(i))
		}
		return traj.New(0, pts)
	}
	edr := baseline.EDR{Eps: 3}
	for it := 0; it < 400; it++ {
		a, b := walk(rng.Intn(41)), walk(rng.Intn(41))
		full := edr.Dist(a, b)
		if got, ab := edr.DistEarlyAbandonCancel(a, b, intLimit(math.Inf(1)), nil); got != full || ab {
			t.Fatalf("pair %d: unbounded kernel %v (abandoned %v), Dist %v", it, got, ab, full)
		}
		for bound := -1; bound <= int(full); bound++ {
			want, wantAb := edr.DistEarlyAbandonCancel(a, b, bound, nil)
			got, ab := edr.DistEarlyAbandonCancel(a, b, intLimit(float64(bound)+0.5), nil)
			if got != want || ab != wantAb {
				t.Fatalf("pair %d, bound %d: kernel at limit %v gives %v (abandoned %v), baseline %v (abandoned %v)",
					it, bound, float64(bound)+0.5, got, ab, want, wantAb)
			}
		}
	}
}
