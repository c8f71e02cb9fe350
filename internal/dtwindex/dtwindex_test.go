package dtwindex

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/baseline"
	"trajmatch/internal/core"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

func smallDB(n int) []*traj.Trajectory {
	cfg := synth.DefaultTaxi(n)
	cfg.CitySize = 3000
	return synth.Taxi(cfg)
}

// dtwDist is the index's own DTW kernel before it was folded into
// baseline.DTW, kept verbatim as the oracle of the one kernel both now
// share. It answers an empty side with a 1e308 sentinel where the shared
// kernel answers +Inf; nothing else differs.
//
// dtwDist computes DTW with Euclidean ground distance, abandoning as soon
// as a whole row exceeds limit (+Inf disables). DTW costs only
// accumulate, so the abandoned value is itself a valid lower bound
// > limit; the abandon test is strict, so a distance tying the limit
// exactly is still computed in full. cancel (may be nil) is polled once
// per DP row; a fired flag abandons immediately — the caller discards the
// poisoned answer through its Ctl's error.
func dtwDist(P, Q []traj.Point, limit float64, cancel *core.Cancel) (float64, bool) {
	n, m := len(P), len(Q)
	if n == 0 || m == 0 {
		if n == m {
			return 0, false
		}
		return 1e308, false // the no-alignment sentinel, exact as before
	}
	inf := 1e308
	prev := make([]float64, m)
	cur := make([]float64, m)
	for i := 0; i < n; i++ {
		if cancel.Cancelled() {
			return 0, true
		}
		rowMin := inf
		for j := 0; j < m; j++ {
			d := P[i].Dist(Q[j])
			switch {
			case i == 0 && j == 0:
				cur[j] = d
			case i == 0:
				cur[j] = cur[j-1] + d
			case j == 0:
				cur[j] = prev[j] + d
			default:
				best := prev[j-1]
				if prev[j] < best {
					best = prev[j]
				}
				if cur[j-1] < best {
					best = cur[j-1]
				}
				cur[j] = best + d
			}
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > limit {
			return rowMin, true
		}
		prev, cur = cur, prev
	}
	return prev[m-1], false
}

// dist is the kernel the index serves.
func dist(a, b *traj.Trajectory, limit float64) (float64, bool) {
	return baseline.DTW{}.DistEarlyAbandonCancel(a, b, limit, nil)
}

// TestDTWAgreesWithBaseline pins the shared kernel to the index's former
// copy on random pairs of 1 to 40 points: the unbounded call, and Dist,
// equal it bit for bit; a bounded call equals the unbounded one whenever
// its result is at most the limit; and a result above the limit is the
// unbounded value or, abandoned, a bound on one above the limit too. Empty
// sides answer +Inf against one point and 0
// against each other.
func TestDTWAgreesWithBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	walk := func(n int) *traj.Trajectory {
		pts := make([]traj.Point, n)
		x, y := rng.Float64()*1000, rng.Float64()*1000
		for i := range pts {
			x, y = x+rng.NormFloat64()*40, y+rng.NormFloat64()*40
			pts[i] = traj.P(x, y, float64(i))
		}
		return traj.New(0, pts)
	}
	for it := 0; it < 400; it++ {
		a, b := walk(1+rng.Intn(40)), walk(1+rng.Intn(40))
		want, _ := dtwDist(a.Points, b.Points, math.Inf(1), nil)
		got, ab := dist(a, b, math.Inf(1))
		if ab || math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(baseline.DTW{}.Dist(a, b)) != math.Float64bits(want) {
			t.Fatalf("pair %d: unbounded DTW %v (abandoned %v), Dist %v, oracle %v", it, got, ab, baseline.DTW{}.Dist(a, b), want)
		}
		limit := want * 2 * rng.Float64()
		bounded, ab := dist(a, b, limit)
		if bounded <= limit && (ab || bounded != want) || bounded > limit && (want <= limit || !ab && bounded != want) {
			t.Fatalf("pair %d: bounded DTW %v (abandoned %v) at limit %v, unbounded %v", it, bounded, ab, limit, want)
		}
	}
	empty, one := traj.New(1, nil), walk(1)
	if d := (baseline.DTW{}).Dist(empty, one); !math.IsInf(d, 1) {
		t.Fatalf("DTW against an empty side = %v, want +Inf", d)
	}
	if d := (baseline.DTW{}).Dist(empty, empty); d != 0 {
		t.Fatalf("DTW between empty sides = %v, want 0", d)
	}
}

func TestLowerBoundAdmissible(t *testing.T) {
	db := smallDB(40)
	rng := rand.New(rand.NewSource(142))
	for it := 0; it < 20; it++ {
		q := db[rng.Intn(len(db))]
		for i := range db {
			lb := lowerBound(q, db[i], db[i].Bounds())
			d, _ := dist(q, db[i], math.Inf(1))
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
		full, ab := dist(a, b, math.Inf(1))
		if ab {
			t.Fatal("unbounded evaluation abandoned")
		}
		// The abandon test is strict, so a limit equal to the true
		// distance must still produce the exact value.
		got, ab := dist(a, b, full)
		if ab || math.Abs(got-full) > 1e-9*(1+full) {
			t.Fatalf("limit = true distance altered result: %v (abandoned=%v) vs %v", got, ab, full)
		}
		if full > 1 {
			// Either the row-minimum test fires (the returned lower bound
			// certifies the limit) or the program runs to completion and
			// returns the exact distance; both prove d > limit.
			got, ab := dist(a, b, full/2)
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
