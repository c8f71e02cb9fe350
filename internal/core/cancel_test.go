package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"trajmatch/internal/traj"
)

func bigTrajectory(id, n int, seed int64) *traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]traj.Point, n)
	x, y := 0.0, 0.0
	for i := range pts {
		x += rng.Float64()*10 - 5
		y += rng.Float64()*10 - 5
		pts[i] = traj.P(x, y, float64(i))
	}
	return traj.New(id, pts)
}

// A nil cancel flag must leave every result bit-identical to the
// cancel-free entry points.
func TestCancelNilIsIdentity(t *testing.T) {
	a := bigTrajectory(1, 60, 7)
	b := bigTrajectory(2, 45, 8)
	for _, limit := range []float64{math.Inf(1), 1e6, 10} {
		d1, ab1 := DistanceBounded(a, b, limit)
		d2, ab2 := DistanceBoundedCancel(a, b, limit, nil)
		if d1 != d2 || ab1 != ab2 {
			t.Fatalf("limit %v: nil-cancel diverges: (%v,%v) != (%v,%v)", limit, d2, ab2, d1, ab1)
		}
		s1, sb1 := SubDistanceBounded(a, b, limit)
		s2, sb2 := SubDistanceBoundedCancel(a, b, limit, nil)
		if s1 != s2 || sb1 != sb2 {
			t.Fatalf("limit %v: sub nil-cancel diverges", limit)
		}
	}
}

// A pre-fired flag abandons before any row is relaxed.
func TestCancelPreFiredAbandonsImmediately(t *testing.T) {
	a := bigTrajectory(1, 40, 1)
	b := bigTrajectory(2, 40, 2)
	var c Cancel
	c.Set()
	for name, call := range map[string]func() (float64, bool){
		"distance": func() (float64, bool) { return DistanceBoundedCancel(a, b, math.Inf(1), &c) },
		"avg":      func() (float64, bool) { return AvgDistanceBoundedCancel(a, b, math.Inf(1), &c) },
		"sub":      func() (float64, bool) { return SubDistanceBoundedCancel(a, b, math.Inf(1), &c) },
	} {
		d, abandoned := call()
		if !math.IsInf(d, 1) || !abandoned {
			t.Fatalf("%s: pre-cancelled call returned (%v, %v), want (+Inf, true)", name, d, abandoned)
		}
	}
}

// A flag fired mid-evaluation stops the DP long before it would finish:
// the whole batch of evaluations below runs in a small fraction of the
// uncancelled wall clock.
func TestCancelStopsInFlightEvaluation(t *testing.T) {
	a := bigTrajectory(1, 2000, 3)
	b := bigTrajectory(2, 2000, 4)

	t0 := time.Now()
	DistanceBoundedCancel(a, b, math.Inf(1), nil)
	full := time.Since(t0)

	var c Cancel
	done := make(chan struct{})
	go func() {
		time.Sleep(full / 100)
		c.Set()
		close(done)
	}()
	t0 = time.Now()
	d, abandoned := DistanceBoundedCancel(a, b, math.Inf(1), &c)
	cancelled := time.Since(t0)
	<-done
	if !math.IsInf(d, 1) || !abandoned {
		t.Fatalf("cancelled call returned (%v, %v), want (+Inf, true)", d, abandoned)
	}
	// Generous bound: the cancelled call fired at ~1% of the full wall
	// clock and may finish at most one row later.
	if cancelled > full/2+50*time.Millisecond {
		t.Fatalf("cancelled evaluation took %v, full evaluation %v — cancellation did not cut the DP short", cancelled, full)
	}
}
