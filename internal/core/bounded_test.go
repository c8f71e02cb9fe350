package core

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/raceflag"
	"trajmatch/internal/traj"
)

// skipIfRace skips alloc-count assertions under the race detector, where
// sync.Pool drops a quarter of Puts by design and every pooled code path
// therefore allocates on a random fraction of calls. CI runs these tests
// in a separate non-race step so the fences still gate merges.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool deliberately drops Puts")
	}
}

// The bounded kernel's contract, verified property-style on random
// workloads:
//
//  1. limit = +Inf is bit-identical to the unbounded kernel,
//  2. a finite return value always equals the unbounded value exactly,
//  3. +Inf is returned only when the true value exceeds the limit.

func TestDistanceBoundedInfEqualsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for it := 0; it < 200; it++ {
		a := randomTraj(rng, 2+rng.Intn(10))
		b := randomTraj(rng, 2+rng.Intn(10))
		want := Distance(a, b)
		if got, abandoned := DistanceBounded(a, b, math.Inf(1)); got != want || abandoned {
			t.Fatalf("DistanceBounded(+Inf) = %v (abandoned %v), Distance = %v", got, abandoned, want)
		}
		wantAvg := AvgDistance(a, b)
		if got, abandoned := AvgDistanceBounded(a, b, math.Inf(1)); got != wantAvg || abandoned {
			t.Fatalf("AvgDistanceBounded(+Inf) = %v (abandoned %v), AvgDistance = %v", got, abandoned, wantAvg)
		}
		wantSub := SubDistance(a, b)
		if got, abandoned := SubDistanceBounded(a, b, math.Inf(1)); got != wantSub || abandoned {
			t.Fatalf("SubDistanceBounded(+Inf) = %v (abandoned %v), SubDistance = %v", got, abandoned, wantSub)
		}
	}
}

// checkBoundedContract asserts properties 2 and 3 for one bounded/unbounded
// function pair over randomized limits around the true value, plus the
// abandoned-flag semantics: +Inf under a finite limit carries the flag,
// finite results never do.
func checkBoundedContract(t *testing.T, name string,
	exact func(a, b *traj.Trajectory) float64,
	bounded func(a, b *traj.Trajectory, limit float64) (float64, bool),
	a, b *traj.Trajectory) {
	t.Helper()
	want := exact(a, b)
	for _, f := range []float64{0, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 10.0} {
		limit := want * f
		if want == 0 {
			limit = f
		}
		got, abandoned := bounded(a, b, limit)
		if math.IsInf(got, 1) {
			if want <= limit {
				t.Fatalf("%s: abandoned at limit %v although exact value %v is within it", name, limit, want)
			}
			if !abandoned {
				t.Fatalf("%s: +Inf under finite limit %v not flagged as abandoned", name, limit)
			}
			continue
		}
		if abandoned {
			t.Fatalf("%s: finite result %v flagged as abandoned (limit %v)", name, got, limit)
		}
		if got != want {
			t.Fatalf("%s: bounded returned finite %v != exact %v (limit %v)", name, got, want, limit)
		}
	}
}

func TestBoundedFiniteValuesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 120; it++ {
		a := randomTraj(rng, 2+rng.Intn(8))
		b := randomTraj(rng, 2+rng.Intn(8))
		checkBoundedContract(t, "Distance", Distance, DistanceBounded, a, b)
		checkBoundedContract(t, "AvgDistance", AvgDistance, AvgDistanceBounded, a, b)
		checkBoundedContract(t, "SubDistance", SubDistance, SubDistanceBounded, a, b)
	}
}

func TestDistanceBoundedAbandonsFarPairs(t *testing.T) {
	a := traj.FromXY(0, 0, 0, 10, 0, 20, 0)
	b := traj.FromXY(1, 0, 1000, 10, 1000, 20, 1000)
	if got, abandoned := DistanceBounded(a, b, 1); !math.IsInf(got, 1) || !abandoned {
		t.Fatalf("far pair under tiny limit = %v (abandoned %v), want +Inf, true", got, abandoned)
	}
	// Degenerate inputs behave exactly like the unbounded kernel, and a
	// genuinely infinite distance is NOT flagged as an abandon — the
	// EarlyAbandons counters must not be polluted by degenerate data.
	empty := traj.New(2, nil)
	if got, abandoned := DistanceBounded(empty, a, 1); !math.IsInf(got, 1) || abandoned {
		t.Fatalf("DistanceBounded(∅, T) = %v (abandoned %v), want +Inf, false", got, abandoned)
	}
	if got, abandoned := DistanceBounded(empty, empty, 0); got != 0 || abandoned {
		t.Fatalf("DistanceBounded(∅, ∅) = %v (abandoned %v), want 0, false", got, abandoned)
	}
	// Zero-spatial-length trajectories: every edit's Coverage factor is 0,
	// so EDwP is 0 and the sum == 0 normaliser path returns 0 — never an
	// abandon, regardless of limit.
	still := traj.New(3, []traj.Point{traj.P(5, 5, 0), traj.P(5, 5, 10)})
	still2 := traj.New(4, []traj.Point{traj.P(9, 9, 0), traj.P(9, 9, 10)})
	if got, abandoned := AvgDistanceBounded(still, still2, 1); got != 0 || abandoned {
		t.Fatalf("AvgDistanceBounded(zero-length pair) = %v (abandoned %v), want 0, false", got, abandoned)
	}
}

// The steady-state kernel must not allocate: XY projections are cached on
// the trajectories and all DP scratch is pooled. This is the regression
// fence for the zero-alloc guarantee (the ISSUE-2 tentpole).
func TestDistanceZeroAllocs(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewSource(43))
	a := randomSmoothTraj(rng, 40)
	b := randomSmoothTraj(rng, 35)
	// Warm caches and pool outside the measured region.
	Distance(a, b)

	if n := testing.AllocsPerRun(100, func() { Distance(a, b) }); n != 0 {
		t.Errorf("Distance allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = DistanceBounded(a, b, 1) }); n != 0 {
		t.Errorf("DistanceBounded allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { AvgDistance(a, b) }); n != 0 {
		t.Errorf("AvgDistance allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { SubDistance(a, b) }); n != 0 {
		t.Errorf("SubDistance allocates %v per run, want 0", n)
	}
}

func TestLowerBoundZeroAllocs(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewSource(44))
	member := randomSmoothTraj(rng, 30)
	q := randomSmoothTraj(rng, 20)
	// Box the slice-typed test helper into the interface once: production
	// callers pass *tbox.Seq, which boxes without allocating.
	var b Boxes = boxesFor([]*traj.Trajectory{member})
	LowerBound(q, b)
	if n := testing.AllocsPerRun(100, func() { LowerBound(q, b) }); n != 0 {
		t.Errorf("LowerBound allocates %v per run, want 0", n)
	}
}

// Concurrent bounded calls share the scratch pool and the per-trajectory
// XY caches; the race detector run of CI exercises this path.
func TestDistanceBoundedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	trajs := make([]*traj.Trajectory, 8)
	for i := range trajs {
		trajs[i] = randomSmoothTraj(rng, 10+i)
	}
	want := make([][]float64, len(trajs))
	for i := range trajs {
		want[i] = make([]float64, len(trajs))
		for j := range trajs {
			want[i][j] = Distance(trajs[i], trajs[j])
		}
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for it := 0; it < 50; it++ {
				i, j := it%len(trajs), (it*3+1)%len(trajs)
				if got, _ := DistanceBounded(trajs[i], trajs[j], math.Inf(1)); got != want[i][j] {
					done <- errMismatch(got, want[i][j])
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errMismatchT struct{ got, want float64 }

func errMismatch(got, want float64) error { return errMismatchT{got, want} }
func (e errMismatchT) Error() string      { return "concurrent distance mismatch" }
