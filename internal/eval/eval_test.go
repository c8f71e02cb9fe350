package eval

import (
	"math/rand"
	"testing"

	"trajmatch/internal/baseline"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

func TestClassificationSeparatesEasyClasses(t *testing.T) {
	// Well-separated classes: 1-NN with EDwP should be near-perfect.
	cfg := synth.ASLConfig{NumClasses: 4, Instances: 8, Points: 20, Jitter: 0.01, Seed: 6}
	db := synth.ASL(cfg)
	rng := rand.New(rand.NewSource(111))
	acc := Classification(db, baseline.EDwP{}, 4, rng)
	if acc < 0.8 {
		t.Errorf("accuracy %v on easy classes, want ≥ 0.8", acc)
	}
}

func TestClassificationDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	if got := Classification(nil, baseline.DTW{}, 10, rng); got != 0 {
		t.Errorf("empty dataset accuracy = %v", got)
	}
	one := synth.ASL(synth.ASLConfig{NumClasses: 1, Instances: 1, Points: 5, Jitter: 0, Seed: 1})
	if got := Classification(one, baseline.DTW{}, 10, rng); got != 0 {
		t.Errorf("singleton dataset accuracy = %v", got)
	}
}

func TestKNNIndicesExcludesSelfAndSorts(t *testing.T) {
	cfg := synth.DefaultTaxi(30)
	db := synth.Taxi(cfg)
	m := baseline.EDwP{}
	got := knnIndices(db, m, 3, 5)
	if len(got) != 5 {
		t.Fatalf("got %d indices", len(got))
	}
	prev := -1.0
	for _, i := range got {
		if i == 3 {
			t.Fatal("query included in its own kNN")
		}
		d := m.Dist(db[3], db[i])
		if d < prev {
			t.Fatal("kNN not sorted by distance")
		}
		prev = d
	}
}

// No noise ⇒ perfect rank correlation, for every metric.
func TestRankRobustnessIdentity(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(25))
	for _, m := range []baseline.Metric{baseline.EDwP{}, baseline.EDR{Eps: 60}, baseline.DTW{}} {
		if got := rankRobustness(db, db, m, 0, 5); got < 0.999 {
			t.Errorf("%s: identity robustness = %v, want 1", m.Name(), got)
		}
	}
}

// Under inter-trajectory sampling noise EDwP must stay near-perfect while
// EDR degrades — the Fig. 5(b) headline, at miniature scale. The noise is
// heterogeneous across trajectories (half the database densified heavily,
// half untouched), the regime the paper's per-trajectory random selection
// produces at scale and the one that breaks point-matching metrics.
func TestRankRobustnessInterNoiseOrdersEDwPAboveEDR(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(40))
	dense := synth.Inter(db, 0.9, 13)
	noisy := make([]*traj.Trajectory, len(db))
	for i := range db {
		if i%2 == 0 {
			noisy[i] = dense[i]
		} else {
			noisy[i] = db[i]
		}
	}
	queries := []int{0, 7, 19}
	edwp := MeanRankRobustness(db, noisy, baseline.EDwP{}, queries, 10)
	edr := MeanRankRobustness(db, noisy, baseline.EDR{Eps: 60}, queries, 10)
	if edwp < 0.99 {
		t.Errorf("EDwP robustness to pure densification = %v, want ≈1", edwp)
	}
	if edwp <= edr {
		t.Errorf("EDwP %v not above EDR %v under inter noise", edwp, edr)
	}
}

func TestKthNNDistanceAndRandomUB(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(30))
	m := baseline.EDwP{}
	q := db[0]
	k5 := KthNNDistance(db, m, q, 5)
	k10 := KthNNDistance(db, m, q, 10)
	if k10 < k5 {
		t.Errorf("k-th distance not monotone in k: %v < %v", k10, k5)
	}
	rng := rand.New(rand.NewSource(113))
	ub := RandomUBFactor(db, m, q, 5, rng)
	if ub < 1-1e-9 {
		t.Errorf("random UB-factor %v below 1", ub)
	}
}

func TestParallelForCoversAll(t *testing.T) {
	n := 500
	seen := make([]bool, n)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	parallelFor(n, func(i int) {
		<-mu
		seen[i] = true
		mu <- struct{}{}
	})
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not visited", i)
		}
	}
}

func TestMeanRankRobustnessAggregates(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(20))
	var _ []*traj.Trajectory = db
	got := MeanRankRobustness(db, db, baseline.EDwP{}, []int{0, 1}, 3)
	if got < 0.999 {
		t.Errorf("mean identity robustness = %v", got)
	}
}
