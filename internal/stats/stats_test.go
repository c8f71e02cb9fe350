package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 30, 20})
	want := []float64{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{5, 1, 5, 2})
	// sorted: 1(r1), 2(r2), 5(r3), 5(r4) → ties share (3+4)/2 = 3.5
	want := []float64{3.5, 1, 3.5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	if got := Spearman(x, y); !almost(got, 1) {
		t.Errorf("Spearman monotone = %v, want 1", got)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if got := Spearman(x, rev); !almost(got, -1) {
		t.Errorf("Spearman reversed = %v, want -1", got)
	}
}

// Spearman is invariant under strictly monotone transformations of either
// argument — the property that makes it the right robustness measure.
func TestSpearmanMonotoneInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() * 100
			y[i] = r.Float64() * 100
		}
		s1 := Spearman(x, y)
		// exp is strictly monotone.
		ex := make([]float64, n)
		for i := range x {
			ex[i] = math.Exp(x[i] / 50)
		}
		s2 := Spearman(ex, y)
		return almost(s1, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSpearmanRange(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for it := 0; it < 200; it++ {
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		s := Spearman(x, y)
		if s < -1-1e-9 || s > 1+1e-9 {
			t.Fatalf("Spearman out of range: %v", s)
		}
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant x = %v, want 0", got)
	}
	if got := Pearson([]float64{1, 2}, []float64{1}); got != 0 {
		t.Errorf("Pearson with length mismatch = %v, want 0", got)
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-input mean not zero")
	}
}
