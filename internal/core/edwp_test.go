package core

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/traj"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// line builds a trajectory along the y-axis through the given y values,
// matching the Appendix-A construction T = [(0,0),(0,1),...].
func line(ys ...float64) *traj.Trajectory {
	pts := make([]traj.Point, len(ys))
	for i, y := range ys {
		pts[i] = traj.P(0, y, float64(i))
	}
	return traj.New(0, pts)
}

// Appendix A (Theorem 1): EDwP(T1,T2)=1, EDwP(T2,T3)=1, EDwP(T1,T3)=4,
// hence triangle inequality is violated.
func TestTheorem1PaperValues(t *testing.T) {
	t1 := line(0, 1)
	t2 := line(0, 1, 2)
	t3 := line(0, 1, 2, 3)

	if got := Distance(t1, t2); !almost(got, 1) {
		t.Errorf("EDwP(T1,T2) = %v, want 1", got)
	}
	if got := Distance(t2, t3); !almost(got, 1) {
		t.Errorf("EDwP(T2,T3) = %v, want 1", got)
	}
	if got := Distance(t1, t3); !almost(got, 4) {
		t.Errorf("EDwP(T1,T3) = %v, want 4", got)
	}
	if Distance(t1, t2)+Distance(t2, t3) >= Distance(t1, t3) {
		t.Error("triangle inequality unexpectedly holds on the paper's counterexample")
	}
}

// Example 1: matching [(0,0,0),(0,7,21)] with [(2,0,0),(2,7,14)] after the
// insert costs dist((0,0),(2,0)) + dist((0,7),(2,7)) = 4 before coverage.
// Here we verify the underlying rep cost via a direct two-segment distance:
// two parallel vertical segments at distance 2 with equal extent 7.
func TestParallelSegmentsRepCost(t *testing.T) {
	t1 := traj.New(0, []traj.Point{traj.P(0, 0, 0), traj.P(0, 7, 21)})
	t2 := traj.New(1, []traj.Point{traj.P(2, 0, 0), traj.P(2, 7, 14)})
	// Single REP: cost (2+2) × (7+7) = 56.
	if got := Distance(t1, t2); !almost(got, 56) {
		t.Errorf("Distance = %v, want 56", got)
	}
}

func TestIdentityZero(t *testing.T) {
	tr := traj.FromXY(0, 0, 0, 3, 4, 10, 4, 10, 9)
	if got := Distance(tr, tr); got != 0 {
		t.Errorf("EDwP(T,T) = %v, want 0", got)
	}
	if got := AvgDistance(tr, tr); got != 0 {
		t.Errorf("EDwPavg(T,T) = %v, want 0", got)
	}
}

// A denser re-sampling of the same polyline must be at distance zero: this
// is the inter-trajectory sampling-rate robustness the paper is built for
// (Fig. 1(a)) and the property EDR/LCSS fail.
func TestResampledShapeIsZero(t *testing.T) {
	orig := traj.New(0, []traj.Point{
		traj.P(0, 0, 0), traj.P(10, 0, 10), traj.P(10, 10, 20),
	})
	dense := traj.Resample(orig, 1.0)
	if dense.NumPoints() <= orig.NumPoints() {
		t.Fatal("resample did not densify")
	}
	if got := Distance(orig, dense); !almost(got, 0) {
		t.Errorf("EDwP(orig, dense) = %v, want 0", got)
	}
	if got := Distance(dense, orig); !almost(got, 0) {
		t.Errorf("EDwP(dense, orig) = %v, want 0", got)
	}
}

// Phase variation (Fig. 1(c)): same shape sampled at shifted positions must
// be at distance zero under EDwP.
func TestPhaseShiftIsZero(t *testing.T) {
	t1 := traj.New(0, []traj.Point{traj.P(0, 0, 0), traj.P(3, 0, 3), traj.P(10, 0, 10)})
	t2 := traj.New(1, []traj.Point{traj.P(0, 0, 0), traj.P(6, 0, 6), traj.P(10, 0, 10)})
	if got := Distance(t1, t2); !almost(got, 0) {
		t.Errorf("EDwP phase-shifted = %v, want 0", got)
	}
}

// Intra-trajectory variance (Fig. 1(b)): a pair that EDR scores as nearly
// identical because of four coincident dense samples must be scored as far
// apart by EDwP, because the diverging region carries most of the length.
func TestIntraVarianceDivergencePenalised(t *testing.T) {
	// Shared dense prefix, then long divergence.
	t1 := traj.New(0, []traj.Point{
		traj.P(0, 0, 0), traj.P(1, 0, 1), traj.P(2, 0, 2), traj.P(3, 0, 3),
		traj.P(3, 100, 103),
	})
	t2 := traj.New(1, []traj.Point{
		traj.P(0, 0, 0), traj.P(1, 0, 1), traj.P(2, 0, 2), traj.P(3, 0, 3),
		traj.P(103, 0, 103),
	})
	same := t1.Clone()
	if d, s := Distance(t1, t2), Distance(t1, same); d <= s {
		t.Errorf("diverging pair %v not greater than identical pair %v", d, s)
	}
	if got := Distance(t1, t2); got < 1000 {
		t.Errorf("diverging tails under-penalised: %v", got)
	}
}

func TestSymmetryRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 100; it++ {
		a := randomTraj(rng, 2+rng.Intn(8))
		b := randomTraj(rng, 2+rng.Intn(8))
		d1, d2 := Distance(a, b), Distance(b, a)
		if math.Abs(d1-d2) > 1e-6*(1+math.Max(d1, d2)) {
			t.Fatalf("asymmetric: %v vs %v\na=%v\nb=%v", d1, d2, a.Points, b.Points)
		}
	}
}

func TestNonNegativeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for it := 0; it < 200; it++ {
		a := randomTraj(rng, 2+rng.Intn(10))
		b := randomTraj(rng, 2+rng.Intn(10))
		if d := Distance(a, b); d < 0 || math.IsNaN(d) {
			t.Fatalf("invalid distance %v", d)
		}
	}
}

func TestEmptyCases(t *testing.T) {
	empty := traj.New(0, nil)
	single := traj.New(1, []traj.Point{traj.P(1, 1, 0)})
	full := traj.FromXY(2, 0, 0, 1, 1)
	if got := Distance(empty, empty); got != 0 {
		t.Errorf("EDwP(∅,∅) = %v, want 0", got)
	}
	if got := Distance(single, single); got != 0 {
		t.Errorf("EDwP(point,point) = %v, want 0 (both have no segments)", got)
	}
	if got := Distance(empty, full); !math.IsInf(got, 1) {
		t.Errorf("EDwP(∅,T) = %v, want +Inf", got)
	}
	if got := Distance(full, single); !math.IsInf(got, 1) {
		t.Errorf("EDwP(T,point) = %v, want +Inf", got)
	}
}

func TestAvgDistanceNormalisation(t *testing.T) {
	t1 := line(0, 1)
	t3 := line(0, 1, 2, 3)
	want := Distance(t1, t3) / (t1.Length() + t3.Length())
	if got := AvgDistance(t1, t3); !almost(got, want) {
		t.Errorf("AvgDistance = %v, want %v", got, want)
	}
}

// Scaling both trajectories by a factor scales cumulative EDwP by its
// square (distance × coverage are both lengths) and EDwPavg linearly.
func TestScaleHomogeneity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomTraj(rng, 6)
	b := randomTraj(rng, 5)
	const f = 3.5
	as, bs := scaleTraj(a, f), scaleTraj(b, f)
	d, ds := Distance(a, b), Distance(as, bs)
	if math.Abs(ds-f*f*d) > 1e-6*(1+ds) {
		t.Errorf("scaled distance %v, want %v", ds, f*f*d)
	}
	av, avs := AvgDistance(a, b), AvgDistance(as, bs)
	if math.Abs(avs-f*av) > 1e-9*(1+avs) {
		t.Errorf("scaled avg %v, want %v", avs, f*av)
	}
}

// Translation invariance: shifting both trajectories leaves EDwP unchanged.
func TestTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomTraj(rng, 7)
	b := randomTraj(rng, 4)
	shift := func(tr *traj.Trajectory) *traj.Trajectory {
		c := tr.Clone()
		for i := range c.Points {
			c.Points[i].X += 123
			c.Points[i].Y -= 456
		}
		return c
	}
	d1 := Distance(a, b)
	d2 := Distance(shift(a), shift(b))
	if math.Abs(d1-d2) > 1e-6*(1+d1) {
		t.Errorf("translation changed distance: %v vs %v", d1, d2)
	}
}

func TestSubDistanceFindsEmbeddedCopy(t *testing.T) {
	// t contains q's exact shape in its middle: EDwPsub(q, t) must be ~0.
	q := traj.FromXY(0, 5, 5, 8, 5, 8, 8)
	host := traj.FromXY(1, 0, 0, 5, 5, 8, 5, 8, 8, 20, 8)
	if got := SubDistance(q, host); !almost(got, 0) {
		t.Errorf("EDwPsub(q, host) = %v, want 0", got)
	}
	// Global distance is strictly positive (the affixes must be consumed).
	if got := Distance(q, host); got <= 0 {
		t.Errorf("EDwP(q, host) = %v, want > 0", got)
	}
}

func TestSubDistanceLEGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 100; it++ {
		q := randomTraj(rng, 2+rng.Intn(6))
		h := randomTraj(rng, 2+rng.Intn(8))
		sub, glob := SubDistance(q, h), Distance(q, h)
		if sub > glob+1e-9 {
			t.Fatalf("EDwPsub %v > EDwP %v", sub, glob)
		}
	}
}

// Lemma 2 / Corollary 1 operational check: EDwPsub(q, t) lower-bounds the
// global EDwP of q against every sub-trajectory of t.
func TestSubDistanceLowerBoundsAllSubTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for it := 0; it < 40; it++ {
		q := randomTraj(rng, 2+rng.Intn(4))
		h := randomTraj(rng, 4+rng.Intn(4))
		sub := SubDistance(q, h)
		n := h.NumPoints()
		for a := 0; a < n-1; a++ {
			for b := a + 1; b < n; b++ {
				d := Distance(q, traj.New(h.ID, h.Points[a:b+1]))
				if sub > d+1e-6*(1+d) {
					t.Fatalf("EDwPsub %v exceeds EDwP(q, T[%d..%d]) = %v", sub, a, b, d)
				}
			}
		}
	}
}

// The DP agrees with the exact-recursion oracle on the paper's examples and
// closely tracks it on random smooth inputs (the only divergence source is
// the full-segment canonical projection).
func TestDPMatchesExactOracle(t *testing.T) {
	cases := [][2]*traj.Trajectory{
		{line(0, 1), line(0, 1, 2)},
		{line(0, 1), line(0, 1, 2, 3)},
		{line(0, 1, 2), line(0, 1, 2, 3)},
	}
	for _, c := range cases {
		dp, ex := Distance(c[0], c[1]), ExactDistance(c[0], c[1])
		if !almost(dp, ex) {
			t.Errorf("DP %v != exact %v on paper case", dp, ex)
		}
	}
	rng := rand.New(rand.NewSource(14))
	var worst float64
	for it := 0; it < 60; it++ {
		a := randomSmoothTraj(rng, 3+rng.Intn(3))
		b := randomSmoothTraj(rng, 3+rng.Intn(3))
		dp, ex := Distance(a, b), ExactDistance(a, b)
		if ex == 0 {
			if dp > 1e-9 {
				t.Fatalf("oracle 0 but DP %v", dp)
			}
			continue
		}
		rel := math.Abs(dp-ex) / ex
		if rel > worst {
			worst = rel
		}
		if rel > 0.05 {
			t.Fatalf("DP %v vs exact %v (rel %.3f)\na=%v\nb=%v", dp, ex, rel, a.Points, b.Points)
		}
	}
	t.Logf("worst DP-vs-exact relative deviation: %.4f", worst)
}

func TestAlignScriptSumsToDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for it := 0; it < 80; it++ {
		a := randomTraj(rng, 2+rng.Intn(7))
		b := randomTraj(rng, 2+rng.Intn(7))
		d, edits := Align(a, b)
		if math.IsInf(d, 1) {
			t.Fatal("align infinite on valid inputs")
		}
		dd := Distance(a, b)
		if math.Abs(d-dd) > 1e-6*(1+dd) {
			t.Fatalf("Align distance %v != Distance %v", d, dd)
		}
		var sum float64
		for _, e := range edits {
			sum += e.Cost
		}
		if math.Abs(sum-d) > 1e-6*(1+d) {
			t.Fatalf("edit costs sum %v != distance %v (%d edits)", sum, d, len(edits))
		}
		if len(edits) == 0 && d != 0 {
			t.Fatal("non-zero distance with empty edit script")
		}
	}
}

func TestAlignPiecesAreContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomTraj(rng, 6)
	b := randomTraj(rng, 5)
	_, edits := Align(a, b)
	for k := 1; k < len(edits); k++ {
		prev, cur := edits[k-1], edits[k]
		if prev.APiece[1] != cur.APiece[0] && prev.APiece[1].Dist(cur.APiece[0]) > 1e-9 {
			t.Errorf("edit %d: A pieces not contiguous: %v -> %v", k, prev.APiece[1], cur.APiece[0])
		}
		if prev.BPiece[1] != cur.BPiece[0] && prev.BPiece[1].Dist(cur.BPiece[0]) > 1e-9 {
			t.Errorf("edit %d: B pieces not contiguous: %v -> %v", k, prev.BPiece[1], cur.BPiece[0])
		}
	}
	if len(edits) > 0 {
		first := edits[0]
		if first.APiece[0].XY() != a.Points[0].XY() {
			t.Errorf("first edit does not start at T1's origin: %v", first.APiece[0])
		}
		last := edits[len(edits)-1]
		if last.APiece[1].XY() != a.Points[len(a.Points)-1].XY() {
			t.Errorf("last edit does not end at T1's terminus: %v", last.APiece[1])
		}
	}
}

// EDwP is continuous in its inputs: perturbing one sample by δ changes the
// distance by an amount that vanishes with δ. Guards against accidental
// threshold cliffs sneaking into the DP.
func TestContinuityUnderPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 40; it++ {
		a := randomSmoothTraj(rng, 4+rng.Intn(5))
		b := randomSmoothTraj(rng, 4+rng.Intn(5))
		d0 := Distance(a, b)
		i := rng.Intn(len(b.Points))
		prev := math.Inf(1)
		for _, delta := range []float64{1, 0.1, 0.01} {
			c := b.Clone()
			c.Points[i].X += delta
			diff := math.Abs(Distance(a, c) - d0)
			// Shrinking the same perturbation must not grow the change.
			if diff > prev+1e-9 {
				t.Fatalf("distance change %v grew as δ fell to %v", diff, delta)
			}
			prev = diff + 1e-9
		}
	}
}

// Concatenating a shared suffix onto both trajectories must not increase
// the (cumulative) distance contribution of the differing prefix by more
// than the suffix's own alignment cost — sanity for monotone accumulation.
func TestSharedSuffixDoesNotExplode(t *testing.T) {
	a := traj.FromXY(0, 0, 0, 10, 0)
	b := traj.FromXY(1, 0, 2, 10, 2)
	base := Distance(a, b)
	aExt := traj.FromXY(0, 0, 0, 10, 0, 20, 0, 30, 0)
	bExt := traj.FromXY(1, 0, 2, 10, 2, 20, 0, 30, 0)
	ext := Distance(aExt, bExt)
	if ext < base {
		t.Logf("extension lowered distance (%v -> %v): allowed when it improves alignment", base, ext)
	}
	if ext > base+base+200 { // generous: suffix is shared, cost bounded
		t.Errorf("shared suffix exploded the distance: %v vs %v", ext, base)
	}
}

// SubDistance of a noisy embedded copy degrades gracefully with the noise.
func TestSubDistanceNoisyEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	host := randomSmoothTraj(rng, 12)
	q := traj.New(host.ID, append([]traj.Point(nil), host.Points[3:9]...))
	clean := SubDistance(q, host)
	if clean > 1e-9 {
		t.Fatalf("embedded copy not found: %v", clean)
	}
	prev := 0.0
	for _, noise := range []float64{0.1, 1, 5} {
		nq := q.Clone()
		for i := range nq.Points {
			nq.Points[i].X += rng.NormFloat64() * noise
			nq.Points[i].Y += rng.NormFloat64() * noise
		}
		d := SubDistance(nq, host)
		if d < prev-1e-9 && noise > 1 {
			t.Logf("noise %v gave %v < previous %v (possible but rare)", noise, d, prev)
		}
		prev = d
	}
	if prev <= 0 {
		t.Error("heavy noise left sub-distance at zero")
	}
}

// randomTraj builds a jagged random trajectory with n points in [0,100)².
func randomTraj(rng *rand.Rand, n int) *traj.Trajectory {
	pts := make([]traj.Point, n)
	for i := range pts {
		pts[i] = traj.P(rng.Float64()*100, rng.Float64()*100, float64(i)*10)
	}
	return traj.New(0, pts)
}

// randomSmoothTraj builds a random-walk trajectory with bounded step, which
// resembles real movement better than uniform jumps.
func randomSmoothTraj(rng *rand.Rand, n int) *traj.Trajectory {
	pts := make([]traj.Point, n)
	x, y := rng.Float64()*20, rng.Float64()*20
	for i := range pts {
		pts[i] = traj.P(x, y, float64(i)*10)
		x += rng.NormFloat64() * 3
		y += rng.NormFloat64() * 3
	}
	return traj.New(0, pts)
}

func scaleTraj(t *traj.Trajectory, f float64) *traj.Trajectory {
	c := t.Clone()
	for i := range c.Points {
		c.Points[i].X *= f
		c.Points[i].Y *= f
	}
	return c
}

// TestDistancesFiniteAtMaxCoord pins the claim behind traj.MaxCoord: two
// trajectories that zigzag between opposite corners of the accepted
// coordinate range still have finite whole, average and sub-trajectory
// distances.
func TestDistancesFiniteAtMaxCoord(t *testing.T) {
	zigzag := func(id int, s float64) *traj.Trajectory {
		pts := make([]traj.Point, 64)
		for i := range pts {
			pts[i] = traj.P(s*traj.MaxCoord, -s*traj.MaxCoord, float64(i))
			s = -s
		}
		return traj.New(id, pts)
	}
	a, b := zigzag(1, 1), zigzag(2, -1)
	for _, d := range []float64{Distance(a, b), AvgDistance(a, b), SubDistance(a, b)} {
		if math.IsInf(d, 0) || math.IsNaN(d) {
			t.Errorf("distance at ±MaxCoord = %v, want finite", d)
		}
	}
}
