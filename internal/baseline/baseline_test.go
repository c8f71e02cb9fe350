package baseline

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func randomTraj(rng *rand.Rand, n int) *traj.Trajectory {
	pts := make([]traj.Point, n)
	x, y := rng.Float64()*50, rng.Float64()*50
	for i := range pts {
		pts[i] = traj.P(x, y, float64(i)*10)
		x += rng.NormFloat64() * 4
		y += rng.NormFloat64() * 4
	}
	return traj.New(0, pts)
}

// Every metric must score a trajectory at distance 0 (or near-0) from
// itself and be symmetric.
func TestIdentityAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	metrics := append(All(2.0), Lockstep{}, Frechet{}, Hausdorff{})
	for _, m := range metrics {
		t.Run(m.Name(), func(t *testing.T) {
			for it := 0; it < 30; it++ {
				a := randomTraj(rng, 2+rng.Intn(10))
				b := randomTraj(rng, 2+rng.Intn(10))
				if d := m.Dist(a, a); d > 1e-9 {
					t.Fatalf("%s(T,T) = %v, want 0", m.Name(), d)
				}
				d1, d2 := m.Dist(a, b), m.Dist(b, a)
				if math.Abs(d1-d2) > 1e-6*(1+math.Abs(d1)) {
					t.Fatalf("%s asymmetric: %v vs %v", m.Name(), d1, d2)
				}
				if d1 < 0 || math.IsNaN(d1) {
					t.Fatalf("%s invalid distance %v", m.Name(), d1)
				}
			}
		})
	}
}

// Fig. 1(b): with ε = 2, four of five points identical and the fifth far
// apart gives EDR = 1, even though the trajectories diverge over most of
// their length — the intra-trajectory weakness EDwP fixes.
func TestEDRFig1bScenario(t *testing.T) {
	// Densely sampled shared region, then one far diverging sample.
	t1 := traj.New(0, []traj.Point{
		traj.P(0, 0, 0), traj.P(1, 0, 1), traj.P(2, 0, 2), traj.P(3, 0, 3),
		traj.P(3, 100, 103),
	})
	t2 := traj.New(1, []traj.Point{
		traj.P(0, 0, 0), traj.P(1, 0, 1), traj.P(2, 0, 2), traj.P(3, 0, 3),
		traj.P(103, 0, 103),
	})
	edr := EDR{Eps: 2}
	if got := edr.Dist(t1, t2); !almost(got, 1) {
		t.Errorf("EDR Fig1b = %v, want 1", got)
	}
}

// Fig. 1(c): phase-shifted uniform sampling of an overlapping contour. At
// ε = 2 no points match (EDR = 3, the maximum); at ε = 3 all match
// (EDR = 0) — the threshold cliff of Section II.4.
func TestEDRFig1cThresholdCliff(t *testing.T) {
	t1 := traj.New(0, []traj.Point{traj.P(0, 0, 0), traj.P(0, 50, 50), traj.P(0, 100, 100)})
	t2 := traj.New(1, []traj.Point{traj.P(0, 2.5, 0), traj.P(0, 52.5, 50), traj.P(0, 97.5, 100)})
	if got := (EDR{Eps: 2}).Dist(t1, t2); !almost(got, 3) {
		t.Errorf("EDR ε=2 = %v, want 3 (maximum)", got)
	}
	if got := (EDR{Eps: 3}).Dist(t1, t2); !almost(got, 0) {
		t.Errorf("EDR ε=3 = %v, want 0", got)
	}
}

// Example 3's ordering claim: EDwP must rank the Fig. 1(c) pair (same
// contour, shifted phase) as far more similar than the Fig. 1(b) pair
// (mostly diverging), the opposite of what EDR concludes at ε = 2.
func TestEDwPOrdersFig1bAgainstFig1c(t *testing.T) {
	b1 := traj.New(0, []traj.Point{
		traj.P(0, 0, 0), traj.P(1, 0, 1), traj.P(2, 0, 2), traj.P(3, 0, 3),
		traj.P(3, 100, 103),
	})
	b2 := traj.New(1, []traj.Point{
		traj.P(0, 0, 0), traj.P(1, 0, 1), traj.P(2, 0, 2), traj.P(3, 0, 3),
		traj.P(103, 0, 103),
	})
	c1 := traj.New(2, []traj.Point{traj.P(0, 0, 0), traj.P(0, 50, 50), traj.P(0, 100, 100)})
	c2 := traj.New(3, []traj.Point{traj.P(0, 2.5, 0), traj.P(0, 52.5, 50), traj.P(0, 97.5, 100)})

	divergent := core.Distance(b1, b2)
	phased := core.Distance(c1, c2)
	if phased >= divergent {
		t.Errorf("EDwP: phase pair %v not less than divergent pair %v", phased, divergent)
	}
	// EDR at ε=2 claims the opposite ordering.
	edr := EDR{Eps: 2}
	if edr.Dist(b1, b2) >= edr.Dist(c1, c2) {
		t.Error("test scenario broken: EDR should misorder these pairs")
	}
}

func TestEDRIntegerAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	edr := EDR{Eps: 3}
	for it := 0; it < 50; it++ {
		a := randomTraj(rng, 2+rng.Intn(10))
		b := randomTraj(rng, 2+rng.Intn(10))
		d := edr.Dist(a, b)
		if d != math.Trunc(d) {
			t.Fatalf("EDR not integral: %v", d)
		}
		n, m := float64(a.NumPoints()), float64(b.NumPoints())
		if d > math.Max(n, m)+1e-9 || d < math.Abs(n-m)-1e-9 {
			t.Fatalf("EDR %v outside [%v, %v]", d, math.Abs(n-m), math.Max(n, m))
		}
	}
}

// TestEDREarlyAbandonConsistent checks the bounded EDR program against
// the unbounded one on 400 random pairs of 0–40 points, empty sides
// included, at every integer bound from -1 (disabled) up to the
// distance: the value is Dist's when the bound is -1 or at least the
// distance, and exceeds the bound otherwise — Dist's own value unless
// the program was abandoned.
func TestEDREarlyAbandonConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	edr := EDR{Eps: 3}
	for it := 0; it < 400; it++ {
		a, b := randomTraj(rng, rng.Intn(41)), randomTraj(rng, rng.Intn(41))
		full := edr.Dist(a, b)
		for bound := -1; bound <= int(full); bound++ {
			got, abandoned := edr.DistEarlyAbandonCancel(a, b, bound, nil)
			switch {
			case bound < 0 || float64(bound) >= full:
				if got != full || abandoned {
					t.Fatalf("pair %d (%d×%d points), bound %d: %v (abandoned %v), Dist %v", it, a.NumPoints(), b.NumPoints(), bound, got, abandoned, full)
				}
			case got <= float64(bound) || !abandoned && got != full:
				t.Fatalf("pair %d (%d×%d points), bound %d: %v (abandoned %v) does not certify the bound, Dist %v", it, a.NumPoints(), b.NumPoints(), bound, got, abandoned, full)
			}
		}
	}
}

func TestLCSSRange(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	l := LCSS{Eps: 3}
	for it := 0; it < 50; it++ {
		a := randomTraj(rng, 2+rng.Intn(10))
		b := randomTraj(rng, 2+rng.Intn(10))
		d := l.Dist(a, b)
		if d < -1e-9 || d > 1+1e-9 {
			t.Fatalf("LCSS distance %v outside [0,1]", d)
		}
	}
	// Identical sequences: distance 0. Disjoint: 1.
	a := traj.FromXY(0, 0, 0, 1, 0, 2, 0)
	far := traj.FromXY(1, 100, 100, 101, 100, 102, 100)
	if got := l.Dist(a, a); got != 0 {
		t.Errorf("LCSS self = %v", got)
	}
	if got := l.Dist(a, far); got != 1 {
		t.Errorf("LCSS disjoint = %v, want 1", got)
	}
}

// ERP is a metric: verify the triangle inequality on random triples (the
// property the paper cites as ERP's distinguishing feature).
func TestERPTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	e := ERP{}
	for it := 0; it < 100; it++ {
		a := randomTraj(rng, 2+rng.Intn(6))
		b := randomTraj(rng, 2+rng.Intn(6))
		c := randomTraj(rng, 2+rng.Intn(6))
		ab, bc, ac := e.Dist(a, b), e.Dist(b, c), e.Dist(a, c)
		if ac > ab+bc+1e-6 {
			t.Fatalf("ERP triangle violated: %v > %v + %v", ac, ab, bc)
		}
	}
}

// EDwP is non-metric (Theorem 1) — the Appendix-A counterexample.
func TestEDwPNotAMetricButERPIs(t *testing.T) {
	t1 := traj.FromXY(0, 0, 0, 0, 1)
	t2 := traj.FromXY(1, 0, 0, 0, 1, 0, 2)
	t3 := traj.FromXY(2, 0, 0, 0, 1, 0, 2, 0, 3)
	edwp := EDwP{Cumulative: true}
	if edwp.Dist(t1, t2)+edwp.Dist(t2, t3) >= edwp.Dist(t1, t3) {
		t.Error("EDwP triangle unexpectedly holds on Appendix A example")
	}
	e := ERP{}
	if e.Dist(t1, t3) > e.Dist(t1, t2)+e.Dist(t2, t3)+1e-9 {
		t.Error("ERP triangle violated on Appendix A example")
	}
}

func TestDTWHandlesLocalTimeShift(t *testing.T) {
	// Same contour, speed differs between halves: DTW absorbs it via
	// many-to-one mapping, lock-step L2 cannot.
	t1 := traj.New(0, []traj.Point{
		traj.P(0, 0, 0), traj.P(1, 0, 1), traj.P(2, 0, 2), traj.P(3, 0, 3),
		traj.P(6, 0, 4), traj.P(9, 0, 5),
	})
	t2 := traj.New(1, []traj.Point{
		traj.P(0, 0, 0), traj.P(3, 0, 1), traj.P(6, 0, 2), traj.P(7, 0, 3),
		traj.P(8, 0, 4), traj.P(9, 0, 5),
	})
	dtw := DTW{}.Dist(t1, t2)
	l2 := Lockstep{}.Dist(t1, t2)
	if dtw >= l2 {
		t.Errorf("DTW %v not better than lock-step %v under time shift", dtw, l2)
	}
}

func TestLockstepInfiniteOnLengthMismatch(t *testing.T) {
	a := traj.FromXY(0, 0, 0, 1, 0)
	b := traj.FromXY(1, 0, 0, 1, 0, 2, 0)
	if got := (Lockstep{}).Dist(a, b); !math.IsInf(got, 1) {
		t.Errorf("lock-step over different lengths = %v, want +Inf", got)
	}
}

// DISSIM is tied to absolute time: an identical path traversed at a
// different speed scores poorly (Table I's local-time-shift column).
func TestDISSIMSpeedSensitivity(t *testing.T) {
	path := traj.New(0, []traj.Point{traj.P(0, 0, 0), traj.P(100, 0, 100)})
	slowFirst := traj.New(1, []traj.Point{traj.P(0, 0, 0), traj.P(20, 0, 80), traj.P(100, 0, 100)})
	same := path.Clone()
	d := DISSIM{}
	if got := d.Dist(path, same); got != 0 {
		t.Errorf("DISSIM self = %v", got)
	}
	if got := d.Dist(path, slowFirst); got <= 0 {
		t.Errorf("DISSIM ignored a speed change: %v", got)
	}
	// EDwP is speed-insensitive on the same contour.
	if got := core.Distance(path, slowFirst); !almost(got, 0) {
		t.Errorf("EDwP penalised a pure speed change: %v", got)
	}
}

func TestDISSIMTrapezoidValue(t *testing.T) {
	// Parallel lines distance 3 apart over [0,10]: integral = 30.
	a := traj.New(0, []traj.Point{traj.P(0, 0, 0), traj.P(10, 0, 10)})
	b := traj.New(1, []traj.Point{traj.P(0, 3, 0), traj.P(10, 3, 10)})
	if got := (DISSIM{}).Dist(a, b); !almost(got, 30) {
		t.Errorf("DISSIM = %v, want 30", got)
	}
}

// Fig. 1(d): MA cannot distinguish order-scrambled points that project onto
// the same places, while EDwP can.
func TestMAOrderBlindnessVsEDwP(t *testing.T) {
	host := traj.New(0, []traj.Point{traj.P(0, 0, 0), traj.P(10, 0, 10)})
	ordered := traj.New(1, []traj.Point{traj.P(2, 1, 0), traj.P(5, 1, 5), traj.P(8, 1, 10)})
	scrambled := traj.New(2, []traj.Point{traj.P(2, 1, 0), traj.P(8, 1, 5), traj.P(5, 1, 10)})

	ma := DefaultMA(2)
	dOrd, dScr := ma.Dist(ordered, host), ma.Dist(scrambled, host)
	if math.Abs(dOrd-dScr) > 1e-9 {
		t.Errorf("MA distinguishes order: %v vs %v (expected blindness per Fig. 1(d))", dOrd, dScr)
	}
	eOrd, eScr := core.Distance(ordered, host), core.Distance(scrambled, host)
	if eOrd >= eScr {
		t.Errorf("EDwP failed to prefer the ordered variant: %v vs %v", eOrd, eScr)
	}
}

// Discrete Fréchet ≤ DTW (a max is at most a sum over any coupling) and
// Hausdorff ≤ discrete Fréchet.
func TestFrechetDTWHausdorffOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for it := 0; it < 60; it++ {
		a := randomTraj(rng, 2+rng.Intn(8))
		b := randomTraj(rng, 2+rng.Intn(8))
		fr := Frechet{}.Dist(a, b)
		dtw := DTW{}.Dist(a, b)
		hd := Hausdorff{}.Dist(a, b)
		if fr > dtw+1e-9 {
			t.Fatalf("Fréchet %v > DTW %v", fr, dtw)
		}
		if hd > fr+1e-9 {
			t.Fatalf("Hausdorff %v > Fréchet %v", hd, fr)
		}
	}
}

func TestAllSuite(t *testing.T) {
	ms := All(2.5)
	if len(ms) != 7 {
		t.Fatalf("All returned %d metrics", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		if names[m.Name()] {
			t.Errorf("duplicate metric %s", m.Name())
		}
		names[m.Name()] = true
	}
	for _, want := range []string{"EDwP", "DTW", "LCSS", "ERP", "EDR", "DISSIM", "MA"} {
		if !names[want] {
			t.Errorf("suite missing %s", want)
		}
	}
}
