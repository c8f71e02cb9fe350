package eval

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/baseline"
	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistUsesSegments(t *testing.T) {
	// VP above the middle of a segment: the closest point is non-sampled.
	tr := traj.FromXY(0, 0, 0, 10, 0)
	if got := vpDist(tr, geom.Pt(5, 3)); !almost(got, 3) {
		t.Errorf("vpDist = %v, want 3 (projection onto interior)", got)
	}
	if got := vpDist(tr, geom.Pt(-4, 0)); !almost(got, 4) {
		t.Errorf("vpDist = %v, want 4 (clamped to endpoint)", got)
	}
	if got := vpDist(tr, geom.Pt(5, 0)); !almost(got, 0) {
		t.Errorf("vpDist on the line = %v, want 0", got)
	}
}

func TestDescriptor(t *testing.T) {
	tr := traj.FromXY(0, 0, 0, 10, 0)
	vps := []geom.Point{geom.Pt(5, 3), geom.Pt(0, 0), geom.Pt(20, 0)}
	d := appendDescriptor(nil, tr, vps)
	want := []float64{3, 0, 10}
	for i := range want {
		if !almost(d[i], want[i]) {
			t.Errorf("descriptor[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestVDProperties(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := vd(a, a); got != 0 {
		t.Errorf("vd(a,a) = %v, want 0", got)
	}
	b := []float64{2, 4, 6}
	if got, want := vd(a, b), 0.5; !almost(got, want) {
		t.Errorf("vd = %v, want %v", got, want)
	}
	if vd(a, b) != vd(b, a) {
		t.Error("vd asymmetric")
	}
	// Zero handling: both zero contributes 0; zero vs non-zero contributes 1.
	if got := vd([]float64{0}, []float64{0}); got != 0 {
		t.Errorf("vd(0,0) = %v, want 0", got)
	}
	if got := vd([]float64{0}, []float64{5}); got != 1 {
		t.Errorf("vd(0,5) = %v, want 1", got)
	}
	// Range is [0, 1].
	rng := rand.New(rand.NewSource(51))
	for it := 0; it < 200; it++ {
		x := make([]float64, 4)
		y := make([]float64, 4)
		for i := range x {
			x[i] = rng.Float64() * 100
			y[i] = rng.Float64() * 100
		}
		v := vd(x, y)
		if v < 0 || v > 1 {
			t.Fatalf("vd out of range: %v", v)
		}
	}
	if got := vd(a, []float64{1}); !math.IsInf(got, 1) {
		t.Errorf("vd with mismatched dims = %v, want +Inf", got)
	}
}

func TestSelectDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// Two clusters far apart: selecting 2 VPs must pick one from each.
	t1 := traj.FromXY(0, 0, 0, 1, 0, 2, 0)
	t2 := traj.FromXY(1, 1000, 1000, 1001, 1000, 1002, 1000)
	vps := selectVPs([]*traj.Trajectory{t1, t2}, 2, rng)
	if len(vps) != 2 {
		t.Fatalf("got %d VPs, want 2", len(vps))
	}
	if vps[0].Dist(vps[1]) < 500 {
		t.Errorf("VPs %v not diverse", vps)
	}
}

func TestSelectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tr := traj.FromXY(0, 0, 0, 1, 0)
	vps := selectVPs([]*traj.Trajectory{tr}, 10, rng)
	if len(vps) > 2 {
		t.Errorf("more VPs than candidate points: %d", len(vps))
	}
	if got := selectVPs(nil, 5, rng); got != nil {
		t.Errorf("selectVPs(nil) = %v", got)
	}
	if got := selectVPs([]*traj.Trajectory{tr}, 0, rng); got != nil {
		t.Errorf("selectVPs with n=0 = %v", got)
	}
}

// VD correlates with spatial separation: trajectories translated farther
// from a base must receive larger VD against it (a sanity check on the
// Lipschitz embedding intuition of Section IV-E).
func TestVDCorrelatesWithSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	base := traj.FromXY(0, 0, 0, 10, 0, 20, 5)
	vps := selectVPs([]*traj.Trajectory{base}, 8, rng)
	// Add far-away context VPs so ratios are informative.
	vps = append(vps, geom.Pt(200, 200), geom.Pt(-200, 100))
	bd := appendDescriptor(nil, base, vps)
	prev := -1.0
	for _, off := range []float64{1, 5, 25, 125} {
		shifted := base.Clone()
		for i := range shifted.Points {
			shifted.Points[i].Y += off
		}
		v := vd(bd, appendDescriptor(nil, shifted, vps))
		if v < prev {
			t.Fatalf("vd not monotone in separation: %v after %v (offset %v)", v, prev, off)
		}
		prev = v
	}
}

// hubDB builds random-walk trajectories clustered around a few hubs,
// loosely shaped like city trips.
func hubDB(rng *rand.Rand, n int) []*traj.Trajectory {
	hubs := [][2]float64{{0, 0}, {100, 0}, {50, 90}, {120, 120}}
	db := make([]*traj.Trajectory, n)
	for i := range db {
		h := hubs[rng.Intn(len(hubs))]
		pts := make([]traj.Point, 4+rng.Intn(16))
		x, y := h[0]+rng.NormFloat64()*5, h[1]+rng.NormFloat64()*5
		for j := range pts {
			pts[j] = traj.P(x, y, float64(j)*30)
			x += rng.NormFloat64() * 3
			y += rng.NormFloat64() * 3
		}
		db[i] = traj.New(i, pts)
	}
	return db
}

// TestVPUpperBoundIsUpperBound pins Eq. 14: the exact distances of the k
// rows closest by VD bound the true k-th nearest distance from above.
func TestVPUpperBoundIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	db := hubDB(rng, 120)
	tab := newVPTable(db, 12, rand.New(rand.NewSource(1)))
	m := baseline.EDwP{}
	for it := 0; it < 10; it++ {
		q := hubDB(rng, 1)[0]
		q.ID = 9999
		const k = 5
		ub := tab.upperBound(db, m, q, k)
		if kth := KthNNDistance(db, m, q, k); ub < kth-1e-9 {
			t.Fatalf("VP upper bound %v below true k-th distance %v", ub, kth)
		}
	}
}

// rowMetric is a Metric whose distance from any query to a database row
// is the row's entry, so a test can tell which rows a bound evaluated.
type rowMetric map[*traj.Trajectory]float64

func (rowMetric) Name() string                         { return "row" }
func (m rowMetric) Dist(_, b *traj.Trajectory) float64 { return m[b] }

// TestVPTableRanksByVD pins which rows the upper bound evaluates: the k
// with the smallest VD to the query, equal VDs taken in row order, and
// every row once k reaches the row count.
func TestVPTableRanksByVD(t *testing.T) {
	// One VP at the origin; the query passes it at distance 1.
	q := traj.FromXY(9999, 1, 0, 1, 5)
	db := make([]*traj.Trajectory, 4)
	for i := range db {
		db[i] = traj.FromXY(i, 0, 0, 1, 1)
	}
	tab := vpTable{
		vps: []geom.Point{geom.Pt(0, 0)},
		// VDs to the query's [1]: 0, 0.5, 0.9, 0 — rank order 0, 3, 1, 2.
		descs: [][]float64{{1}, {2}, {10}, {1}},
	}
	m := rowMetric{db[0]: 5, db[1]: 7, db[2]: 1, db[3]: 6}
	for _, c := range []struct {
		k    int
		want float64
	}{{0, 0}, {1, 5}, {2, 6}, {3, 7}, {4, 7}, {10, 7}} {
		if got := tab.upperBound(db, m, q, c.k); got != c.want {
			t.Errorf("k=%d: upper bound %v, want %v", c.k, got, c.want)
		}
	}
}
