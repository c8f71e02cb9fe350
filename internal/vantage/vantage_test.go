package vantage

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistUsesSegments(t *testing.T) {
	// VP above the middle of a segment: the closest point is non-sampled.
	tr := traj.FromXY(0, 0, 0, 10, 0)
	if got := Dist(tr, geom.Pt(5, 3)); !almost(got, 3) {
		t.Errorf("Dist = %v, want 3 (projection onto interior)", got)
	}
	if got := Dist(tr, geom.Pt(-4, 0)); !almost(got, 4) {
		t.Errorf("Dist = %v, want 4 (clamped to endpoint)", got)
	}
	if got := Dist(tr, geom.Pt(5, 0)); !almost(got, 0) {
		t.Errorf("Dist on the line = %v, want 0", got)
	}
}

func TestDescriptor(t *testing.T) {
	tr := traj.FromXY(0, 0, 0, 10, 0)
	vps := []geom.Point{geom.Pt(5, 3), geom.Pt(0, 0), geom.Pt(20, 0)}
	d := AppendDescriptor(nil, tr, vps)
	want := []float64{3, 0, 10}
	for i := range want {
		if !almost(d[i], want[i]) {
			t.Errorf("descriptor[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestVDProperties(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := VD(a, a); got != 0 {
		t.Errorf("VD(a,a) = %v, want 0", got)
	}
	b := []float64{2, 4, 6}
	if got, want := VD(a, b), 0.5; !almost(got, want) {
		t.Errorf("VD = %v, want %v", got, want)
	}
	if VD(a, b) != VD(b, a) {
		t.Error("VD asymmetric")
	}
	// Zero handling: both zero contributes 0; zero vs non-zero contributes 1.
	if got := VD([]float64{0}, []float64{0}); got != 0 {
		t.Errorf("VD(0,0) = %v, want 0", got)
	}
	if got := VD([]float64{0}, []float64{5}); got != 1 {
		t.Errorf("VD(0,5) = %v, want 1", got)
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
		v := VD(x, y)
		if v < 0 || v > 1 {
			t.Fatalf("VD out of range: %v", v)
		}
	}
	if got := VD(a, []float64{1}); !math.IsInf(got, 1) {
		t.Errorf("VD with mismatched dims = %v, want +Inf", got)
	}
}

func TestSelectDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// Two clusters far apart: selecting 2 VPs must pick one from each.
	t1 := traj.FromXY(0, 0, 0, 1, 0, 2, 0)
	t2 := traj.FromXY(1, 1000, 1000, 1001, 1000, 1002, 1000)
	vps := Select([]*traj.Trajectory{t1, t2}, 2, rng)
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
	vps := Select([]*traj.Trajectory{tr}, 10, rng)
	if len(vps) > 2 {
		t.Errorf("more VPs than candidate points: %d", len(vps))
	}
	if got := Select(nil, 5, rng); got != nil {
		t.Errorf("Select(nil) = %v", got)
	}
	if got := Select([]*traj.Trajectory{tr}, 0, rng); got != nil {
		t.Errorf("Select with n=0 = %v", got)
	}
}

// sortTopK is the sort-based TopK this package shipped before the
// selection rewrite, kept verbatim (down to its own copy of VD) as the
// oracle the selection must agree with row for row.
func sortTopK(q []float64, descs [][]float64, k int, skip func(i int) bool) []int {
	vd := func(a, b []float64) float64 {
		if len(a) != len(b) || len(a) == 0 {
			return math.Inf(1)
		}
		var sum float64
		for i := range a {
			lo, hi := a[i], b[i]
			if lo > hi {
				lo, hi = hi, lo
			}
			switch {
			case hi == 0:
				// both zero: identical view from this VP
			case math.IsInf(hi, 1):
				sum++
			default:
				sum += 1 - lo/hi
			}
		}
		return sum / float64(len(a))
	}
	type scored struct {
		i int
		d float64
	}
	var all []scored
	for i, d := range descs {
		if skip != nil && skip(i) {
			continue
		}
		all = append(all, scored{i, vd(q, d)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].i < all[b].i
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].i
	}
	return out
}

func flatten(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func TestTopK(t *testing.T) {
	q := []float64{1, 1}
	descs := flatten([][]float64{
		{1, 1},   // VD 0
		{2, 2},   // VD 0.5
		{10, 10}, // VD 0.9
		{1, 2},   // VD 0.25
	})
	var s Scratch
	got := s.TopK(q, descs, 2, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("TopK = %v, want [0 3]", got)
	}
	// Skip filter removes the best.
	got = s.TopK(q, descs, 2, func(i int) bool { return i == 0 })
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("TopK with skip = %v, want [3 1]", got)
	}
	// k larger than available.
	got = s.TopK(q, descs, 10, nil)
	if len(got) != 4 {
		t.Errorf("TopK overflow = %v", got)
	}
}

// TestTopKMatchesSort is the selection's oracle test: on random
// descriptor tables — drawn from a few discrete values so that exact VD
// ties, all-zero dimensions and +Inf dimensions are common — with random
// skip sets and every k from 0 past the row count, the selection returns
// exactly the rows the full sort by (VD, index) returns, in its order,
// and asks skip about no row twice.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	values := []float64{0, 0, 1, 1, 2, 3, 7.5, 1e-300, 1e300, math.Inf(1)}
	draw := func(dims int, continuous bool) []float64 {
		d := make([]float64, dims)
		for i := range d {
			if continuous {
				d[i] = rng.Float64() * 100
			} else {
				d[i] = values[rng.Intn(len(values))]
			}
		}
		return d
	}
	var s Scratch
	for it := 0; it < 600; it++ {
		dims := 1 + rng.Intn(12)
		n := rng.Intn(60)
		continuous := it%3 == 0
		q := draw(dims, continuous)
		rows := make([][]float64, n)
		for i := range rows {
			switch {
			case i > 0 && rng.Intn(4) == 0:
				rows[i] = rows[rng.Intn(i)] // exact duplicate: a VD tie
			default:
				rows[i] = draw(dims, continuous)
			}
		}
		if it%7 == 0 {
			// A dimension every row (and the query) sees as zero, and one
			// every row sees as unreachable.
			z, inf := rng.Intn(dims), rng.Intn(dims)
			q[z] = 0
			for i := range rows {
				r := append([]float64(nil), rows[i]...)
				r[z] = 0
				r[inf] = math.Inf(1)
				rows[i] = r
			}
		}
		var skip func(i int) bool
		skipped := map[int]bool{}
		if it%2 == 1 {
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					skipped[i] = true
				}
			}
			skip = func(i int) bool { return skipped[i] }
		}
		flat := flatten(rows)
		for _, k := range []int{0, 1, 2, 5, n - 1, n, n + 3} {
			if k < 0 {
				continue
			}
			want := sortTopK(q, rows, k, skip)
			asked := map[int]int{}
			counting := skip
			if skip != nil {
				counting = func(i int) bool { asked[i]++; return skip(i) }
			}
			got := s.TopK(q, flat, k, counting)
			if len(got) != len(want) {
				t.Fatalf("it %d k %d: got %v, want %v", it, k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("it %d k %d: got %v, want %v", it, k, got, want)
				}
			}
			for i, c := range asked {
				if c > 1 {
					t.Fatalf("it %d k %d: skip(%d) asked %d times", it, k, i, c)
				}
			}
		}
	}
}

// TestTopKZeroAllocs pins the pooled-scratch contract: a warm selection
// allocates nothing.
func TestTopKZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	q := make([]float64, 16)
	descs := make([]float64, 16*500)
	for i := range q {
		q[i] = rng.Float64()
	}
	for i := range descs {
		descs[i] = rng.Float64()
	}
	var s Scratch
	s.TopK(q, descs, 10, nil)
	if n := testing.AllocsPerRun(20, func() { s.TopK(q, descs, 10, nil) }); n != 0 {
		t.Errorf("warm TopK allocates %v per run, want 0", n)
	}
}

// VD correlates with spatial separation: trajectories translated farther
// from a base must receive larger VD against it (a sanity check on the
// Lipschitz embedding intuition of Section IV-E).
func TestVDCorrelatesWithSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	base := traj.FromXY(0, 0, 0, 10, 0, 20, 5)
	vps := Select([]*traj.Trajectory{base}, 8, rng)
	// Add far-away context VPs so ratios are informative.
	vps = append(vps, geom.Pt(200, 200), geom.Pt(-200, 100))
	bd := AppendDescriptor(nil, base, vps)
	prev := -1.0
	for _, off := range []float64{1, 5, 25, 125} {
		shifted := base.Clone()
		for i := range shifted.Points {
			shifted.Points[i].Y += off
		}
		v := VD(bd, AppendDescriptor(nil, shifted, vps))
		if v < prev {
			t.Fatalf("VD not monotone in separation: %v after %v (offset %v)", v, prev, off)
		}
		prev = v
	}
}
