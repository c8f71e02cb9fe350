package sketch

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"trajmatch/internal/traj"
)

// streamWalkTraj builds a meandering track whose segments vary from
// sub-cell jitter to multi-cell hops, so prefixes exercise the
// duplicate collapse and the interior walk.
func streamWalkTraj(rng *rand.Rand, n int) []traj.Point {
	pts := make([]traj.Point, n)
	x, y := rng.Float64()*1000, rng.Float64()*1000
	for i := range pts {
		step := math.Exp(rng.Float64()*6 - 2) // ~0.14 .. ~55 units
		ang := rng.Float64() * 2 * math.Pi
		x += step * math.Cos(ang)
		y += step * math.Sin(ang)
		pts[i] = traj.Point{X: x, Y: y, T: float64(i)}
	}
	return pts
}

// TestStreamMatchesIndexAtEveryPrefix is the core incremental-sketch
// property: a Stream extended in arbitrary chunks reports, at every
// prefix, exactly the token set Index computes from scratch over the
// same points. Covers chunk sizes from single points to bursts.
func TestStreamMatchesIndexAtEveryPrefix(t *testing.T) {
	for _, chunk := range []int{1, 3, 7} {
		rng := rand.New(rand.NewSource(int64(200 + chunk)))
		p := Params{CellSize: 10}
		ix := mustIndex(t, p)
		s, err := NewStream(p)
		if err != nil {
			t.Fatal(err)
		}
		pts := streamWalkTraj(rng, 60)
		var seen []uint64
		for off := 0; off < len(pts); off += chunk {
			end := min(off+chunk, len(pts))
			seen = append(seen, s.Extend(pts[off:end])...)

			prefix := &traj.Trajectory{ID: 1, Points: pts[:end]}
			wantSet := dedupe(ix.tokens(prefix))
			gotSet := append([]uint64(nil), seen...)
			sort.Slice(gotSet, func(a, b int) bool { return gotSet[a] < gotSet[b] })
			if !reflect.DeepEqual(gotSet, wantSet) {
				t.Fatalf("chunk=%d prefix=%d: token set diverged (%d vs %d tokens)", chunk, end, len(gotSet), len(wantSet))
			}
			for _, tok := range wantSet {
				if !s.HasToken(tok) {
					t.Fatalf("chunk=%d prefix=%d: HasToken(%#x) = false", chunk, end, tok)
				}
			}
		}
	}
}

// TestStreamNonFinitePoints: non-finite points must neither emit tokens
// nor break chunked/whole equivalence (they suppress the interior walk
// of adjacent segments exactly as Index's tokenizer does).
func TestStreamNonFinitePoints(t *testing.T) {
	p := Params{CellSize: 10}
	ix := mustIndex(t, p)
	pts := []traj.Point{
		{X: 0, Y: 0, T: 0},
		{X: 35, Y: 5, T: 1},
		{X: math.NaN(), Y: 10, T: 2},
		{X: 70, Y: 40, T: 3},
		{X: math.Inf(1), Y: math.Inf(1), T: 4},
		{X: 90, Y: 90, T: 5},
	}
	s, err := NewStream(p)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for i := range pts {
		got = append(got, s.Extend(pts[i:i+1])...)
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	whole := &traj.Trajectory{ID: 1, Points: pts}
	if want := dedupe(ix.tokens(whole)); !reflect.DeepEqual(got, want) {
		t.Fatalf("token set diverged on non-finite input: %d vs %d tokens", len(got), len(want))
	}
}

// TestPatternTokens: the registry-side fingerprint equals the distinct
// token set of the index tokenizer.
func TestPatternTokens(t *testing.T) {
	p := Params{CellSize: 10}
	ix := mustIndex(t, p)
	rng := rand.New(rand.NewSource(9))
	tr := &traj.Trajectory{ID: 3, Points: streamWalkTraj(rng, 40)}
	got, err := PatternTokens(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	if want := dedupe(ix.tokens(tr)); !reflect.DeepEqual(got, want) {
		t.Fatalf("pattern tokens diverged: %d vs %d", len(got), len(want))
	}
	if _, err := PatternTokens(Params{CellSize: -1}, tr); err == nil {
		t.Fatal("invalid params accepted")
	}
}
