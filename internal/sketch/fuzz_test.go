package sketch

import (
	"math"
	"reflect"
	"testing"

	"trajmatch/internal/traj"
)

// fuzzTraj decodes an arbitrary byte-derived point list into a
// trajectory. The fuzz targets exercise tokenization and the index's
// mutation and query paths on whatever geometry the fuzzer invents —
// including the degenerate shapes the seed corpus pins: empty,
// single-point, duplicate-point and antimeridian-scale coordinate jumps.
func fuzzTraj(xs, ys []float64) *traj.Trajectory {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	pts := make([]traj.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = traj.P(xs[i], ys[i], float64(i))
	}
	return traj.New(1, pts)
}

func fuzzIndex(tb testing.TB) *Index {
	tb.Helper()
	ix, err := NewIndex(Params{CellSize: 100})
	if err != nil {
		tb.Fatalf("NewIndex: %v", err)
	}
	return ix
}

// seedGeometries is the committed seed corpus shared by both fuzz
// targets: the degenerate and adversarial shapes the satellite task
// names.
var seedGeometries = []struct {
	name   string
	xs, ys []float64
}{
	{"empty", nil, nil},
	{"single-point", []float64{3}, []float64{4}},
	{"duplicate-points", []float64{7, 7, 7, 7}, []float64{9, 9, 9, 9}},
	{"short-hop", []float64{0, 10}, []float64{0, 0}},
	{"antimeridian-jump", []float64{-1.9e7, 1.9e7, -1.9e7}, []float64{0, 5, -5}},
	{"huge-coords", []float64{math.MaxFloat64, -math.MaxFloat64}, []float64{math.MaxFloat64, -math.MaxFloat64}},
	{"nan-inf", []float64{math.NaN(), math.Inf(1), 0}, []float64{math.Inf(-1), math.NaN(), 0}},
	{"long-segment", []float64{0, 1e9}, []float64{0, 1e9}},
}

func seedBytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(bits >> (8 * b))
		}
	}
	return out
}

func decodeFloats(raw []byte) []float64 {
	out := make([]float64, 0, len(raw)/8)
	for i := 0; i+8 <= len(raw); i += 8 {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits |= uint64(raw[i+b]) << (8 * b)
		}
		out = append(out, math.Float64frombits(bits))
	}
	return out
}

// FuzzTokens asserts tokenization is total (no panics, bounded output)
// and deterministic for equal geometry under any input.
func FuzzTokens(f *testing.F) {
	for _, s := range seedGeometries {
		f.Add(seedBytes(s.xs), seedBytes(s.ys))
	}
	ix := fuzzIndex(f)
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		tr := fuzzTraj(decodeFloats(xb), decodeFloats(yb))
		toks := ix.tokens(tr)
		if len(toks) > (maxWalkSteps+1)*len(tr.Points) {
			t.Fatalf("tokenization unbounded: %d tokens for %d points", len(toks), len(tr.Points))
		}
		again := ix.tokens(tr.Clone())
		if !reflect.DeepEqual(toks, again) {
			t.Fatal("tokens differ for equal geometry")
		}
	})
}

// FuzzCandidates asserts the index survives Insert/Candidates/Delete
// round-trips on arbitrary input.
func FuzzCandidates(f *testing.F) {
	for _, s := range seedGeometries {
		f.Add(seedBytes(s.xs), seedBytes(s.ys))
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		ix := fuzzIndex(t)
		tr := fuzzTraj(decodeFloats(xb), decodeFloats(yb))
		ix.Insert(tr)
		ids := ix.Candidates(tr, 4)
		found := false
		for _, id := range ids {
			if id == tr.ID {
				found = true
			}
		}
		if !found {
			t.Fatal("indexed trajectory missing from its own candidates")
		}
		if !ix.Delete(tr.ID) {
			t.Fatal("delete of just-inserted trajectory failed")
		}
		if ids := ix.Candidates(tr, 4); len(ids) != 0 {
			t.Fatalf("deleted trajectory still produces candidates: %v", ids)
		}
	})
}
