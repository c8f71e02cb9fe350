package core

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// refXYs is the []geom.Point projection the pre-arena kernel read.
func refXYs(t *traj.Trajectory) []geom.Point {
	pts := make([]geom.Point, len(t.Points))
	for i, p := range t.Points {
		pts[i] = p.XY()
	}
	return pts
}

// runRef is the pre-arena kernel, kept verbatim as the bit-identity oracle
// for the restructured run: the SoA rewrite shares and hoists repeated
// distance/projection computations but must never reassociate an addition
// or change an operand, so every result — including abandon decisions —
// has to match runRef bit for bit.
func runRef(t1, t2 *traj.Trajectory, mode alignMode, limit float64, cancel *Cancel) (float64, bool) {
	n, m := len(t1.Points), len(t2.Points)
	if n <= 1 {
		if m <= 1 || mode != modeGlobal {
			return 0, false
		}
		return math.Inf(1), false
	}
	if m <= 1 {
		return math.Inf(1), false
	}

	px := refXYs(t1)
	qx := refXYs(t2)

	scratch := scratchPool.Get().(*dpScratch)
	cur, next := scratch.dpRows(m)

	inf := math.Inf(1)
	for k := range cur {
		cur[k] = inf
		next[k] = inf
	}
	cur[0*nL+lS] = 0
	if mode == modeSub {
		for j := 0; j < m; j++ {
			cur[j*nL+lS] = 0
		}
	}

	best := inf
	for i := 0; i < n; i++ {
		if cancel.Cancelled() {
			scratchPool.Put(scratch)
			return inf, true
		}
		nextMin := inf
		last1 := i == n-1
		var e1 geom.Segment
		var pNext geom.Point
		if !last1 {
			e1 = geom.Segment{A: px[i], B: px[i+1]}
			pNext = px[i+1]
		}
		for j := 0; j < m; j++ {
			base := j * nL
			c0, c1, c2, c3 := cur[base+lS], cur[base+lI1], cur[base+lI2], cur[base+lStop]
			if c0 == inf && c1 == inf && c2 == inf && c3 == inf {
				continue
			}
			last2 := j == m-1
			var e2 geom.Segment
			var qNext geom.Point
			if !last2 {
				e2 = geom.Segment{A: qx[j], B: qx[j+1]}
				qNext = qx[j+1]
			}
			h1I1 := px[i]
			if !last1 {
				h1I1 = e1.Closest(qx[j])
			}
			h2I2 := qx[j]
			if !last2 {
				h2I2 = e2.Closest(px[i])
			}
			proj1 := px[i]
			if !last2 {
				if !last1 {
					proj1 = e1.Closest(qNext)
				} else {
					proj1 = px[n-1]
				}
			}
			proj2 := qx[j]
			if !last1 {
				if !last2 {
					proj2 = e2.Closest(pNext)
				} else {
					proj2 = qx[m-1]
				}
			}

			var dRep, dIns1, dIns2 float64
			if !last1 && !last2 {
				dRep = pNext.Dist(qNext)
			}
			if !last2 {
				dIns1 = proj1.Dist(qNext)
			}
			if !last1 {
				dIns2 = pNext.Dist(proj2)
			}

			for layer := 0; layer < nL; layer++ {
				c := cur[base+layer]
				if c == inf {
					continue
				}
				h1, h2 := px[i], qx[j]
				switch layer {
				case lI1:
					h1 = h1I1
				case lI2:
					h2 = h2I2
				}
				if last1 {
					if mode != modeGlobal || last2 {
						if c < best {
							best = c
						}
					}
				}
				if layer == lStop {
					if !last1 {
						cost := c + (h1.Dist(h2)+pNext.Dist(h2))*h1.Dist(pNext)
						if cost <= limit {
							if idx := base + lStop; cost < next[idx] {
								next[idx] = cost
							}
							if cost < nextMin {
								nextMin = cost
							}
						}
					}
					continue
				}
				dh := h1.Dist(h2)
				var cov1 float64
				if !last1 {
					cov1 = h1.Dist(pNext)
				}
				var cov2 float64
				if !last2 {
					cov2 = h2.Dist(qNext)
				}
				if !last1 && !last2 {
					cost := c + (dh+dRep)*(cov1+cov2)
					if cost <= limit {
						if idx := base + nL + lS; cost < next[idx] {
							next[idx] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
				if !last2 {
					cost := c + (dh+dIns1)*(h1.Dist(proj1)+cov2)
					if cost <= limit {
						if idx := base + nL + lI1; cost < cur[idx] {
							cur[idx] = cost
						}
					}
				}
				if !last1 {
					cost := c + (dh+dIns2)*(cov1+h2.Dist(proj2))
					if cost <= limit {
						if idx := base + lI2; cost < next[idx] {
							next[idx] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
				if mode != modeGlobal && (layer == lS || layer == lI1) && !last1 && !last2 {
					qj := qx[j]
					cost := c + (h1.Dist(qj)+pNext.Dist(qj))*cov1
					if cost <= limit {
						if idx := base + lStop; cost < next[idx] {
							next[idx] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
			}
		}
		if !last1 && nextMin > limit {
			scratchPool.Put(scratch)
			return inf, true
		}
		cur, next = next, cur
		for k := range next {
			next[k] = inf
		}
	}
	scratchPool.Put(scratch)
	if best > limit {
		return inf, true
	}
	return best, false
}

func refRandTraj(rng *rand.Rand, id int) *traj.Trajectory {
	n := 2 + rng.Intn(18)
	pts := make([]traj.Point, n)
	x, y := rng.Float64()*100, rng.Float64()*100
	for i := range pts {
		x += rng.NormFloat64() * 3
		y += rng.NormFloat64() * 3
		pts[i] = traj.P(x, y, float64(i))
	}
	return traj.New(id, pts)
}

// TestRunMatchesReferenceBitExact drives the restructured kernel against
// the verbatim pre-arena kernel over random trajectory pairs, all three
// alignment modes and a ladder of limits (including ones tight enough to
// trigger row abandons), requiring bit-identical results.
func TestRunMatchesReferenceBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	modes := []alignMode{modeGlobal, modeSub}
	for iter := 0; iter < 400; iter++ {
		a := refRandTraj(rng, 1)
		b := refRandTraj(rng, 2)
		for _, mode := range modes {
			full, _ := runRef(a, b, mode, math.Inf(1), nil)
			limits := []float64{math.Inf(1), full * 2, full, full * 0.75, full * 0.25, 0}
			for _, limit := range limits {
				got, gotAb := run(a, b, mode, limit, nil)
				want, wantAb := runRef(a, b, mode, limit, nil)
				if math.Float64bits(got) != math.Float64bits(want) || gotAb != wantAb {
					t.Fatalf("iter %d mode %d limit %v: run=(%v,%v) ref=(%v,%v)",
						iter, mode, limit, got, gotAb, want, wantAb)
				}
			}
		}
	}
}

// TestRunMatchesReferenceDegenerate covers the short-circuit paths and
// duplicate-point trajectories (zero-length segments).
func TestRunMatchesReferenceDegenerate(t *testing.T) {
	one := traj.New(1, []traj.Point{traj.P(3, 4, 0)})
	two := traj.FromXY(2, 0, 0, 1, 1)
	dup := traj.New(3, []traj.Point{traj.P(5, 5, 0), traj.P(5, 5, 1), traj.P(6, 5, 2)})
	cases := [][2]*traj.Trajectory{{one, one}, {one, two}, {two, one}, {two, dup}, {dup, dup}}
	for _, mode := range []alignMode{modeGlobal, modeSub} {
		for _, c := range cases {
			for _, limit := range []float64{math.Inf(1), 10, 0} {
				got, gotAb := run(c[0], c[1], mode, limit, nil)
				want, wantAb := runRef(c[0], c[1], mode, limit, nil)
				if math.Float64bits(got) != math.Float64bits(want) || gotAb != wantAb {
					t.Fatalf("mode %d T%d/T%d limit %v: run=(%v,%v) ref=(%v,%v)",
						mode, c[0].ID, c[1].ID, limit, got, gotAb, want, wantAb)
				}
			}
		}
	}
}
