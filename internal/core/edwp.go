// Package core implements Edit Distance with Projections (EDwP), the
// paper's primary contribution: a threshold-free trajectory distance that
// adapts to inconsistent sampling rates through dynamic interpolation.
//
// The distance is realised as a layered dynamic program over the sample
// points of the two trajectories. Layer S holds states where both aligned
// heads sit on sampled points; layers I1 and I2 hold states entered through
// an insert edit, where one head is the projection of the other
// trajectory's last consumed sample onto the current segment — the
// non-sampled interpolated points the paper's ins(·,·) operation creates.
// Every transition charges the paper's rep(·,·) cost weighted by Coverage
// (Eqs. 2–3), so larger segments dominate the distance.
//
// The same machinery, with free skipping of the second argument's prefix
// and suffix plus a "stopped" layer that lets the second trajectory end at
// any sample, yields EDwPsub (Eq. 6). Its box
// generalisation (the Theorem-2 lower bound that powers the TrajTree index)
// lives in boxes.go.
package core

import (
	"math"

	"trajmatch/internal/geom"
	"trajmatch/internal/traj"
)

// layer indices of the dynamic program.
const (
	lS    = 0 // both heads at sample points
	lI1   = 1 // T1's head is a projected (inserted) point
	lI2   = 2 // T2's head is a projected (inserted) point
	lStop = 3 // T2 has ended at sample j (sub mode only)
	nL    = 4
)

// alignMode selects which affixes of the second trajectory are free.
type alignMode int

const (
	modeGlobal alignMode = iota // EDwP: both trajectories consumed in full
	modeSub                     // EDwPsub: t may start late and end early (Eq. 6)
)

// Distance returns the cumulative EDwP distance between two trajectories.
//
// Following the paper's definition, it returns 0 when both trajectories
// have no segments and +Inf when exactly one of them has none.
func Distance(t1, t2 *traj.Trajectory) float64 {
	d, _ := run(t1, t2, modeGlobal, math.Inf(1), nil)
	return d
}

// DistanceBounded returns EDwP(t1, t2) exactly whenever it does not exceed
// limit, and +Inf otherwise. The second return reports whether the +Inf
// came from the limit (the kernel abandoned the dynamic program, or the
// full result was rejected at the boundary) as opposed to the distance
// being genuinely infinite on degenerate inputs — index instrumentation
// counts the former as early abandons. Calls whose true distance is far
// above the bound cost a fraction of a full evaluation.
// DistanceBounded(t1, t2, +Inf) is identical to Distance.
func DistanceBounded(t1, t2 *traj.Trajectory, limit float64) (float64, bool) {
	return run(t1, t2, modeGlobal, limit, nil)
}

// DistanceBoundedCancel is DistanceBounded with a cooperative
// cancellation flag: once cancel fires the dynamic program stops within
// one more DP row and the call returns (+Inf, true), exactly as if it had
// been abandoned by the limit. The result of a cancelled call is
// therefore meaningless on its own — callers must check their
// cancellation source and discard the whole query, which is what the
// trajtree search loop does. A nil cancel is identical to
// DistanceBounded.
func DistanceBoundedCancel(t1, t2 *traj.Trajectory, limit float64, cancel *Cancel) (float64, bool) {
	return run(t1, t2, modeGlobal, limit, cancel)
}

// AvgDistance returns the length-normalised EDwP of Eq. 4:
// EDwP(T1,T2) / (length(T1)+length(T2)). When both trajectories have zero
// spatial length the result is 0 if EDwP is 0 and +Inf otherwise.
func AvgDistance(t1, t2 *traj.Trajectory) float64 {
	d, _ := AvgDistanceBounded(t1, t2, math.Inf(1))
	return d
}

// AvgDistanceBounded returns AvgDistance(t1, t2) exactly whenever it does
// not exceed limit, and +Inf otherwise; the second return reports whether
// the +Inf was caused by the limit (see DistanceBounded). The bound is
// translated into a cumulative-EDwP bound by the normaliser of Eq. 4,
// inflated by a relative epsilon so boundary values survive
// floating-point rounding inside the DP, and the quotient is re-checked
// against limit afterwards so a finite result never exceeds it.
func AvgDistanceBounded(t1, t2 *traj.Trajectory, limit float64) (float64, bool) {
	return AvgDistanceBoundedCancel(t1, t2, limit, nil)
}

// AvgDistanceBoundedCancel is AvgDistanceBounded with a cooperative
// cancellation flag polled at DP-row granularity; see
// DistanceBoundedCancel for the contract. A nil cancel is identical to
// AvgDistanceBounded.
func AvgDistanceBoundedCancel(t1, t2 *traj.Trajectory, limit float64, cancel *Cancel) (float64, bool) {
	sum := t1.Length() + t2.Length()
	if sum == 0 {
		d, abandoned := run(t1, t2, modeGlobal, math.Inf(1), cancel)
		if abandoned {
			// With an infinite limit the only abandon source is the cancel
			// flag; preserve the (+Inf, true) cancellation contract.
			return math.Inf(1), true
		}
		if d == 0 {
			return 0, false
		}
		return math.Inf(1), false
	}
	raw := limit
	if !math.IsInf(limit, 1) {
		raw = limit * sum
		raw += raw * 1e-12 // keep d/sum == limit reachable despite rounding
	}
	d, abandoned := run(t1, t2, modeGlobal, raw, cancel)
	if math.IsInf(d, 1) {
		return d, abandoned
	}
	if res := d / sum; res <= limit {
		return res, false
	}
	return math.Inf(1), true // rejected at the boundary by the limit
}

// SubDistance returns EDwPsub(q, t): the cost of the best alignment of the
// whole of q against any contiguous sub-trajectory of t (Eq. 6). It is
// asymmetric; prefixes and suffixes of t are skipped free of charge.
func SubDistance(q, t *traj.Trajectory) float64 {
	d, _ := run(q, t, modeSub, math.Inf(1), nil)
	return d
}

// SubDistanceBounded returns EDwPsub(q, t) exactly whenever it does not
// exceed limit, and +Inf otherwise; the second return reports whether the
// +Inf was caused by the limit (see DistanceBounded).
func SubDistanceBounded(q, t *traj.Trajectory, limit float64) (float64, bool) {
	return run(q, t, modeSub, limit, nil)
}

// SubDistanceBoundedCancel is SubDistanceBounded with a cooperative
// cancellation flag polled at DP-row granularity; see
// DistanceBoundedCancel for the contract. A nil cancel is identical to
// SubDistanceBounded.
func SubDistanceBoundedCancel(q, t *traj.Trajectory, limit float64, cancel *Cancel) (float64, bool) {
	return run(q, t, modeSub, limit, cancel)
}

// seg returns the spatial segment between two st-points.
func seg(a, b traj.Point) geom.Segment { return geom.Seg(a.XY(), b.XY()) }

// heads returns the aligned head positions of state (i, j, layer).
// P and Q are the sample points of the two trajectories.
func heads(P, Q []traj.Point, i, j, layer int) (h1, h2 geom.Point) {
	n, m := len(P), len(Q)
	h1 = P[i].XY()
	h2 = Q[j].XY()
	switch layer {
	case lI1:
		if i < n-1 {
			h1 = seg(P[i], P[i+1]).Closest(Q[j].XY())
		}
	case lI2:
		if j < m-1 {
			h2 = seg(Q[j], Q[j+1]).Closest(P[i].XY())
		}
	}
	return h1, h2
}

// repCost is rep(e1, e2) × Coverage(e1, e2) for the pieces
// [h1, a1] on T1 and [h2, a2] on T2 (Eqs. 2–3).
func repCost(h1, a1, h2, a2 geom.Point) float64 {
	return (h1.Dist(h2) + a1.Dist(a2)) * (h1.Dist(a1) + h2.Dist(a2))
}

// run executes the forward DP with rolling rows. The inner loop is the
// hottest code in the repository: per cell it computes the projection
// points shared by every layer's transitions once, then relaxes the three
// (or four, in sub mode) outgoing edges of each layer.
//
// The loop body is restructured for the arena's SoA layout — coordinates
// stream from the trajectories' View slices — and every repeated
// computation is shared rather than recomputed: segment lengths are hoisted
// to per-row/per-column caches (cov1 of every sample-anchored layer is the
// same |p_i p_{i+1}|; cov2 likewise), the INS1 projection of cell (i, j) is
// the layer-I1 head of cell (i, j+1) (within-row reuse), and the INS2
// projection of cell (i, j) is the layer-I2 head of cell (i+1, j)
// (cross-row reuse via stamped scratch columns). Sharing is
// value-preserving by construction — identical operands through identical
// operations — so results are bit-identical to the pre-arena kernel, which
// edwp_ref_test.go keeps verbatim as the oracle. Additions are never
// reassociated.
//
// limit makes the kernel bound-aware. Every transition cost is
// non-negative, so state costs are monotone non-decreasing along DP paths:
// a state whose cost already exceeds limit cannot be the prefix of an
// alignment finishing within limit and is never materialised, and once a
// whole row of successor states is empty no alignment can finish at all —
// the kernel abandons and returns +Inf (the row-min test; see
// docs/ARCHITECTURE.md for the admissibility argument). With limit = +Inf
// neither test ever fires and run is bit-identical to the unbounded seed
// kernel.
//
// All scratch (the two rolling rows) comes from a sync.Pool and the XY
// projections come from the trajectories' caches, so steady-state calls
// allocate nothing.
//
// cancel, when non-nil, is polled once per DP row (the same cadence as
// the row-min test): a fired flag abandons the program within one more
// row of work and the call returns (+Inf, true). Cancelled results carry
// no information — the caller's query layer is responsible for noticing
// the cancellation and discarding the whole query.
//
// The second return reports whether a +Inf result was caused by the limit
// (abandoned early, or the completed value exceeded it) rather than by
// degenerate inputs whose distance is genuinely infinite.
func run(t1, t2 *traj.Trajectory, mode alignMode, limit float64, cancel *Cancel) (float64, bool) {
	n, m := len(t1.Points), len(t2.Points)
	if n <= 1 {
		if m <= 1 || mode != modeGlobal {
			return 0, false // EDwPsub(∅,·)=0, EDwP(∅,∅)=0
		}
		return math.Inf(1), false
	}
	if m <= 1 {
		return math.Inf(1), false
	}

	v1 := t1.View()
	v2 := t2.View()
	p1x, p1y := v1.X, v1.Y
	p2x, p2y := v2.X, v2.Y
	// Pin the slice lengths to the loop bounds so the coordinate loads in
	// the cell loop compile without bounds checks.
	p1x, p1y = p1x[:n], p1y[:n]
	p2x, p2y = p2x[:m], p2y[:m]

	scratch := scratchPool.Get().(*dpScratch)
	// Rows are padded by one state group beyond column m-1: together with
	// the sentinel loads at the top of the cell loop this lets the compiler
	// prove every cur/next access in range and drop its bounds check. The
	// padding cells are initialised to +Inf and never written or read.
	cur, next := scratch.dpRows(m + 1)
	seg2, projX, projY, stamp := scratch.auxRows(m)
	seg2 = seg2[:m]
	projX, projY, stamp = projX[:m], projY[:m], stamp[:m]
	// seg2[j] = |q_j q_{j+1}|: the cov2 of every sample-anchored layer at
	// column j, identical across rows, computed once per call. The operand
	// order differs from Dist's but the squared differences do not, so the
	// value is bit-identical.
	for j := 0; j < m-1; j++ {
		dx := p2x[j+1] - p2x[j]
		dy := p2y[j+1] - p2y[j]
		seg2[j] = math.Sqrt(dx*dx + dy*dy)
	}
	for j := range stamp {
		stamp[j] = -1 // no cached projection belongs to this call yet
	}

	inf := math.Inf(1)
	for k := range cur {
		cur[k] = inf
		next[k] = inf
	}
	cur[0*nL+lS] = 0
	if mode == modeSub {
		for j := 0; j < m; j++ {
			cur[j*nL+lS] = 0 // free skip of t's prefix
		}
	}

	best := inf
	for i := 0; i < n; i++ {
		if cancel.Cancelled() {
			// Row-granularity cancellation poll: one atomic load per row,
			// so a fired context stops the quadratic program after at most
			// one more row of cells.
			scratchPool.Put(scratch)
			return inf, true
		}
		nextMin := inf
		i1 := i + 1
		last1 := i1 == n
		pi := geom.Point{X: p1x[i], Y: p1y[i]}
		var e1 geom.Segment
		var pNext geom.Point
		var len1 float64 // |p_i p_{i+1}|: cov1 of the sample-anchored layers
		if i1 < n {
			pNext = geom.Point{X: p1x[i1], Y: p1y[i1]}
			e1 = geom.Segment{A: pi, B: pNext}
			len1 = pi.Dist(pNext)
		}
		// prevProj1 holds the INS1 projection of the previous column:
		// e1.Closest(q_{j'+1}) computed at column j' is exactly this
		// column's layer-I1 head when j = j'+1.
		var prevProj1 geom.Point
		prevProj1Col := -2
		for j := 0; j < m; j++ {
			base := j * nL
			// Two-group windows over the rolling rows: the padding group
			// keeps base+8 in range at j = m-1, and the constant indices
			// below (max nL+lI1 = 5) compile without bounds checks.
			cRow := cur[base : base+8]
			nRow := next[base : base+8]
			c0, c1, c2, c3 := cRow[lS], cRow[lI1], cRow[lI2], cRow[lStop]
			if c0 == inf && c1 == inf && c2 == inf && c3 == inf {
				continue
			}
			j1 := j + 1
			last2 := j1 == m
			qj := geom.Point{X: p2x[j], Y: p2y[j]}
			var e2 geom.Segment
			var qNext geom.Point
			var len2 float64
			if j1 < m {
				qNext = geom.Point{X: p2x[j1], Y: p2y[j1]}
				e2 = geom.Segment{A: qj, B: qNext}
				len2 = seg2[j]
			}
			// Layer heads, computed only for live layers and reused from
			// the neighbouring cell that already projected the same point
			// onto the same segment whenever possible.
			h1I1 := pi
			if !last1 && c1 < inf {
				if prevProj1Col == j-1 {
					h1I1 = prevProj1
				} else {
					h1I1 = e1.Closest(qj)
				}
			}
			h2I2 := qj
			if !last2 && c2 < inf {
				if stamp[j] == int32(i) {
					h2I2 = geom.Point{X: projX[j], Y: projY[j]}
				} else {
					h2I2 = e2.Closest(pi)
				}
			}
			proj1 := pi // INS1 split point on q's segment
			if !last2 {
				if !last1 {
					proj1 = e1.Closest(qNext)
					prevProj1 = proj1
					prevProj1Col = j
				} else {
					proj1 = geom.Point{X: p1x[n-1], Y: p1y[n-1]}
				}
			}
			proj2 := qj // INS2 split point on t's segment
			if !last1 {
				if !last2 {
					proj2 = e2.Closest(pNext)
					projX[j], projY[j] = proj2.X, proj2.Y
					stamp[j] = int32(i + 1) // = h2I2 of cell (i+1, j)
				} else {
					proj2 = geom.Point{X: p2x[m-1], Y: p2y[m-1]}
				}
			}

			// Endpoint-pair distances shared by every layer's transitions.
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
			// Distances shared across layers: sample-to-sample head gap
			// (dh of layer S, and half of every stop cost), the stop
			// target pNext→q_j, and the INS split-point coverages.
			var dSS float64
			if c0 < inf || c3 < inf {
				dSS = pi.Dist(qj)
			}
			var dPNq float64
			if !last1 && (c3 < inf || mode != modeGlobal) {
				dPNq = pNext.Dist(qj)
			}
			var dPp1 float64 // |p_i proj1|: INS1 coverage of layers S and I2
			if !last2 && (c0 < inf || c2 < inf) {
				dPp1 = pi.Dist(proj1)
			}
			var dQp2 float64 // |q_j proj2|: INS2 coverage of layers S and I1
			if !last1 && (c0 < inf || c1 < inf) {
				dQp2 = qj.Dist(proj2)
			}

			if last1 {
				// q consumed. Global mode also requires t consumed.
				if mode != modeGlobal || last2 {
					if c0 < best {
						best = c0
					}
					if c1 < best {
						best = c1
					}
					if c2 < best {
						best = c2
					}
					if c3 < best {
						best = c3
					}
				}
			}

			// Layer S: both heads at samples (h1 = p_i, h2 = q_j).
			if c0 < inf {
				if !last1 && !last2 {
					cost := c0 + (dSS+dRep)*(len1+len2)
					if cost <= limit {
						if cost < nRow[nL+lS] {
							nRow[nL+lS] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
				if !last2 {
					cost := c0 + (dSS+dIns1)*(dPp1+len2)
					if cost <= limit {
						if cost < cRow[nL+lI1] {
							cRow[nL+lI1] = cost
						}
					}
				}
				if !last1 {
					cost := c0 + (dSS+dIns2)*(len1+dQp2)
					if cost <= limit {
						if cost < nRow[lI2] {
							nRow[lI2] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
				if mode != modeGlobal && !last1 && !last2 {
					cost := c0 + (dSS+dPNq)*len1
					if cost <= limit {
						if cost < nRow[lStop] {
							nRow[lStop] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
			}

			// Layer I1: T1's head is the projected point h1I1.
			if c1 < inf {
				dh := h1I1.Dist(qj)
				var cov1 float64
				if !last1 {
					cov1 = h1I1.Dist(pNext)
				}
				if !last1 && !last2 {
					cost := c1 + (dh+dRep)*(cov1+len2)
					if cost <= limit {
						if cost < nRow[nL+lS] {
							nRow[nL+lS] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
				if !last2 {
					cost := c1 + (dh+dIns1)*(h1I1.Dist(proj1)+len2)
					if cost <= limit {
						if cost < cRow[nL+lI1] {
							cRow[nL+lI1] = cost
						}
					}
				}
				if !last1 {
					cost := c1 + (dh+dIns2)*(cov1+dQp2)
					if cost <= limit {
						if cost < nRow[lI2] {
							nRow[lI2] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
				if mode != modeGlobal && !last1 && !last2 {
					cost := c1 + (dh+dPNq)*cov1
					if cost <= limit {
						if cost < nRow[lStop] {
							nRow[lStop] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
			}

			// Layer I2: T2's head is the projected point h2I2. No stop
			// transition — stops only enter from sample-aligned layers.
			if c2 < inf {
				dh := pi.Dist(h2I2)
				var cov2 float64
				if !last2 {
					cov2 = h2I2.Dist(qNext)
				}
				if !last1 && !last2 {
					cost := c2 + (dh+dRep)*(len1+cov2)
					if cost <= limit {
						if cost < nRow[nL+lS] {
							nRow[nL+lS] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
				if !last2 {
					cost := c2 + (dh+dIns1)*(dPp1+cov2)
					if cost <= limit {
						if cost < cRow[nL+lI1] {
							cRow[nL+lI1] = cost
						}
					}
				}
				if !last1 {
					cost := c2 + (dh+dIns2)*(len1+h2I2.Dist(proj2))
					if cost <= limit {
						if cost < nRow[lI2] {
							nRow[lI2] = cost
						}
						if cost < nextMin {
							nextMin = cost
						}
					}
				}
			}

			// Layer Stop: t has ended at sample j (h1 = p_i, h2 = q_j);
			// q's remaining segments replace against the zero-length tail.
			if c3 < inf && !last1 {
				cost := c3 + (dSS+dPNq)*len1
				if cost <= limit {
					if cost < nRow[lStop] {
						nRow[lStop] = cost
					}
					if cost < nextMin {
						nextMin = cost
					}
				}
			}
		}
		if !last1 && nextMin > limit {
			// Row-min abandon: every alignment still alive must pass
			// through row i+1, and no state there is within limit.
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
		// Only reachable with a finite limit: with limit = +Inf a global
		// alignment always exists for n, m >= 2, and best <= +Inf.
		return inf, true
	}
	return best, false
}
