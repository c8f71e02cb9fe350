// Package edrindex implements an indexed k-NN evaluator for the EDR
// distance, the competitor labelled "EDR" in Figs. 5(j) and 6(a). It
// follows the pruning framework of the original EDR paper (Chen, Özsu,
// Oria; SIGMOD 2005) with two admissible lower bounds — the sequence-length
// difference and a grid-histogram mismatch count — and an early-abandoning
// dynamic program ordered by those bounds.
//
// The Index is a backend.Flat over that bound and kernel, so the sharded
// engine of internal/server serves EDR through the same /v1 API as EDwP.
// It is a static index: no mutation, no persistence — the engine degrades
// those operations to not_implemented.
package edrindex

import (
	"math"

	"trajmatch/internal/backend"
	"trajmatch/internal/baseline"
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// MetricName is the backend identifier of this index.
const MetricName = "edr"

// Index is the EDR index: a flat index over lowerBound and the
// early-abandoning EDR of package baseline.
type Index = backend.Flat

// cellKey addresses an ε-grid cell.
type cellKey struct{ cx, cy int }

// New builds the index at matching threshold eps: one ε-grid histogram
// per trajectory.
func New(db []*traj.Trajectory, eps float64) *Index {
	grids := make([]map[cellKey]int, len(db))
	for i, t := range db {
		grids[i] = gridOf(t, eps)
	}
	edr := baseline.EDR{Eps: eps}
	return backend.NewFlat(db,
		func(q *traj.Trajectory) func(i int) float64 {
			qGrid := gridOf(q, eps)
			return func(i int) float64 { return lowerBound(q, db[i], qGrid, grids[i]) }
		},
		func(q, t *traj.Trajectory, limit float64, cancel *core.Cancel) (float64, bool) {
			return edr.DistEarlyAbandonCancel(q, t, intLimit(limit), cancel)
		})
}

// DefaultEps derives the matching threshold ε from the database, half
// the median segment length — the scaling the eval harness uses for
// every threshold-based metric. Returns 1 for a degenerate database.
func DefaultEps(db []*traj.Trajectory) float64 {
	if m := traj.MedianSegmentLength(db); m > 0 {
		return m * 0.5
	}
	return 1
}

// BackendSpec returns the buildable backend spec for EDR at the given ε.
// The ε must be fixed from whole-database statistics (DefaultEps) before
// sharding, so every shard prices edits identically.
func BackendSpec(eps float64) backend.Spec {
	return backend.Spec{
		Name: MetricName,
		Build: func(db []*traj.Trajectory) (backend.Backend, error) {
			return New(db, eps), nil
		},
	}
}

func gridOf(t *traj.Trajectory, eps float64) map[cellKey]int {
	g := make(map[cellKey]int, t.NumPoints())
	for _, p := range t.Points {
		g[cellKey{int(math.Floor(p.X / eps)), int(math.Floor(p.Y / eps))}]++
	}
	return g
}

// lowerBound returns an admissible lower bound on EDR(q, t), given the
// ε-grid histograms of both.
func lowerBound(q, t *traj.Trajectory, qGrid, tGrid map[cellKey]int) float64 {
	lenDiff := q.NumPoints() - t.NumPoints()
	if lenDiff < 0 {
		lenDiff = -lenDiff
	}
	// Histogram bound: a query point can only match a database point lying
	// in its 3×3 cell neighbourhood; every query point without any such
	// candidate forces at least one edit, and those edits are distinct.
	unmatched := 0
	for c, cnt := range qGrid {
		found := false
		for dx := -1; dx <= 1 && !found; dx++ {
			for dy := -1; dy <= 1; dy++ {
				if tGrid[cellKey{c.cx + dx, c.cy + dy}] > 0 {
					found = true
					break
				}
			}
		}
		if !found {
			unmatched += cnt
		}
	}
	if unmatched > lenDiff {
		return float64(unmatched)
	}
	return float64(lenDiff)
}

// intLimit converts a float abandon limit into the integer bound the EDR
// dynamic program tests strictly: rowMin > limit ⟺ rowMin > ⌊limit⌋ for
// the integer-valued rowMin. -1 (disabled) for an infinite limit.
func intLimit(limit float64) int {
	if math.IsInf(limit, 1) {
		return -1
	}
	return int(math.Floor(limit))
}
