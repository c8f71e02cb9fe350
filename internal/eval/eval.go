// Package eval implements the paper's evaluation (Section V): the Table
// I/II robustness scenarios, multi-class 1-NN classification with k-fold
// cross-validation (Fig. 5(a)), the Spearman rank-robustness procedure
// that scores every noise model (Figs. 5(b)–(i)), the query and build
// timings (Figs. 5(j), 6(a)–(b), 6(e)–(f)) and the UB-Factor measurements
// for vantage points (Figs. 6(c)–(d)). cmd/trajbench prints every one of
// them. Distance computations fan out over a bounded worker pool sized to
// the machine.
package eval

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"trajmatch/internal/baseline"
	"trajmatch/internal/par"
	"trajmatch/internal/stats"
	"trajmatch/internal/traj"
)

// parallelFor runs f(i) for i in [0, n) on up to NumCPU workers.
func parallelFor(n int, f func(i int)) {
	par.For(runtime.NumCPU(), n, f)
}

// Classification runs the Fig. 5(a) protocol: k-fold cross-validation with
// nearest-neighbour classification over a labelled dataset, returning mean
// accuracy. Folds are stratified-free random splits as in the paper.
func Classification(db []*traj.Trajectory, m baseline.Metric, folds int, rng *rand.Rand) float64 {
	n := len(db)
	if n < 2 || folds < 2 {
		return 0
	}
	perm := rng.Perm(n)
	correct := 0
	total := 0
	var mu sync.Mutex
	for f := 0; f < folds; f++ {
		lo := f * n / folds
		hi := (f + 1) * n / folds
		test := perm[lo:hi]
		isTest := make(map[int]bool, len(test))
		for _, i := range test {
			isTest[i] = true
		}
		var train []*traj.Trajectory
		for i, t := range db {
			if !isTest[i] {
				train = append(train, t)
			}
		}
		if len(train) == 0 {
			continue
		}
		parallelFor(len(test), func(ti int) {
			q := db[test[ti]]
			best := -1
			bestD := 0.0
			for j, t := range train {
				d := m.Dist(q, t)
				if best < 0 || d < bestD {
					best, bestD = j, d
				}
			}
			mu.Lock()
			total++
			if train[best].Label == q.Label {
				correct++
			}
			mu.Unlock()
		})
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// knnIndices returns the indices of the k nearest trajectories to db[qi]
// in db under m, excluding qi itself. Distances are computed in parallel.
func knnIndices(db []*traj.Trajectory, m baseline.Metric, qi, k int) []int {
	ds := make([]float64, len(db))
	parallelFor(len(db), func(i int) {
		if i == qi {
			return
		}
		ds[i] = m.Dist(db[qi], db[i])
	})
	idx := make([]int, 0, len(db)-1)
	for i := range db {
		if i != qi {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if ds[idx[a]] != ds[idx[b]] {
			return ds[idx[a]] < ds[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// rankRobustness scores a metric's resilience to injected noise following
// Section V-C exactly: the k-NN list for query qi is computed on the clean
// database d1 and on the noisy database d2 (same trajectories, index-
// aligned), the two lists are unioned, every union element is ranked by its
// distance in each world, and Spearman's ρ between the two rank vectors is
// returned. 1 means the noise did not disturb the answer at all.
func rankRobustness(d1, d2 []*traj.Trajectory, m baseline.Metric, qi, k int) float64 {
	knn1 := knnIndices(d1, m, qi, k)
	knn2 := knnIndices(d2, m, qi, k)
	union := make([]int, 0, 2*k)
	seen := make(map[int]bool, 2*k)
	for _, lists := range [2][]int{knn1, knn2} {
		for _, i := range lists {
			if !seen[i] {
				seen[i] = true
				union = append(union, i)
			}
		}
	}
	if len(union) < 2 {
		return 1
	}
	x := make([]float64, len(union))
	y := make([]float64, len(union))
	parallelFor(len(union), func(j int) {
		x[j] = m.Dist(d1[qi], d1[union[j]])
		y[j] = m.Dist(d2[qi], d2[union[j]])
	})
	return stats.Spearman(x, y)
}

// MeanRankRobustness averages rankRobustness over the given query indices.
func MeanRankRobustness(d1, d2 []*traj.Trajectory, m baseline.Metric, queries []int, k int) float64 {
	vals := make([]float64, len(queries))
	for i, qi := range queries {
		vals[i] = rankRobustness(d1, d2, m, qi, k)
	}
	return stats.Mean(vals)
}

// RandomUBFactor computes the denominator-matched baseline of Fig. 6(c):
// the upper bound obtained from k random database trajectories divided by
// the true k-th NN distance of query q under metric m.
func RandomUBFactor(db []*traj.Trajectory, m baseline.Metric, q *traj.Trajectory, k int, rng *rand.Rand) float64 {
	if len(db) == 0 || k <= 0 {
		return 0
	}
	perm := rng.Perm(len(db))
	if k > len(perm) {
		k = len(perm)
	}
	ub := 0.0
	for _, i := range perm[:k] {
		if d := m.Dist(q, db[i]); d > ub {
			ub = d
		}
	}
	kth := KthNNDistance(db, m, q, k)
	if kth == 0 {
		return 1
	}
	return ub / kth
}

// KthNNDistance returns the exact k-th smallest distance from q to db.
func KthNNDistance(db []*traj.Trajectory, m baseline.Metric, q *traj.Trajectory, k int) float64 {
	ds := make([]float64, len(db))
	parallelFor(len(db), func(i int) { ds[i] = m.Dist(q, db[i]) })
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	if k == 0 {
		return 0
	}
	return ds[k-1]
}
