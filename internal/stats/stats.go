// Package stats provides the statistics the evaluation harness reports:
// Spearman's rank correlation (the robustness measure of Section V-C),
// Pearson correlation and small summary helpers.
package stats

import (
	"math"
	"sort"
)

// Ranks converts values to fractional ranks (1-based); tied values receive
// the average of the ranks they span, the standard treatment for
// Spearman's ρ.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson correlation of x and y; 0 when either series
// is constant or the lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns Spearman's rank correlation coefficient between x and y:
// the Pearson correlation of their rank vectors (tie-aware). Identical rank
// vectors — including the all-ties case, which coarse integer-valued
// distances like EDR produce routinely — score 1, since the orderings agree
// perfectly.
func Spearman(x, y []float64) float64 {
	rx, ry := Ranks(x), Ranks(y)
	if len(rx) == len(ry) {
		same := true
		for i := range rx {
			if rx[i] != ry[i] {
				same = false
				break
			}
		}
		if same && len(rx) > 0 {
			return 1
		}
	}
	return Pearson(rx, ry)
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
