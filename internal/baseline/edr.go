package baseline

import (
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// EDR is Edit Distance on Real sequence (Chen, Özsu, Oria; SIGMOD 2005).
// The subsequence cost is 0 when two points match within the spatial
// threshold Eps and 1 otherwise; insertions and deletions cost 1. The
// distance is the integer edit count, exactly the quantity used in the
// paper's Fig. 1 walk-throughs.
type EDR struct {
	// Eps is the spatial matching threshold ε.
	Eps float64
}

// Name implements Metric.
func (EDR) Name() string { return "EDR" }

// Dist implements Metric.
func (e EDR) Dist(a, b *traj.Trajectory) float64 {
	d, _ := e.edits(a.Points, b.Points, -1, nil)
	return float64(d)
}

// DistEarlyAbandonCancel computes EDR but returns early with a value >
// bound as soon as the distance provably exceeds bound (bound < 0
// disables); the EDR index uses this to cut off hopeless candidates. The
// cooperative cancellation flag is polled once per DP row, and abandoned
// is true when the row-minimum test cut the program short (the value is
// then a lower bound > bound, not the distance) or the flag fired
// mid-evaluation (the value is then meaningless and the caller must
// discard the whole answer via its Ctl's error). A nil cancel never
// fires.
func (e EDR) DistEarlyAbandonCancel(a, b *traj.Trajectory, bound int, cancel *core.Cancel) (float64, bool) {
	d, abandoned := e.edits(a.Points, b.Points, bound, cancel)
	return float64(d), abandoned
}

func (e EDR) edits(P, Q []traj.Point, bound int, cancel *core.Cancel) (int, bool) {
	n, m := len(P), len(Q)
	if n == 0 {
		return m, false
	}
	if m == 0 {
		return n, false
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		if cancel.Cancelled() {
			return 0, true
		}
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= m; j++ {
			sub := 1
			if P[i-1].Dist(Q[j-1]) <= e.Eps {
				sub = 0
			}
			v := prev[j-1] + sub
			if prev[j]+1 < v {
				v = prev[j] + 1
			}
			if cur[j-1]+1 < v {
				v = cur[j-1] + 1
			}
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if bound >= 0 && rowMin > bound {
			return rowMin, true // every completion is at least this expensive
		}
		prev, cur = cur, prev
	}
	return prev[m], false
}
