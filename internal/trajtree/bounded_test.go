package trajtree

import (
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// referenceKNN is the unbounded sequential scan: exact distances offered
// to backend.KBest in database order, so exact ties are decided by ID.
// The bounded index search must reproduce its answers byte-for-byte.
func referenceKNN(db []*traj.Trajectory, q *traj.Trajectory, k int, cumulative bool) []Result {
	ans := backend.NewKBest(k)
	for _, tr := range db {
		d := core.AvgDistance(q, tr)
		if cumulative {
			d = core.Distance(q, tr)
		}
		ans.Offer(tr, d)
	}
	return ans.Results()
}

// referenceRange is the seed range semantics by unbounded scan.
func referenceRange(db []*traj.Trajectory, q *traj.Trajectory, radius float64) []Result {
	var out []Result
	for _, tr := range db {
		if d := core.AvgDistance(q, tr); d <= radius {
			out = append(out, Result{Traj: tr, Dist: d})
		}
	}
	backend.SortResults(out)
	return out
}

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Traj.ID != want[i].Traj.ID {
			t.Fatalf("%s: result %d is T%d, want T%d", label, i, got[i].Traj.ID, want[i].Traj.ID)
		}
		if got[i].Dist != want[i].Dist {
			// Byte-identical, not approximately equal: the bounded kernel
			// must return the exact unbounded value whenever it returns at
			// all.
			t.Fatalf("%s: result %d dist %v != %v (T%d)", label, i, got[i].Dist, want[i].Dist, got[i].Traj.ID)
		}
	}
}

// TestBoundedKNNMatchesSeedScan drives randomized k-NN workloads through
// the bounded index search and checks byte-identical agreement with the
// unbounded sequential scan, while also proving the early-abandon fast
// path actually fires (Stats.EarlyAbandons > 0 across the workload).
func TestBoundedKNNMatchesSeedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := testDB(rng, 140)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	totalAbandons := 0
	for it := 0; it < 25; it++ {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 5_000_000 + it
		if it%3 == 0 { // also query off-database shapes
			for i := range q.Points {
				q.Points[i].X += rng.NormFloat64() * 10
				q.Points[i].Y += rng.NormFloat64() * 10
			}
		}
		k := 1 + rng.Intn(12)
		got, st, _, _ := tree.SearchKNN(q, k, nil, nil)
		sameResults(t, "SearchKNN", got, referenceKNN(db, q, k, false))
		totalAbandons += st.EarlyAbandons
		if st.EarlyAbandons > st.DistanceCalls {
			t.Fatalf("EarlyAbandons %d exceeds DistanceCalls %d", st.EarlyAbandons, st.DistanceCalls)
		}
	}
	if totalAbandons == 0 {
		t.Error("early-abandon fast path never fired across the workload")
	}
}

func TestBoundedKNNMatchesSeedScanCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	db := testDB(rng, 100)
	opt := testOptions()
	opt.Cumulative = true
	tree, err := New(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 10; it++ {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 5_000_000 + it
		got, _, _, _ := tree.SearchKNN(q, 8, nil, nil)
		sameResults(t, "SearchKNN(cumulative)", got, referenceKNN(db, q, 8, true))
	}
}

// TestBoundedRangeMatchesSeedScan checks SearchRange under the radius
// bound: identical membership, distances and order versus the unbounded
// linear scan, with abandons observed for out-of-range members.
func TestBoundedRangeMatchesSeedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	db := testDB(rng, 140)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	totalAbandons := 0
	for it := 0; it < 20; it++ {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 6_000_000 + it
		// Radii spanning tiny (abandon-heavy) to generous (most kept).
		for _, radius := range []float64{0.01, 0.05, 0.2, 1.0} {
			got, st, _, _ := tree.SearchRange(q, radius, nil)
			sameResults(t, "SearchRange", got, referenceRange(db, q, radius))
			totalAbandons += st.EarlyAbandons
		}
	}
	if totalAbandons == 0 {
		t.Error("range search never abandoned an out-of-radius member")
	}
}

// Repeated queries must not leak state through the pooled segment
// screens.
func TestPooledScreenReuseAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	db := testDB(rng, 80)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := db[7].Clone()
	q.ID = 7_000_000
	first, _, _, _ := tree.SearchKNN(q, 9, nil, nil)
	for it := 0; it < 30; it++ {
		again, _, _, _ := tree.SearchKNN(q, 9, nil, nil)
		sameResults(t, "repeat", again, first)
	}
	if first[0].Dist != 0 {
		t.Fatalf("self-query should find its source at distance 0, got %v", first[0].Dist)
	}
	if math.IsInf(first[len(first)-1].Dist, 1) {
		t.Fatal("answer set contains +Inf distance")
	}
}
