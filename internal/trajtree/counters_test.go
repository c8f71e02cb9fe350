package trajtree

import (
	"fmt"
	"strings"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/raceflag"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

// taxiTrips generates n synthetic city trips from seed with IDs starting
// at firstID.
func taxiTrips(n int, seed int64, firstID int) []*traj.Trajectory {
	cfg := synth.DefaultTaxi(n)
	cfg.Seed = seed
	ts := synth.Taxi(cfg)
	for i, tr := range ts {
		tr.ID = firstID + i
	}
	return ts
}

// countersTree builds the fixed 1 000-trip corpus the work-counter and
// allocation tests share, with the default options.
func countersTree(t *testing.T) (*Tree, []*traj.Trajectory) {
	t.Helper()
	tree, err := New(taxiTrips(1000, 1, 0), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tree, taxiTrips(8, 7920, 5_000_000)
}

// churn deletes every ninth member of the original corpus and inserts 100
// fresh trips, so member lists lose entries throughout and gain them at
// their end, and node boxes grow in place at every level.
func churn(t *testing.T, tree *Tree) {
	t.Helper()
	for id := 4; id < 1000; id += 9 {
		if !tree.Delete(id) {
			t.Fatalf("delete %d: not found", id)
		}
	}
	for _, tr := range taxiTrips(100, 31, 2_000_000) {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// workCounters runs every query as a 10-NN search — unbounded, then under
// a shared bound seeded at 1.5× the unbounded search's 5th-best distance —
// and returns one row of the six work counters per search.
func workCounters(t *testing.T, tree *Tree, queries []*traj.Trajectory) [][6]int {
	t.Helper()
	var out [][6]int
	for _, q := range queries {
		res, st, _, err := tree.SearchKNN(q, 10, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, counterRow(st))
		_, st, _, err = tree.SearchKNN(q, 10, backend.NewSharedBound(1.5*res[4].Dist), nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, counterRow(st))
	}
	return out
}

// rangeCounters runs every query as a range search at the radius of its
// unbounded 10-NN search's 10th-best distance and returns one row of the
// six work counters per range search.
func rangeCounters(t *testing.T, tree *Tree, queries []*traj.Trajectory) [][6]int {
	t.Helper()
	var out [][6]int
	for _, q := range queries {
		knn, _, _, err := tree.SearchKNN(q, 10, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, st, _, err := tree.SearchRange(q, knn[9].Dist, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) < 10 {
			t.Fatalf("range at the 10th-best distance answered %d members, want >= 10", len(res))
		}
		out = append(out, counterRow(st))
	}
	return out
}

// counterRow is one search's six work counters in golden order.
func counterRow(st Stats) [6]int {
	return [6]int{st.DistanceCalls, st.EarlyAbandons, st.ScreenRejects, st.LowerBoundCalls, st.NodesVisited, st.NodesPruned}
}

func checkCounters(t *testing.T, label string, got, want [][6]int) {
	t.Helper()
	if fmt.Sprint(got) == fmt.Sprint(want) {
		return
	}
	var b strings.Builder
	for _, r := range got {
		fmt.Fprintf(&b, "\t{%d, %d, %d, %d, %d, %d},\n", r[0], r[1], r[2], r[3], r[4], r[5])
	}
	t.Errorf("%s: work counters differ from the golden ones; got\n%s", label, b.String())
}

// Golden work counters: per query {DistanceCalls, EarlyAbandons,
// ScreenRejects, LowerBoundCalls, NodesVisited, NodesPruned}, the
// unbounded search then the shared-bound one. They pin the visit order
// far more sharply than the answers do — one swapped candidate moves the
// running k-th best and with it every later pruning decision — so any
// change to a bound, the descent or the build must either leave them
// alone or re-capture them and say why. Every row was last captured when
// leaf members entered the descent's queue at their own screens and the
// leaf node bound went: every column moved and the answers stayed.
// Summed over the built rows, kernel starts (DistanceCalls −
// ScreenRejects) fell 855 → 760, because kernels start in member-bound
// order across leaves (churned 899 → 770). DistanceCalls fell
// 5 566 → 1 292, because a member the bounding-box screen cuts is now a
// bound prune, counted in LowerBoundCalls (4 258 → 11 074, one per
// member of a leaf whose parent is expanded, beside the node bounds of
// internal children) and NodesPruned (2 262 → 9 526); NodesVisited
// counts only the internal nodes expanded (2 012 → 272). Before that the
// built rows moved when the vantage pass was deleted (only EarlyAbandons
// and ScreenRejects), and the churned rows when Delete began to maintain
// the tree (every column, the answers unchanged) and when inserted
// members got screen summaries of their own (only ScreenRejects, up).
var (
	goldenBuilt = [][6]int{
		{113, 84, 41, 560, 14, 434},
		{115, 95, 43, 560, 14, 432},
		{53, 41, 26, 516, 11, 453},
		{67, 56, 40, 516, 11, 439},
		{66, 51, 19, 523, 11, 447},
		{67, 54, 20, 523, 11, 446},
		{117, 98, 42, 685, 14, 555},
		{119, 106, 44, 685, 14, 553},
		{65, 49, 29, 759, 18, 677},
		{84, 74, 48, 759, 18, 658},
		{118, 97, 44, 798, 24, 657},
		{125, 106, 51, 798, 24, 650},
		{20, 6, 5, 800, 21, 760},
		{35, 25, 20, 800, 21, 745},
		{57, 44, 23, 896, 23, 817},
		{71, 59, 37, 896, 23, 803},
	}
	goldenChurned = [][6]int{
		{109, 81, 38, 546, 15, 423},
		{113, 96, 42, 546, 15, 419},
		{55, 42, 25, 511, 12, 445},
		{69, 57, 39, 511, 12, 431},
		{74, 60, 20, 534, 13, 448},
		{75, 63, 21, 534, 13, 447},
		{121, 102, 46, 672, 16, 536},
		{123, 109, 48, 672, 16, 534},
		{44, 29, 19, 729, 19, 667},
		{64, 54, 39, 729, 19, 647},
		{119, 99, 41, 785, 26, 641},
		{126, 108, 48, 785, 26, 634},
		{18, 5, 5, 819, 25, 777},
		{31, 23, 18, 799, 24, 745},
		{57, 43, 18, 892, 26, 810},
		{70, 57, 31, 892, 26, 797},
	}
)

func TestKNNWorkCountersGolden(t *testing.T) {
	tree, queries := countersTree(t)
	checkCounters(t, "built", workCounters(t, tree, queries), goldenBuilt)
	checkCounters(t, "built, range", rangeCounters(t, tree, queries), goldenRangeBuilt)

	churn(t, tree)
	checkCounters(t, "churned", workCounters(t, tree, queries), goldenChurned)
	checkCounters(t, "churned, range", rangeCounters(t, tree, queries), goldenRangeChurned)

	for label, loaded := range map[string]*Tree{"arena-loaded": loadArena(t, tree), "heap-loaded": loadHeap(t, tree)} {
		checkCounters(t, "churned, "+label, workCounters(t, loaded, queries), goldenChurned)
		checkCounters(t, "churned, "+label+", range", rangeCounters(t, loaded, queries), goldenRangeChurned)
	}
}

// Golden range work counters on the same corpus and queries, one row per
// query at its 10th-best distance (rangeCounters). First captured from
// the depth-first range walk that range queries ran on before they became
// the k-NN descent with no cap on k: with the limit fixed at the radius
// both visit the same nodes and evaluate the same members. Re-captured
// with the k-NN rows each time since, for the same reasons; when leaf
// members entered the queue, kernel starts stayed at 380 (built) and 385
// (churned) summed, because at a fixed limit the order of the members
// decides nothing.
var (
	goldenRangeBuilt = [][6]int{
		{123, 113, 51, 560, 14, 424},
		{75, 65, 48, 516, 11, 431},
		{70, 60, 23, 523, 11, 443},
		{128, 118, 53, 685, 14, 544},
		{84, 74, 48, 759, 18, 658},
		{139, 129, 65, 798, 24, 636},
		{35, 25, 20, 800, 21, 745},
		{78, 68, 44, 896, 23, 796},
	}
	goldenRangeChurned = [][6]int{
		{120, 110, 49, 546, 15, 412},
		{78, 68, 48, 511, 12, 422},
		{78, 68, 24, 534, 13, 444},
		{131, 121, 56, 672, 16, 526},
		{71, 61, 46, 729, 19, 640},
		{140, 130, 62, 785, 26, 620},
		{31, 21, 18, 819, 25, 764},
		{76, 66, 37, 892, 26, 791},
	}
)

// TestSearchAllocBudget pins the pooled scratch of the search: a warm
// 10-NN search over the 1 000-trip corpus runs its node bounds, its
// member screens and its queue without allocating per item. What is
// left is the verify step with its answer set, the closures around it
// and the Stats they count into.
func TestSearchAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool deliberately drops Puts")
	}
	tree, queries := countersTree(t)
	it := 0
	run := func() {
		if _, _, _, err := tree.SearchKNN(queries[it%len(queries)], 10, nil, nil); err != nil {
			t.Fatal(err)
		}
		it++
	}
	for i := 0; i < 2*len(queries); i++ {
		run() // warm the pools and the XY caches
	}
	// Measured 7, and 13 before the queue's backing array was pooled.
	// Queues on container/heap, which boxes every pushed and popped item,
	// allocate about 300.
	const budget = 10
	if n := testing.AllocsPerRun(4*len(queries), run); n > budget {
		t.Errorf("warm SearchKNN allocates %v per query, budget %d", n, budget)
	}
}
