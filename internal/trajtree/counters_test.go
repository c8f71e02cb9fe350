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
// alone or re-capture them and say why. The built rows were last
// captured when the vantage pass was deleted: only EarlyAbandons and
// ScreenRejects moved, because the first members evaluated now come from
// the first leaf rather than from the VD ranking, so the screen and the
// kernel cut a different subset of the same evaluations. The churned rows
// were last captured when Delete began to maintain the tree: the churn's
// deletes drop the nodes they empty and refit the boxes they made stale,
// so every column moved: distance calls fell by 0.7–4.2 % on every
// query, bound calls by 3–8 % on seven of the eight and rose by 5 % on
// the third, visited nodes fell by up to 6 %, and the answers stayed.
// Before that they moved when inserted members got screen summaries of
// their own: only ScreenRejects moved, up, because the 100 inserted
// members were screened where every one of them used to start a kernel.
var (
	goldenBuilt = [][6]int{
		{233, 211, 156, 217, 80, 138},
		{233, 215, 156, 217, 80, 138},
		{180, 153, 144, 175, 57, 119},
		{180, 167, 151, 175, 57, 119},
		{178, 161, 130, 176, 60, 117},
		{178, 163, 131, 176, 60, 117},
		{305, 279, 214, 223, 102, 122},
		{305, 288, 217, 223, 102, 122},
		{425, 400, 382, 282, 145, 138},
		{425, 414, 388, 282, 145, 138},
		{455, 433, 372, 367, 187, 181},
		{455, 439, 374, 367, 187, 181},
		{461, 443, 439, 327, 174, 154},
		{461, 451, 446, 327, 174, 154},
		{546, 527, 503, 362, 201, 162},
		{546, 530, 508, 362, 201, 162},
	}
	goldenChurned = [][6]int{
		{246, 213, 165, 215, 90, 126},
		{246, 227, 167, 215, 90, 126},
		{195, 167, 146, 180, 71, 110},
		{195, 182, 155, 180, 71, 110},
		{161, 143, 107, 195, 58, 138},
		{161, 144, 107, 195, 58, 138},
		{306, 280, 217, 235, 108, 128},
		{306, 289, 220, 235, 108, 128},
		{332, 308, 295, 276, 118, 159},
		{332, 320, 302, 276, 118, 159},
		{449, 428, 363, 364, 190, 175},
		{449, 435, 363, 364, 190, 175},
		{482, 461, 459, 358, 189, 170},
		{466, 458, 453, 342, 183, 160},
		{553, 531, 504, 375, 213, 163},
		{553, 535, 510, 375, 213, 163},
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
// query at its 10th-best distance (rangeCounters). Captured from the
// depth-first range walk that range queries ran on before they became
// the k-NN descent with no cap on k: with the limit fixed at the radius
// both visit the same nodes and evaluate the same members. The churned
// rows were re-captured with the k-NN rows, for the same reason, when
// Delete began to maintain the tree.
var (
	goldenRangeBuilt = [][6]int{
		{233, 223, 161, 217, 80, 138},
		{180, 170, 153, 175, 57, 119},
		{178, 168, 131, 176, 60, 117},
		{305, 295, 230, 223, 102, 122},
		{425, 415, 389, 282, 145, 138},
		{455, 445, 381, 367, 187, 181},
		{461, 451, 446, 327, 174, 154},
		{546, 536, 512, 362, 201, 162},
	}
	goldenRangeChurned = [][6]int{
		{246, 236, 175, 215, 90, 126},
		{195, 185, 165, 180, 71, 110},
		{161, 151, 107, 195, 58, 138},
		{306, 296, 231, 235, 108, 128},
		{332, 322, 307, 276, 118, 159},
		{449, 439, 371, 364, 190, 175},
		{482, 472, 469, 358, 189, 170},
		{553, 543, 514, 375, 213, 163},
	}
)

// TestSearchAllocBudget pins the pooled scratch of the search: a warm
// 10-NN search over the 1 000-trip corpus runs its node bounds, its
// member screens and its node queue without allocating per item. What is
// left is the growth of the answer set's slice and the node queue's, and
// the Stats the member screen counts into.
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
	// Measured 13. Queues on container/heap, which boxes every pushed and
	// popped item, allocate about 300.
	const budget = 20
	if n := testing.AllocsPerRun(4*len(queries), run); n > budget {
		t.Errorf("warm SearchKNN allocates %v per query, budget %d", n, budget)
	}
}
