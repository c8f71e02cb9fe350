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
// allocation tests share, with the default options and automatic rebuilds
// off so churn stays in the overlay.
func countersTree(t *testing.T) (*Tree, []*traj.Trajectory) {
	t.Helper()
	tree, err := New(taxiTrips(1000, 1, 0), Options{Seed: 1, RebuildRatio: -1})
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
// were last captured when inserted members got screen summaries of their
// own: only ScreenRejects moved, up, because the 100 inserted members are
// now screened where every one of them used to start a kernel; the
// distance calls, which count screened and evaluated members alike, and
// the visit order stay.
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
		{253, 220, 172, 228, 93, 136},
		{253, 234, 174, 228, 93, 136},
		{200, 175, 153, 185, 71, 115},
		{200, 187, 160, 185, 71, 115},
		{168, 150, 114, 186, 60, 127},
		{168, 151, 114, 186, 60, 127},
		{311, 285, 222, 244, 114, 131},
		{311, 294, 225, 244, 114, 131},
		{342, 318, 304, 287, 125, 163},
		{342, 330, 310, 287, 125, 163},
		{455, 433, 368, 388, 203, 186},
		{455, 441, 370, 388, 203, 186},
		{489, 469, 466, 388, 200, 189},
		{477, 469, 464, 372, 195, 178},
		{557, 535, 508, 394, 224, 171},
		{557, 539, 514, 394, 224, 171},
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
// rows moved in ScreenRejects alone when inserted members got their own
// screen summaries, as the k-NN rows did.
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
		{253, 243, 182, 228, 93, 136},
		{200, 190, 170, 185, 71, 115},
		{168, 158, 114, 186, 60, 127},
		{311, 301, 236, 244, 114, 131},
		{342, 332, 317, 287, 125, 163},
		{455, 445, 377, 388, 203, 186},
		{489, 479, 476, 388, 200, 189},
		{557, 547, 518, 394, 224, 171},
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
