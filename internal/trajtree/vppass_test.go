package trajtree

import (
	"fmt"
	"strings"
	"testing"

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

// vpPassTree builds the fixed 1 000-trip corpus the vantage-pass tests
// share, with the paper's default options (80 VPs per node) and automatic
// rebuilds off so churn stays in the overlay.
func vpPassTree(t *testing.T) (*Tree, []*traj.Trajectory) {
	t.Helper()
	tree, err := New(taxiTrips(1000, 1, 0), Options{Seed: 1, RebuildRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	return tree, taxiTrips(8, 7920, 5_000_000)
}

// churn deletes every ninth member of the original corpus and inserts 100
// fresh trips, so internal nodes lose and gain descriptor rows at every
// level.
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
// and returns one row of the five work counters per search.
func workCounters(t *testing.T, tree *Tree, queries []*traj.Trajectory) [][5]int {
	t.Helper()
	row := func(st Stats) [5]int {
		return [5]int{st.DistanceCalls, st.EarlyAbandons, st.LowerBoundCalls, st.NodesVisited, st.NodesPruned}
	}
	var out [][5]int
	for _, q := range queries {
		res, st, _, err := tree.SearchKNN(q, 10, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row(st))
		_, st, _, err = tree.SearchKNN(q, 10, NewSharedBound(1.5*res[4].Dist), nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row(st))
	}
	return out
}

func checkCounters(t *testing.T, label string, got, want [][5]int) {
	t.Helper()
	if fmt.Sprint(got) == fmt.Sprint(want) {
		return
	}
	var b strings.Builder
	for _, r := range got {
		fmt.Fprintf(&b, "\t{%d, %d, %d, %d, %d},\n", r[0], r[1], r[2], r[3], r[4])
	}
	t.Errorf("%s: work counters differ from the golden ones; got\n%s", label, b.String())
}

// Work counters of the sort-based vantage pass, captured at the commit
// before the selection rewrite: per query {DistanceCalls, EarlyAbandons,
// LowerBoundCalls, NodesVisited, NodesPruned}, the unbounded search then
// the shared-bound one. The rewrite — and any later change to the pass —
// must rank the same rows in the same order, which these pin far more
// sharply than the answers do: one swapped candidate moves the running
// k-th best and with it every later pruning decision.
var (
	goldenBuilt = [][5]int{
		{206, 177, 254, 95, 160},
		{206, 185, 254, 95, 160},
		{165, 152, 201, 60, 142},
		{166, 154, 201, 60, 142},
		{174, 156, 229, 67, 163},
		{174, 159, 229, 67, 163},
		{245, 218, 244, 99, 146},
		{245, 228, 244, 99, 146},
		{389, 370, 304, 159, 146},
		{396, 385, 304, 159, 146},
		{427, 407, 356, 192, 165},
		{427, 409, 356, 192, 165},
		{429, 415, 385, 199, 187},
		{429, 419, 385, 199, 187},
		{488, 472, 429, 216, 214},
		{488, 472, 429, 216, 214},
	}
	goldenChurned = [][5]int{
		{226, 198, 254, 99, 156},
		{226, 207, 254, 99, 156},
		{177, 162, 222, 79, 144},
		{177, 164, 222, 79, 144},
		{147, 129, 250, 66, 185},
		{147, 132, 250, 66, 185},
		{253, 227, 265, 110, 156},
		{253, 236, 265, 110, 156},
		{320, 305, 309, 138, 172},
		{320, 309, 309, 138, 172},
		{423, 402, 366, 198, 169},
		{423, 404, 366, 198, 169},
		{455, 442, 435, 223, 213},
		{601, 593, 435, 217, 219},
		{520, 501, 466, 248, 219},
		{520, 501, 466, 248, 219},
	}
)

func TestKNNWorkCountersGolden(t *testing.T) {
	tree, queries := vpPassTree(t)
	checkCounters(t, "built", workCounters(t, tree, queries), goldenBuilt)

	churn(t, tree)
	checkCounters(t, "churned", workCounters(t, tree, queries), goldenChurned)

	checkCounters(t, "churned, arena-loaded", workCounters(t, loadArena(t, tree), queries), goldenChurned)
	checkCounters(t, "churned, heap-loaded", workCounters(t, loadHeap(t, tree), queries), goldenChurned)
}

// TestVPPassAllocBudget pins the pooled scratch of the vantage pass: a
// warm 10-NN search over the 1 000-trip corpus runs its ~10 passes — each
// ranking hundreds of 80-dim rows — without allocating for them. What is
// left is the result slice and the items of the answer heap and the
// candidate queue; the sort-based pass allocated the query descriptor, the
// scored table and the output per pass on top of that.
func TestVPPassAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool deliberately drops Puts")
	}
	tree, queries := vpPassTree(t)
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
	// Measured 311 (the sort-based pass: 404), all of it queue and heap
	// items boxed by container/heap.
	const budget = 320
	if n := testing.AllocsPerRun(4*len(queries), run); n > budget {
		t.Errorf("warm SearchKNN allocates %v per query, budget %d", n, budget)
	}
}

// TestMappedSlabCopyOnMutate pins the copy-on-mutate rule of descriptor
// slabs: a tree booted from an arena snapshot aliases the file mapping,
// which is read-only, so Delete must move a node's slab to the heap
// before closing the gap (Insert's append reallocates by itself). The
// same churn on the mapped tree and on a heap-read twin must leave both
// answering identically, without a fault.
func TestMappedSlabCopyOnMutate(t *testing.T) {
	tree, queries := vpPassTree(t)
	mapped := loadArena(t, tree)
	if !mapped.MemStats().Arena.Mapped {
		t.Skip("arena snapshots are not mmap'd on this platform")
	}
	heap := loadHeap(t, tree)
	churn(t, mapped)
	churn(t, heap)
	if mapped.Size() != heap.Size() || mapped.Height() != heap.Height() {
		t.Fatalf("mapped tree %v, heap tree %v", mapped, heap)
	}
	for _, q := range queries {
		got, gst, _, err := mapped.SearchKNN(q, 10, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wst, _, err := heap.SearchKNN(q, 10, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "SearchKNN after churn", got, want)
		if gst != wst {
			t.Fatalf("stats diverge after churn: mapped %+v, heap %+v", gst, wst)
		}
		gub, _ := mapped.VPUpperBound(q, 10)
		wub, _ := heap.VPUpperBound(q, 10)
		if gub != wub {
			t.Fatalf("VPUpperBound after churn: mapped %v, heap %v", gub, wub)
		}
	}
}
