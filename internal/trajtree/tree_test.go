package trajtree

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// testDB builds a database of random-walk trajectories clustered around a
// few hubs, loosely shaped like city trips.
func testDB(rng *rand.Rand, n int) []*traj.Trajectory {
	hubs := [][2]float64{{0, 0}, {100, 0}, {50, 90}, {120, 120}}
	db := make([]*traj.Trajectory, n)
	for i := range db {
		h := hubs[rng.Intn(len(hubs))]
		pts := make([]traj.Point, 4+rng.Intn(16))
		x, y := h[0]+rng.NormFloat64()*5, h[1]+rng.NormFloat64()*5
		for j := range pts {
			pts[j] = traj.P(x, y, float64(j)*30)
			x += rng.NormFloat64() * 3
			y += rng.NormFloat64() * 3
		}
		db[i] = traj.New(i, pts)
	}
	return db
}

func testOptions() Options {
	return Options{LeafSize: 5, PivotCandidates: 24, Seed: 1}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := testDB(rng, 120)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != len(db) {
		t.Errorf("Size = %d, want %d", tree.Size(), len(db))
	}
	if tree.Height() < 2 {
		t.Errorf("tree did not branch: height %d", tree.Height())
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	single := traj.New(0, []traj.Point{traj.P(0, 0, 0)})
	if _, err := New([]*traj.Trajectory{single}, testOptions()); err == nil {
		t.Error("1-point trajectory accepted")
	}
	a := traj.FromXY(7, 0, 0, 1, 1)
	b := traj.FromXY(7, 2, 2, 3, 3)
	if _, err := New([]*traj.Trajectory{a, b}, testOptions()); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tree, err := New(nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res, _, _, _ := tree.SearchKNN(traj.FromXY(0, 0, 0, 1, 1), 5, nil, nil); len(res) != 0 {
		t.Errorf("kNN on empty tree returned %d results", len(res))
	}
}

// The central correctness property (Section IV-G: "The k-NN answer set is
// exact and optimal"): TrajTree's answers match a brute-force scan.
func TestKNNExactlyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	db := testDB(rng, 150)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 25; it++ {
		q := testDB(rng, 1)[0]
		q.ID = 10_000 + it
		for _, k := range []int{1, 5, 10} {
			got, _, _, _ := tree.SearchKNN(q, k, nil, nil)
			want := referenceKNN(tree.root.members, q, k, tree.opt.Cumulative)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				// Compare by distance (ties may reorder IDs).
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
					t.Fatalf("k=%d rank %d: dist %v, want %v (IDs %d vs %d)",
						k, i, got[i].Dist, want[i].Dist, got[i].Traj.ID, want[i].Traj.ID)
				}
			}
		}
	}
}

func TestKNNCumulativeMode(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	db := testDB(rng, 80)
	opt := testOptions()
	opt.Cumulative = true
	tree, err := New(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := testDB(rng, 1)[0]
	q.ID = 9999
	got, _, _, _ := tree.SearchKNN(q, 5, nil, nil)
	want := referenceKNN(tree.root.members, q, 5, tree.opt.Cumulative)
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
	// Cumulative distances must agree with core.Distance.
	if d := core.Distance(q, got[0].Traj); math.Abs(d-got[0].Dist) > 1e-9 {
		t.Errorf("result dist %v != core.Distance %v", got[0].Dist, d)
	}
}

func TestKNNPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	db := testDB(rng, 200)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := testDB(rng, 1)[0]
	q.ID = 9999
	_, st, _, _ := tree.SearchKNN(q, 5, nil, nil)
	if st.DistanceCalls >= len(db) {
		t.Errorf("no pruning: %d distance calls for %d trajectories", st.DistanceCalls, len(db))
	}
	if st.NodesPruned == 0 {
		t.Error("no nodes pruned")
	}
}

func TestKNNParallelBuildSameAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	db := testDB(rng, 120)
	opt := testOptions()
	opt.Parallel = true
	par, err := New(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	q := testDB(rng, 1)[0]
	q.ID = 9999
	got, _, _, _ := par.SearchKNN(q, 8, nil, nil)
	want := referenceKNN(par.root.members, q, 8, par.opt.Cumulative)
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

// TestBuildSlots pins the parallel build's concurrency to the
// scheduler's Ps, not the machine's CPUs: a single P is shared.
func TestBuildSlots(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := buildSlots(); got != procs {
			t.Errorf("GOMAXPROCS %d: %d slots, want %d", procs, got, procs)
		}
	}
}

func TestKNNKLargerThanDB(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := testDB(rng, 12)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := testDB(rng, 1)[0]
	q.ID = 9999
	got, _, _, _ := tree.SearchKNN(q, 50, nil, nil)
	if len(got) != len(db) {
		t.Errorf("k>n returned %d results, want %d", len(got), len(db))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Error("results not sorted")
		}
	}
}

func TestInsertThenQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	db := testDB(rng, 60)
	tree, err := New(db[:40], testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range db[40:] {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Size() != 60 {
		t.Fatalf("Size = %d, want 60", tree.Size())
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	q := testDB(rng, 1)[0]
	q.ID = 9999
	got, _, _, _ := tree.SearchKNN(q, 10, nil, nil)
	want := referenceKNN(tree.root.members, q, 10, tree.opt.Cumulative)
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
			t.Fatalf("after inserts, rank %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := testDB(rng, 20)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(db[0]); err == nil {
		t.Error("duplicate insert accepted")
	}
}

func TestInsertIntoEmpty(t *testing.T) {
	tree, err := New(nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := traj.FromXY(1, 0, 0, 5, 5)
	if err := tree.Insert(tr); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 1 {
		t.Errorf("Size = %d", tree.Size())
	}
	got, _, _, _ := tree.SearchKNN(traj.FromXY(2, 0, 0, 5, 6), 1, nil, nil)
	if len(got) != 1 || got[0].Traj.ID != 1 {
		t.Errorf("kNN after insert = %v", got)
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	db := testDB(rng, 50)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Delete(db[7].ID) {
		t.Fatal("delete reported missing")
	}
	if tree.Delete(db[7].ID) {
		t.Error("double delete succeeded")
	}
	if tree.Size() != 49 {
		t.Errorf("Size = %d, want 49", tree.Size())
	}
	if tree.Lookup(db[7].ID) != nil {
		t.Error("deleted trajectory still found")
	}
	// Deleted trajectory never appears in results.
	q := testDB(rng, 1)[0]
	q.ID = 9999
	got, _, _, _ := tree.SearchKNN(q, 50, nil, nil)
	for _, r := range got {
		if r.Traj.ID == db[7].ID {
			t.Error("deleted trajectory returned by kNN")
		}
	}
	if len(got) != 49 {
		t.Errorf("kNN returned %d results, want 49", len(got))
	}
}

func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	db := testDB(rng, 100)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := testDB(rand.New(rand.NewSource(84)), 16)
	done := make(chan []Result, len(queries))
	for _, q := range queries {
		q := q
		q.ID += 50_000
		go func() {
			res, _, _, _ := tree.SearchKNN(q, 5, nil, nil)
			done <- res
		}()
	}
	for range queries {
		res := <-done
		if len(res) != 5 {
			t.Errorf("concurrent query returned %d results", len(res))
		}
	}
}

// memberOrder returns the member IDs of every node in depth-first order,
// a fingerprint of the tree's shape and of every partition decision.
func memberOrder(n *node, out []int) []int {
	if n == nil {
		return out
	}
	out = append(out, -len(n.members)-1) // node boundary
	for _, m := range n.members {
		out = append(out, m.ID)
	}
	for _, c := range n.children {
		out = memberOrder(c, out)
	}
	return out
}

// TestBuildDeterministic pins that a build is a function of its input
// and seed: two sequential same-seed builds place every member in the
// same node at the same position. It depends on tbox.Seq.ExpansionCost
// adding in a fixed order: near-ties between children must not fall
// either way.
func TestBuildDeterministic(t *testing.T) {
	build := func() *Tree {
		tree, err := New(testDB(rand.New(rand.NewSource(211)), 400), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	a, b := build(), build()
	if a.String() != b.String() {
		t.Fatalf("same-seed builds differ: %v vs %v", a, b)
	}
	if !slices.Equal(memberOrder(a.root, nil), memberOrder(b.root, nil)) {
		t.Fatal("same-seed builds place members differently")
	}
}
