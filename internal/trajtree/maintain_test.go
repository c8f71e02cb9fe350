package trajtree

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"trajmatch/internal/core"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

func saveBytes(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replace swaps member IDs[i] of tree for with[i], one Delete and one
// Insert at a time, as a workload that replaces its corpus does.
func replace(t *testing.T, tree *Tree, ids []int, with []*traj.Trajectory) {
	t.Helper()
	for i, id := range ids {
		if !tree.Delete(id) {
			t.Fatalf("delete %d: not found", id)
		}
		if err := tree.Insert(with[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// exactEverywhere checks knn, range, subknn and candidate-restricted knn
// against brute force over the tree's current members.
func exactEverywhere(t *testing.T, label string, tree *Tree, queries []*traj.Trajectory) {
	t.Helper()
	all := tree.All()
	ids := make([]int, len(all))
	for i, tr := range all {
		ids[i] = tr.ID
	}
	for _, q := range queries {
		want := referenceKNN(tree.root.members, q, 8, tree.opt.Cumulative)
		got, _, _, err := tree.SearchKNN(q, 8, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label+" knn", got, want)
		got, _, _, err = tree.SearchKNNIn(q, ids, 8, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label+" knn-in", got, want)
		got, _, _, err = tree.SearchRange(q, want[5].Dist, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label+" range", got, referenceRange(all, q, want[5].Dist))

		ref := make([]float64, len(all))
		for i, tr := range all {
			ref[i] = core.SubDistance(q, tr)
		}
		sort.Float64s(ref)
		got, _, _, err = tree.SearchSub(q, 5, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if math.Abs(r.Dist-ref[i]) > 1e-9*(1+ref[i]) {
				t.Fatalf("%s subknn rank %d: dist %v, brute %v", label, i, r.Dist, ref[i])
			}
		}
	}
}

// summary is a copy of a node's tBoxSeq rects and maxLen.
type summary struct {
	rects  []float64
	maxLen float64
}

// summaries copies the summary of every node under n, n included.
func summaries(n *node) map[*node]summary {
	out := map[*node]summary{}
	var walk func(n *node)
	walk = func(n *node) {
		out[n] = summary{slices.Clone(n.seq.Rects()), n.maxLen}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// nodeCount returns the number of nodes under n, n included.
func nodeCount(n *node) int {
	c := 1
	for _, ch := range n.children {
		c += nodeCount(ch)
	}
	return c
}

// TestMaintainedTreeNoEmptyNodes replaces every member of a tree, a
// quarter at a time, and then deletes them all. No Delete changes the
// tBoxSeq or maxLen of a node it leaves standing, and after every step
// the invariants hold (no non-root node is empty), every member lies in
// the tBoxSeq of every node on its path, and every search kind answers
// exactly. Deleting the last member leaves an empty root that takes
// inserts again.
func TestMaintainedTreeNoEmptyNodes(t *testing.T) {
	const n = 400
	tree, err := New(taxiTrips(n, 1, 0), Options{Seed: 1, LeafSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	built := nodeCount(tree.root)
	fresh := taxiTrips(n, 31, 2_000_000)
	queries := taxiTrips(4, 7920, 5_000_000)
	for q := 0; q < 4; q++ {
		for i := q * n / 4; i < (q+1)*n/4; i++ {
			before := summaries(tree.root)
			if !tree.Delete(i) {
				t.Fatalf("delete %d: not found", i)
			}
			for nd, s := range summaries(tree.root) {
				if b := before[nd]; b.maxLen != s.maxLen || !slices.Equal(b.rects, s.rects) {
					t.Fatalf("delete %d changed the summary of a node it left standing", i)
				}
			}
			if err := tree.Insert(fresh[i]); err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("%d%% replaced", 25*(q+1))
		if err := tree.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var walk func(n *node)
		walk = func(n *node) {
			for _, m := range n.members {
				if !n.seq.Contains(m) {
					t.Fatalf("%s: member %d outside its node's boxes", label, m.ID)
				}
			}
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(tree.root)
		exactEverywhere(t, label, tree, queries)
	}
	// The fully replaced tree has no more nodes than a built one would
	// hold at twice the size: emptied nodes went.
	if got := nodeCount(tree.root); got > 2*built {
		t.Fatalf("%d nodes after a full replace, built with %d", got, built)
	}
	for _, m := range tree.All() {
		if !tree.Delete(m.ID) {
			t.Fatalf("delete %d: not found", m.ID)
		}
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 0 || len(tree.root.children) != 0 || len(tree.root.members) != 0 {
		t.Fatalf("emptied tree: size %d, root with %d children", tree.Size(), len(tree.root.children))
	}
	for _, tr := range taxiTrips(30, 4, 0) {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	exactEverywhere(t, "regrown", tree, queries)
}

// TestReplacedTreeStartsFreshKernels pins why Delete leaves the boxes on
// its path as they were: a 2 000-trip taxi tree whose every member is
// replaced by a Delete and an Insert, and never rebuilt, starts exactly
// the kernels (DistanceCalls − ScreenRejects) a fresh build over the same
// members starts, query by query, for the 210 queries of the bench
// request set as unbounded 10-NN searches. The descent starts kernels in
// member-bound order whatever the node boxes look like, so stale boxes
// cost bound calls, not kernels; a descent for which they cost kernels
// again fails here.
func TestReplacedTreeStartsFreshKernels(t *testing.T) {
	opt := Options{Seed: 1, Parallel: true}
	tree, err := New(taxiTrips(2000, 1, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, tree.Size())
	for i := range ids {
		ids[i] = i
	}
	replace(t, tree, ids, taxiTrips(len(ids), 32, 3_000_000))
	heads := tree.All()
	for i, m := range heads {
		heads[i] = traj.New(m.ID, m.Points)
	}
	fresh, err := New(heads, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range taxiTrips(210, 7920, 5_000_000) {
		_, a, _, err := tree.SearchKNN(q, 10, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, b, _, err := fresh.SearchKNN(q, 10, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ka, kb := a.DistanceCalls-a.ScreenRejects, b.DistanceCalls-b.ScreenRejects; ka != kb {
			t.Errorf("query %d: %d kernel starts on the replaced tree, %d on a fresh build", i, ka, kb)
		}
	}
}

// TestRefitOfUntouchedNodeIsItsSeq pins what Insert keeps of a build: on
// a built tree, and on one grown by inserts (which extend the boxes on
// their path and split leaves), every node's tBoxSeq is tbox.Build over
// its member list, bit for bit. So an insert extends a node's boxes as a
// build over the longer list would, and the member list carries the
// order the boxes were built in: tbox.Seq.Insert depends on it.
func TestRefitOfUntouchedNodeIsItsSeq(t *testing.T) {
	tree, err := New(taxiTrips(300, 1, 0), Options{Seed: 1, LeafSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		var walk func(n *node)
		walk = func(n *node) {
			if s := tbox.Build(n.members, tree.opt.MaxBoxes); !slices.Equal(s.Rects(), n.seq.Rects()) {
				t.Fatalf("%s: tbox.Build over a node's %d members differs from its seq", label, len(n.members))
			}
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(tree.root)
	}
	check("built")
	for _, tr := range taxiTrips(60, 2, 1_000) {
		if err := tree.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	check("grown")
}

// checkSlabs verifies that every leaf's slab holds its members' bounding
// boxes and lengths, in member order, and that no internal node has one.
func checkSlabs(t *testing.T, label string, tree *Tree) {
	t.Helper()
	if tree.root == nil {
		return
	}
	var walk func(n *node)
	walk = func(n *node) {
		if !n.leaf() {
			if n.slab != nil {
				t.Fatalf("%s: internal node carries a slab of %d values", label, len(n.slab))
			}
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		if len(n.slab) != slabStride*len(n.members) {
			t.Fatalf("%s: leaf slab of %d values for %d members", label, len(n.slab), len(n.members))
		}
		for i, m := range n.members {
			s := m.Summary()
			want := []float64{s.BBox[0], s.BBox[1], s.BBox[2], s.BBox[3], s.Length[0]}
			if got := n.slab[slabStride*i : slabStride*(i+1)]; !slices.Equal(got, want) {
				t.Fatalf("%s: leaf record %d is %v, member %d has %v", label, i, got, m.ID, want)
			}
		}
	}
	walk(tree.root)
}

// TestLeafSlabsMatchMembers follows the leaves' slabs through everything
// that makes or changes a leaf: a parallel build, inserts into an empty
// tree up to a split of its root leaf, deletes down to emptied and
// dropped leaves, a re-pack, both loaders, and updates to a loaded tree,
// whose slabs are capped windows of one table.
func TestLeafSlabsMatchMembers(t *testing.T) {
	opt := Options{Seed: 1, LeafSize: 4, Parallel: true}
	db := taxiTrips(300, 3, 0)
	tree, err := New(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkSlabs(t, "built", tree)

	grown, err := New(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range taxiTrips(12, 4, 10_000) {
		if err := grown.Insert(tr); err != nil {
			t.Fatal(err)
		}
		checkSlabs(t, fmt.Sprintf("insert %d into an empty tree", i), grown)
	}
	if grown.root.leaf() {
		t.Fatal("12 inserts at leaf size 4 never split the root leaf")
	}

	// Delete whole leaves, so they empty and go, and every third member
	// elsewhere, so others shrink from the middle.
	var leaves []*node
	var collect func(n *node)
	collect = func(n *node) {
		if n.leaf() {
			leaves = append(leaves, n)
		}
		for _, c := range n.children {
			collect(c)
		}
	}
	collect(tree.root)
	var ids []int
	for _, l := range leaves[:3] {
		for _, m := range l.members {
			ids = append(ids, m.ID)
		}
	}
	for id := 1; id < len(db); id += 3 {
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	before := nodeCount(tree.root)
	for _, id := range ids {
		if !tree.Delete(id) {
			t.Fatalf("delete %d: not found", id)
		}
		checkSlabs(t, fmt.Sprintf("delete %d", id), tree)
	}
	if nodeCount(tree.root) >= before {
		t.Fatalf("deletes emptied no leaf: %d nodes, %d before", nodeCount(tree.root), before)
	}

	for label, loaded := range map[string]*Tree{"heap-loaded": loadHeap(t, tree), "arena-loaded": loadArena(t, tree)} {
		checkSlabs(t, label, loaded)
		all := loaded.All()
		for i, tr := range taxiTrips(20, 5, 20_000) {
			if !loaded.Delete(all[2*i].ID) {
				t.Fatalf("%s: delete %d: not found", label, all[2*i].ID)
			}
			if err := loaded.Insert(tr); err != nil {
				t.Fatal(err)
			}
			checkSlabs(t, fmt.Sprintf("%s, update %d", label, i), loaded)
		}
	}

	if err := tree.Rebuild(); err != nil {
		t.Fatal(err)
	}
	checkSlabs(t, "re-packed", tree)
}
