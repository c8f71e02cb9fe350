package trajtree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
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

// nodeCount returns the number of nodes under n, n included.
func nodeCount(n *node) int {
	c := 1
	for _, ch := range n.children {
		c += nodeCount(ch)
	}
	return c
}

// TestMaintainedTreeNoEmptyNodes replaces every member of a tree, a
// quarter at a time, and then deletes them all. After every step the
// invariants hold (no non-root node is empty), every member lies in the
// tBoxSeq of every node on its path, refits have run, and every search
// kind answers exactly. Deleting the last member leaves an empty root
// that takes inserts again.
func TestMaintainedTreeNoEmptyNodes(t *testing.T) {
	const n = 400
	tree, err := New(taxiTrips(n, 1, 0), Options{Seed: 1, LeafSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	built := nodeCount(tree.root)
	fresh := taxiTrips(n, 31, 2_000_000)
	queries := taxiTrips(4, 7920, 5_000_000)
	refits := 0
	for q := 0; q < 4; q++ {
		ids := make([]int, n/4)
		for i := range ids {
			ids[i] = q*n/4 + i
		}
		before := map[*node]*tbox.Seq{}
		var keep func(n *node)
		keep = func(n *node) {
			before[n] = n.seq
			for _, c := range n.children {
				keep(c)
			}
		}
		keep(tree.root)
		replace(t, tree, ids, fresh[q*n/4:(q+1)*n/4])
		label := fmt.Sprintf("%d%% replaced", 25*(q+1))
		if err := tree.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var walk func(n *node)
		walk = func(n *node) {
			if s, ok := before[n]; ok && s != n.seq {
				refits++
			}
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
	if refits == 0 {
		t.Fatal("no node was refit")
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

// TestRefitOfUntouchedNodeIsItsSeq pins what makes a refit change only
// what deletes made stale: on a built tree, and on one grown by inserts
// (which extend the boxes on their path and split leaves), tbox.Build over
// any node's members — the pivot first — reproduces the node's tBoxSeq
// bit for bit.
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

// TestRefitSchedule pins when Delete refits and what a refit changes. A
// leaf keeps its tBoxSeq and maxLen until the deletes since its last fit
// exceed refitShare of its members; the refit then fits both to the
// members left, so deleting the longest member first shrinks maxLen. The
// root is never refit: half the tree deleted leaves its summary as built.
func TestRefitSchedule(t *testing.T) {
	tree, err := New(taxiTrips(300, 1, 0), Options{Seed: 1, LeafSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	var leaf *node
	var find func(n *node)
	find = func(n *node) {
		if leaf != nil {
			return
		}
		if n != tree.root && n.leaf() && len(n.members) >= 5 {
			leaf = n
		}
		for _, c := range n.children {
			find(c)
		}
	}
	find(tree.root)
	if leaf == nil {
		t.Fatal("no leaf of five or more members")
	}
	order := slices.Clone(leaf.members)
	sort.Slice(order, func(i, j int) bool { return order[i].Length() > order[j].Length() })
	dels, refits := 0, 0
	for _, m := range order[:len(order)-1] {
		seq, maxLen := leaf.seq, leaf.maxLen
		if !tree.Delete(m.ID) {
			t.Fatalf("delete %d: not found", m.ID)
		}
		dels++
		due := float64(dels) > refitShare*float64(len(leaf.members))
		if refit := leaf.seq != seq; refit != due {
			t.Fatalf("%d deletes since the last fit over %d members: refit %v, want %v", dels, len(leaf.members), refit, due)
		}
		if !due {
			if leaf.maxLen != maxLen {
				t.Fatalf("maxLen %v changed to %v without a refit", maxLen, leaf.maxLen)
			}
			continue
		}
		dels, refits = 0, refits+1
		if want := maxLength(leaf.members); leaf.maxLen != want || want >= maxLen {
			t.Fatalf("refit leaf: maxLen %v, want %v below the stale %v", leaf.maxLen, want, maxLen)
		}
		for _, m := range leaf.members {
			if !leaf.seq.Contains(m) {
				t.Fatalf("member %d outside the refit boxes", m.ID)
			}
		}
	}
	if refits == 0 {
		t.Fatal("the leaf was never refit")
	}

	rootSeq, rootLen := tree.root.seq, tree.root.maxLen
	for _, m := range tree.All()[:tree.Size()/2] {
		if !tree.Delete(m.ID) {
			t.Fatalf("delete %d: not found", m.ID)
		}
	}
	if tree.root.seq != rootSeq || tree.root.maxLen != rootLen {
		t.Fatal("the root was refit")
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRefitBudget pins the cap on one Delete's refit work: the members
// of the nodes a Delete refits sum to at most refitBudget, so a node
// over the budget keeps its summary however many of its members go. The
// tree has two pivots per node, so a root child holds a few thousand
// members; the deletes fall below the largest one, which comes due while
// it is still over the budget.
func TestRefitBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree, err := New(testDB(rng, 6000), Options{Seed: 1, LeafSize: 256, MaxFanout: 2, PivotCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	big := tree.root.children[0]
	for _, c := range tree.root.children {
		if len(c.members) > len(big.members) {
			big = c
		}
	}
	if len(big.members) <= refitBudget {
		t.Fatalf("largest root child holds %d members, not over the budget of %d", len(big.members), refitBudget)
	}
	type fit struct {
		n   *node
		seq *tbox.Seq
	}
	var fits []fit
	var walk func(n *node)
	walk = func(n *node) {
		fits = append(fits, fit{n, n.seq})
		for _, c := range n.children {
			walk(c)
		}
	}
	refits, capped := 0, false
	victims := slices.Clone(big.members)
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	for _, m := range victims[:len(victims)/3] {
		fits = fits[:0]
		walk(tree.root)
		if !tree.Delete(m.ID) {
			t.Fatalf("delete %d: not found", m.ID)
		}
		spent := 0
		for _, f := range fits {
			if f.n.seq != f.seq {
				spent += len(f.n.members)
				refits++
			}
		}
		if spent > refitBudget {
			t.Fatalf("delete %d refit %d members, over the budget of %d", m.ID, spent, refitBudget)
		}
		if len(big.members) > refitBudget && float64(big.dels) > refitShare*float64(len(big.members)) {
			capped = true
		}
	}
	if !capped || refits == 0 {
		t.Fatalf("large node due over the budget: %v; %d refits; want true and some", capped, refits)
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
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
