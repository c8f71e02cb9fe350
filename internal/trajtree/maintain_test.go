package trajtree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"trajmatch/internal/arena"
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
			s := tbox.Build(n.members, tree.opt.MaxBoxes)
			minL := make([]float64, s.Len())
			want := make([]float64, n.seq.Len())
			for i := range minL {
				minL[i] = s.MinLen(i)
			}
			for i := range want {
				want[i] = n.seq.MinLen(i)
			}
			if !slices.Equal(s.Rects(), n.seq.Rects()) || !slices.Equal(minL, want) || s.Count() != n.seq.Count() {
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

// TestLoadFormat3WithEmptyNodes loads a file saved before Delete dropped
// emptied nodes: testdata/churned-format3.arena is a 100-trip taxi tree
// (LeafSize 4, MaxBoxes 8) with every member replaced by Delete and Insert
// and no rebuild, and its meta still records the since-removed
// RebuildRatio option. Both readers must load it with its empty nodes
// dropped, and it must answer the 140 cold-search k-NN queries exactly as
// the same history replayed on today's maintained tree does, and as
// brute force does.
func TestLoadFormat3WithEmptyNodes(t *testing.T) {
	path := filepath.Join("testdata", "churned-format3.arena")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := arena.Decode(slices.Clone(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap.Extra, []byte(`"RebuildRatio":-1`)) {
		t.Fatalf("meta %s does not record RebuildRatio", snap.Extra)
	}
	fileNodes, empty := len(snap.Tree.NMeta)/arena.NMetaStride, 0
	for i := 0; i < fileNodes; i++ {
		if snap.Tree.NMeta[i*arena.NMetaStride+6] == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("the file holds no empty node")
	}

	opt := Options{Seed: 1, LeafSize: 4, MaxBoxes: 8}
	live, err := New(taxiTrips(100, 1, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = i
	}
	replace(t, live, ids, taxiTrips(100, 31, 3_000_000))

	heap, _, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	mapped, _, err := LoadArena(path)
	if err != nil {
		t.Fatal(err)
	}
	queries := taxiTrips(210, 7920, 5_000_000)[:140]
	for label, tree := range map[string]*Tree{"Load": heap, "LoadArena": mapped} {
		if got := nodeCount(tree.root); got != fileNodes-empty {
			t.Fatalf("%s: %d nodes, want the file's %d less its %d empty ones", label, got, fileNodes, empty)
		}
		if tree.Options() != live.Options() || tree.Size() != live.Size() {
			t.Fatalf("%s: options %+v size %d, want %+v size %d", label, tree.Options(), tree.Size(), live.Options(), live.Size())
		}
		for i, q := range queries {
			got, _, _, err := tree.SearchKNN(q, 10, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _, _, err := live.SearchKNN(q, 10, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("%s q%d against the maintained tree", label, i), got, want)
			sameResults(t, fmt.Sprintf("%s q%d against brute force", label, i), got, referenceKNN(tree.root.members, q, 10, false))
		}
	}
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
