package trajtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"trajmatch/internal/synth"
)

// buildGolden holds the sha256 of Tree.Save for each build case of
// TestBuildBytesGolden. The values were last re-captured for arena format
// 4, and for nothing else: each new file is its format-3 predecessor with
// the lens and bbox sections removed, every node box's MinL dropped from
// nboxes, the insert count dropped from every node record, and the size
// and root dropped from the meta header's extra, every other section
// byte for byte. Before that they were re-captured when the tree options
// lost RebuildRatio, which moved only the meta header and the churned
// tree's four tree sections (with its tree, treeGolden); when arena
// format 3 dropped the overlay sections, across which treeGolden passed
// unmodified; and they were first captured from the build path as it was
// before the pivot scan was bounded and screened and the box growth loop
// flattened: equality here is what proves those changes build the same
// tree. The values are a read-only fixture: a deliberate change to the
// tree a build makes re-captures them outside the tree, from the code
// that defines the new build, and says so.
var buildGolden = map[string]string{
	"taxi2k/serial":           "d610976433bd8308c8be0a23c7a3f89230928dffa34a96a4f0dd415303ad63e2",
	"taxi2k/parallel":         "01bf13b4570f81e525730a0659eb7099a7510f5af4b4de77606829064f93a270",
	"taxi2k/parallel/rebuilt": "01bf13b4570f81e525730a0659eb7099a7510f5af4b4de77606829064f93a270",
	"churned":                 "d361de3bc862b38cdb9426d85d803bd48cca6afe8d9156b9fd7657a16ea61ce3",
	"churned/rebuilt":         "72837a361c8dd8d36b443c427fada32eb2a482f1549efb8a46b96862f3053b4d",
	"asl":                     "6912476dbe5a9f942793de51130928a5bdf9398ee6462019bc6344d2ce49994d",
}

// treeGolden holds the sha256 of treeDigest for each build case of
// TestBuildBytesGolden. Unlike the file bytes, the digest does not move
// with the snapshot format, so it is what proves a format change saves
// and builds the same trees. A read-only fixture, like buildGolden. The
// values were last re-captured when tbox.Seq lost MinL and its insert
// count, which the digest no longer hashes: they are the digests the
// code before that change gives under the same digest, so the trees are
// unchanged. Before that, only "churned" was re-captured, when Delete
// began to maintain the tree: the churn's deletes drop the nodes they
// empty and refit the boxes they make stale.
var treeGolden = map[string]string{
	"taxi2k/serial":           "476d602a8ef208e6e7007ac4a4bb17a820629ea50bbd8150434798df7a34f7d7",
	"taxi2k/parallel":         "e3026746349e48ba3c2159c5ba8f8ec60b8bfc231c78663a8b298f8674834145",
	"taxi2k/parallel/rebuilt": "e3026746349e48ba3c2159c5ba8f8ec60b8bfc231c78663a8b298f8674834145",
	"churned":                 "6e099ddf66ef0d572a1c448874c10c85cf0f2e342c69da70312f92d8a45362a5",
	"churned/rebuilt":         "e5262ae7eae54b20a54e94aed80e7227393f009d228834f08cc21c73ae58318e",
	"asl":                     "a432b97b1dbb15244467da321f8537841df970644fd3e9ae7c61525a1d33ed06",
}

// goldenTrees hands each build case to visit in turn: serial and
// parallel bulk loads of 2 000 taxi trips, the parallel one again after
// a rebuild, the work-counter tree after churn (whose inserts split
// leaves through partition) before and after a rebuild, and 216 ASL
// gestures.
func goldenTrees(t *testing.T, visit func(name string, tree *Tree)) {
	t.Helper()
	build := func(name string, tree *Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		visit(name, tree)
	}
	taxi := taxiTrips(2000, 1, 0)
	serial, err := New(taxi, Options{Seed: 1})
	build("taxi2k/serial", serial, err)
	parallel, err := New(taxi, Options{Seed: 1, Parallel: true})
	build("taxi2k/parallel", parallel, err)
	build("taxi2k/parallel/rebuilt", parallel, parallel.Rebuild())

	churned, _ := countersTree(t)
	churn(t, churned)
	build("churned", churned, nil)
	build("churned/rebuilt", churned, churned.Rebuild())

	asl, err := New(synth.ASL(synth.ASLConfig{NumClasses: 24, Instances: 9, Points: 40, Jitter: 0.04, Seed: 2}), Options{Seed: 1})
	build("asl", asl, err)
}

// TestBuildBytesGolden pins the bytes of the trees New, Rebuild and the
// updates — Insert-time leaf splits, Delete's drops and refits — make
// (goldenTrees).
func TestBuildBytesGolden(t *testing.T) {
	goldenTrees(t, func(name string, tree *Tree) {
		sum := sha256.Sum256(saveBytes(t, tree))
		if got, want := hex.EncodeToString(sum[:]), buildGolden[name]; got != want {
			t.Errorf("%s: save sha256 %s, golden %s", name, got, want)
		}
	})
}

// TestBuildTreeGolden pins the same trees independently of any file
// format: every node's box bits, maxLen bits, member IDs in order and
// children in order. Each tree must also
// come back from a save and a heap load with the same digest.
func TestBuildTreeGolden(t *testing.T) {
	goldenTrees(t, func(name string, tree *Tree) {
		if got, want := treeDigest(tree), treeGolden[name]; got != want {
			t.Errorf("%s: tree digest %s, golden %s", name, got, want)
		}
		if got, want := treeDigest(loadHeap(t, tree)), treeGolden[name]; got != want {
			t.Errorf("%s: loaded tree digest %s, golden %s", name, got, want)
		}
	})
}

// treeDigest hashes the tree's size and a pre-order walk of its nodes.
func treeDigest(tree *Tree) string {
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	word(uint64(tree.Size()))
	var walk func(n *node)
	walk = func(n *node) {
		word(uint64(n.seq.Len()))
		for i := 0; i < n.seq.Len(); i++ {
			r := n.seq.Rect(i)
			for _, v := range []float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
				word(math.Float64bits(v))
			}
		}
		word(math.Float64bits(n.maxLen))
		word(uint64(len(n.members)))
		for _, m := range n.members {
			word(uint64(m.ID))
		}
		word(uint64(len(n.children)))
		for _, c := range n.children {
			walk(c)
		}
	}
	if tree.root != nil {
		walk(tree.root)
	}
	return hex.EncodeToString(h.Sum(nil))
}
