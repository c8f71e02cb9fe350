package trajtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trajmatch/internal/core"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

// boundCorpora are the two corpora the bounds are checked on: taxi trips
// (spread over a city, a dozen points each) and ASL gestures (everything
// overlapping in one 100×100 workspace, 40 points each), each with a few
// held-out queries — among them a two-point one, one with repeated points
// and a stationary one.
func boundCorpora() map[string][2][]*traj.Trajectory {
	taxi := taxiTrips(330, 1, 0)
	asl := synth.ASL(synth.ASLConfig{NumClasses: 10, Instances: 9, Points: 40, Jitter: 0.04, Seed: 2})
	out := map[string][2][]*traj.Trajectory{}
	for name, all := range map[string][]*traj.Trajectory{"taxi": taxi, "asl": asl} {
		var db, qs []*traj.Trajectory
		for i, tr := range all {
			if i%11 == 3 && len(qs) < 5 {
				qs = append(qs, tr)
			} else {
				db = append(db, tr)
			}
		}
		p := qs[0].Points
		qs = append(qs,
			traj.New(7_000_001, []traj.Point{p[0], p[len(p)-1]}),
			traj.New(7_000_002, []traj.Point{p[0], p[0], p[1], p[1], p[1], p[2]}),
			traj.New(7_000_003, []traj.Point{p[1], p[1], p[1]}))
		out[name] = [2][]*traj.Trajectory{db, qs}
	}
	return out
}

// TestBoundsAdmissibleOnTree checks every bound the searches prune with
// against the exact distances, on real trees — built, then grown by
// inserts so node boxes have been extended in place and an overlay
// exists; and built, then maintained through the replacement of every
// member (each deleted, and a shifted copy inserted), so emptied nodes
// were dropped and the boxes left are stale — under both the averaged
// and the cumulative distance:
//
//	(a) node screen ≤ LowerBound(q, seq) ≤ raw EDwP(q, T) for every T
//	    under the node, and the normalised node bound ≤ the tree's
//	    distance;
//	(b) query side + member side over the member's own summary ≤ raw
//	    EDwP, and the member screen never rejects a member at a limit it
//	    meets but does reject it below its two-sided screen — inserted
//	    members included, which some query must see rejected;
//	(c) the raw query-side screen, over a node's rects and over a
//	    member's, ≤ EDwPsub(q, T) — what lets SearchSub use the descent.
func TestBoundsAdmissibleOnTree(t *testing.T) {
	slack := func(d float64) float64 { return 1e-9 * (1 + d) }
	inf := math.Inf(1)
	for _, a := range admissibilityTrees(t) {
		name, tree := a.name, a.tree
		var scr core.SegScreen
		insertedRejected := 0
		for _, q := range a.queries {
			scr.Reset(q)
			qLen := q.Length()
			raw, sub := map[int]float64{}, map[int]float64{}
			for _, m := range tree.root.members {
				raw[m.ID], sub[m.ID] = core.Distance(q, m), core.SubDistance(q, m)
				d, _ := tree.DistanceBetween(q, m, inf, nil)
				if memberRejected(tree, &scr, false, qLen, m, d) {
					t.Fatalf("%s: member %d rejected at its own distance %v", name, m.ID, d)
				}
				if memberRejected(tree, &scr, true, qLen, m, sub[m.ID]) {
					t.Fatalf("%s: member %d rejected at its own EDwPsub %v", name, m.ID, sub[m.ID])
				}
				s := m.Summary()
				qs := core.ScreenLowerBound(&scr, s.Boxes, inf)
				both := core.ScreenMemberSide(&scr, s.Boxes, s.BoxLens, qs, inf)
				if both > raw[m.ID]+slack(raw[m.ID]) {
					t.Fatalf("%s: member %d: two-sided screen %v (query side %v) exceeds EDwP %v", name, m.ID, both, qs, raw[m.ID])
				}
				if qs > sub[m.ID]+slack(sub[m.ID]) {
					t.Fatalf("%s: member %d: query-side screen %v exceeds EDwPsub %v", name, m.ID, qs, sub[m.ID])
				}
				if both <= 0 {
					continue
				}
				if !memberRejected(tree, &scr, false, qLen, m, both/2/tree.denom(false, qLen, m.Length())) {
					t.Fatalf("%s: member %d kept at half its two-sided screen %v", name, m.ID, both)
				}
				if _, ok := tree.arenaIndex(m); !ok {
					insertedRejected++
				}
			}
			var walk func(n *node)
			walk = func(n *node) {
				screen := core.ScreenLowerBound(&scr, n.seq.Rects(), inf)
				lb := core.LowerBound(q, n.seq)
				if screen > lb+slack(lb) {
					t.Fatalf("%s: node screen %v exceeds LowerBound %v", name, screen, lb)
				}
				nb := nodeBound(&scr, tree.denom(false, qLen, n.maxLen), n, inf)
				for _, m := range n.members {
					if lb > raw[m.ID]+slack(raw[m.ID]) {
						t.Fatalf("%s: LowerBound %v exceeds EDwP %v of member %d", name, lb, raw[m.ID], m.ID)
					}
					if screen > sub[m.ID]+slack(sub[m.ID]) {
						t.Fatalf("%s: node screen %v exceeds EDwPsub %v of member %d", name, screen, sub[m.ID], m.ID)
					}
					if d, _ := tree.DistanceBetween(q, m, inf, nil); nb > d+slack(d) {
						t.Fatalf("%s: node bound %v exceeds distance %v of member %d", name, nb, d, m.ID)
					}
				}
				for _, ch := range n.children {
					walk(ch)
				}
			}
			walk(tree.root)
		}
		if insertedRejected == 0 {
			t.Fatalf("%s: no inserted member was ever screened", name)
		}
	}
}

// memberRejected reports whether either tier of the descent's member
// screen rejects m at limit: the bounding box the descent queues a member
// at, or the box sequence it screens the member at when it first takes
// it off the queue.
func memberRejected(tree *Tree, scr *core.SegScreen, sub bool, qLen float64, m *traj.Trajectory, limit float64) bool {
	s := m.Summary()
	lim := memberLimit(limit, tree.denom(sub, qLen, m.Length()))
	return memberScreen(scr, sub, s.BBox, s.Length, lim) > lim || memberScreen(scr, sub, s.Boxes, s.BoxLens, lim) > lim
}

// admissibilityTree is one tree TestBoundsAdmissibleOnTree checks, with
// the queries of its corpus.
type admissibilityTree struct {
	name    string
	tree    *Tree
	queries []*traj.Trajectory
}

// admissibilityTrees makes, per corpus and per distance, the grown tree
// and the replaced one TestBoundsAdmissibleOnTree checks.
func admissibilityTrees(t *testing.T) []admissibilityTree {
	t.Helper()
	var out []admissibilityTree
	for corpus, c := range boundCorpora() {
		for _, cumulative := range []bool{false, true} {
			opt := Options{Seed: 1, LeafSize: 6, Cumulative: cumulative}
			db := cloneAll(c[0])
			hold := len(db) / 8
			grown, err := New(db[hold:], opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range db[:hold] {
				if err := grown.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
			replaced, err := New(cloneAll(c[0]), opt)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int, len(db))
			shifted := cloneAll(c[0])
			for i, tr := range shifted {
				ids[i] = tr.ID
				tr.ID += 10_000_000
				for j := range tr.Points {
					tr.Points[j].X += float64(i%5 - 2)
					tr.Points[j].Y += float64(i%3 - 1)
				}
			}
			replace(t, replaced, ids, shifted)
			label := fmt.Sprintf("%s, cumulative %v", corpus, cumulative)
			out = append(out, admissibilityTree{label + ", grown", grown, c[1]},
				admissibilityTree{label + ", replaced", replaced, c[1]})
		}
	}
	return out
}

// TestInsertedMemberIsFound pins the single source of truth of a node's
// rects: Insert extends the boxes on the path in place, and the very next
// range and k-NN query must bound the node by the extended boxes. A
// trajectory far outside every existing box is inserted; a search bounding
// its nodes by rects captured before the insert would prune the path to it
// and answer without it.
func TestInsertedMemberIsFound(t *testing.T) {
	tree, err := New(testDB(rand.New(rand.NewSource(141)), 120), Options{Seed: 1, LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	far := traj.FromXY(900_000, 5000, 5000, 5010, 5004, 5021, 5003, 5030, 5012)
	if err := tree.Insert(far); err != nil {
		t.Fatal(err)
	}
	q := far.Clone()
	q.ID = 900_001
	for name, tr := range map[string]*Tree{"live": tree, "heap-loaded": loadHeap(t, tree), "arena-loaded": loadArena(t, tree)} {
		res, _, _, err := tr.SearchRange(q, 0.5, nil)
		if err != nil || len(res) != 1 || res[0].Traj.ID != far.ID {
			t.Fatalf("%s: range around the inserted trajectory answered %v (err %v)", name, res, err)
		}
		res, _, _, err = tr.SearchKNN(q, 1, nil, nil)
		if err != nil || len(res) != 1 || res[0].Traj.ID != far.ID || res[0].Dist != 0 {
			t.Fatalf("%s: 1-NN of the inserted trajectory answered %v (err %v)", name, res, err)
		}
		res, _, _, err = tr.SearchSub(q, 1, nil, nil)
		if err != nil || len(res) != 1 || res[0].Traj.ID != far.ID || res[0].Dist != 0 {
			t.Fatalf("%s: sub 1-NN of the inserted trajectory answered %v (err %v)", name, res, err)
		}
	}
}

// TestSearchKNNInExactOverAllCandidates pins the bounds of the prefilter's
// verification: handed every member as a candidate, arena-resident ones
// (two-sided screen) and overlay ones (the Theorem-2 DP in both
// directions, summed) alike, SearchKNNIn must return SearchKNN's answer —
// an inadmissible Cand.LB would cut a true neighbour off. The corpus
// holds eight clones of trip 0, half built into the arena and half in
// the overlay, and trip 0 is one of the queries: nine members tie at
// distance zero, k = 8 cuts the group, and both searches — and the
// unbounded scan — must keep the same eight by ID.
func TestSearchKNNInExactOverAllCandidates(t *testing.T) {
	for _, cumulative := range []bool{false, true} {
		db := taxiTrips(260, 1, 0)
		for i := 0; i < 8; i++ {
			c := db[0].Clone()
			c.ID = 10_000 + i
			db = append(db, c)
		}
		built := append(db[:200:200], db[260:264]...)
		tree, err := New(built, Options{Seed: 1, LeafSize: 6, Cumulative: cumulative})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(db))
		for i, tr := range db {
			ids[i] = tr.ID
			if i >= 200 && tree.Lookup(tr.ID) == nil {
				if err := tree.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
		}
		self := db[0].Clone()
		self.ID = 6_000_000
		for _, q := range append(taxiTrips(12, 7920, 5_000_000), self) {
			want, _, _, err := tree.SearchKNN(q, 8, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "SearchKNN against the unbounded scan", want, referenceKNN(tree.root.members, q, 8, cumulative))
			got, st, _, err := tree.SearchKNNIn(q, ids, 8, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "SearchKNNIn over every member", got, want)
			if st.NodesPruned == 0 {
				t.Fatalf("cumulative=%v: the candidate bounds pruned nothing", cumulative)
			}
		}
	}
}

// BenchmarkNodeBound prices the two node bounds on the (query, node) pairs
// a search actually bounds — every child of every node a 10-NN search
// expands — on the bench corpus (10 000 taxi trips, 40 of its queries) and
// on the default ASL gestures (the first recording of every third sign as
// the query). The dp arm is the Theorem-2 reference DP, the screen arm its
// flat relaxation — the bound the query path uses; one operation is one
// pair, both unbounded so they compute the same thing in full. value-ratio
// is the mean of screen ÷ DP over the pairs where the DP is positive: what
// the cheaper bound gives up in tightness.
func BenchmarkNodeBound(b *testing.B) {
	var aslDB, aslQueries []*traj.Trajectory
	seen := map[int]bool{}
	for _, tr := range synth.ASL(synth.DefaultASL()) {
		if !seen[tr.Label] && tr.Label%3 == 0 {
			aslQueries = append(aslQueries, tr)
		} else {
			aslDB = append(aslDB, tr)
		}
		seen[tr.Label] = true
	}
	for _, c := range []struct {
		name        string
		db, queries []*traj.Trajectory
	}{
		{"taxi", taxiTrips(10000, 1, 0), taxiTrips(40, 7920, 5_000_000)},
		{"asl", aslDB, aslQueries},
	} {
		b.Run(c.name, func(b *testing.B) {
			tree, err := New(c.db, Options{Parallel: true, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			type pair struct {
				q   *traj.Trajectory
				scr *core.SegScreen
				n   *node
			}
			var pairs []pair
			inf := math.Inf(1)
			for _, q := range c.queries {
				res, _, _, err := tree.SearchKNN(q, 10, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				kth := res[len(res)-1].Dist
				scr := new(core.SegScreen)
				scr.Reset(q)
				var walk func(n *node)
				walk = func(n *node) {
					for _, ch := range n.children {
						pairs = append(pairs, pair{q, scr, ch})
						if nodeBound(scr, tree.denom(false, q.Length(), ch.maxLen), ch, inf) < kth {
							walk(ch)
						}
					}
				}
				walk(tree.root)
			}
			var sink float64
			b.Run("dp", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					sink += core.LowerBound(p.q, p.n.seq)
				}
			})
			b.Run("screen", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					sink += core.ScreenLowerBound(p.scr, p.n.seq.Rects(), inf)
				}
				b.StopTimer()
				ratio, n := 0.0, 0
				for _, p := range pairs {
					if dp := core.LowerBound(p.q, p.n.seq); dp > 0 {
						ratio, n = ratio+core.ScreenLowerBound(p.scr, p.n.seq.Rects(), inf)/dp, n+1
					}
				}
				b.ReportMetric(ratio/float64(n), "value-ratio")
				b.ReportMetric(float64(len(pairs))/float64(len(c.queries)), "pairs/query")
			})
			_ = sink
		})
	}
}
