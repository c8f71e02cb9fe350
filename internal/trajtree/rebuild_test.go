package trajtree

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// history generates n mutations over a tree that starts with base:
// inserts drawn in order from pool, and deletes of IDs present at that
// point, about one in three.
func history(rng *rand.Rand, base, pool []*traj.Trajectory, n int) []deltaOp {
	var present []int
	for _, tr := range base {
		present = append(present, tr.ID)
	}
	ops := make([]deltaOp, 0, n)
	for len(ops) < n {
		if rng.Intn(3) == 0 && len(present) > 10 {
			i := rng.Intn(len(present))
			ops = append(ops, deltaOp{del: present[i]})
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
			continue
		}
		tr := pool[0]
		pool = pool[1:]
		ops = append(ops, deltaOp{ins: tr})
		present = append(present, tr.ID)
	}
	return ops
}

func apply(t *testing.T, tree *Tree, op deltaOp) {
	t.Helper()
	if op.ins != nil {
		if err := tree.Insert(op.ins); err != nil {
			t.Fatal(err)
		}
	} else if !tree.Delete(op.del) {
		t.Fatalf("delete %d: not found", op.del)
	}
}

// gate holds every background build at one hook point — announcing on
// arrived that it got there — until the test grants it a permit. A caller
// about to block on the build grants one itself, so a gated tree never
// deadlocks; grant and the hook's wait arm run on the test's goroutine.
type gate struct {
	arrived, permits chan struct{}
	rb               *rebuild // the build the last permit was granted to
	waits            int
}

func newGate(tree *Tree, at rebuildEvent) *gate {
	// One send per build on either channel; the buffers only have to
	// outlast the builds of one test.
	g := &gate{arrived: make(chan struct{}, 64), permits: make(chan struct{}, 64)}
	tree.hook = func(ev rebuildEvent) {
		switch ev {
		case at:
			g.arrived <- struct{}{}
			<-g.permits
		case hookWait:
			g.waits++
			g.grant(tree)
		}
	}
	return g
}

// grant lets the build in flight finish, once.
func (g *gate) grant(tree *Tree) {
	if tree.rb != nil && g.rb != tree.rb {
		g.rb = tree.rb
		g.permits <- struct{}{}
	}
}

func saveBytes(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRebuildScheduleIndependent runs one history that crosses the
// rebuild threshold several times under four adoption schedules: every
// build adopted at the mutation after its trigger; every build held until
// the next crossing has to wait for it, once before its catch-up (the
// build goroutine replays the whole delta) and once after (the adopting
// call does); and every build released at a random later mutation. Once
// the last build is adopted the trees must be the same tree: same file
// bytes, same answers, same work.
func TestRebuildScheduleIndependent(t *testing.T) {
	const ops = 420
	pool := taxiTrips(ops, 31, 2_000_000)
	queries := taxiTrips(6, 7920, 5_000_000)
	hist := history(rand.New(rand.NewSource(5)), taxiTrips(300, 1, 0), pool, ops)

	type outcome struct {
		file     []byte
		answers  string
		adopted  uint64
		replayed int
	}
	run := func(t *testing.T, schedule string) outcome {
		tree, err := New(taxiTrips(300, 1, 0), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		at := hookCaughtUp
		if schedule == "late" {
			at = hookBuilt
		}
		g := newGate(tree, at)
		rng := rand.New(rand.NewSource(77))
		var seen *rebuild
		countdown, replayed := -1, 0
		for _, op := range hist {
			apply(t, tree, op)
			replayed = max(replayed, tree.last.Replayed)
			if tree.rb != seen {
				seen = tree.rb
				countdown = rng.Intn(60)
				if schedule == "late-tail" {
					<-g.arrived // caught up with nothing: the whole delta is the adopter's
				}
			}
			switch schedule {
			case "immediate":
				if tree.rb != nil {
					if err := tree.Rebuild(); err != nil {
						t.Fatal(err)
					}
				}
			case "random":
				if countdown == 0 && tree.rb != nil {
					g.grant(tree)
					<-tree.rb.done
				}
				countdown--
			}
		}
		if tree.rb != nil {
			if err := tree.Rebuild(); err != nil { // waits and adopts, starts nothing
				t.Fatal(err)
			}
		}
		if err := tree.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if (schedule == "late" || schedule == "late-tail") && g.waits < 3 {
			t.Fatalf("%s: %d crossings waited for a build, want at least 3", schedule, g.waits)
		}
		for _, op := range hist {
			if op.ins == nil && tree.Lookup(op.del) != nil {
				t.Fatalf("deleted %d still indexed", op.del)
			}
		}
		var b bytes.Buffer
		for _, q := range queries {
			knn, kst, _, err := tree.SearchKNN(q, 10, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, schedule, knn, referenceKNN(tree.root.members, q, 10, tree.opt.Cumulative))
			rng, rst, _, err := tree.SearchRange(q, knn[4].Dist, nil)
			if err != nil {
				t.Fatal(err)
			}
			sub, sst, _, err := tree.SearchSub(q, 5, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range [][]Result{knn, rng, sub} {
				for _, r := range res {
					fmt.Fprintf(&b, "%d:%v ", r.Traj.ID, r.Dist)
				}
			}
			fmt.Fprintf(&b, "%+v %+v %+v\n", kst, rst, sst)
		}
		return outcome{saveBytes(t, tree), b.String(), tree.foldIns, replayed}
	}

	want := run(t, "immediate")
	if want.adopted < 3 {
		t.Fatalf("history crossed the threshold %d times, want at least 3", want.adopted)
	}
	for _, schedule := range []string{"late", "late-tail", "random"} {
		got := run(t, schedule)
		if got.adopted != want.adopted {
			t.Errorf("%s: %d rebuilds adopted, immediate adoption saw %d", schedule, got.adopted, want.adopted)
		}
		if !bytes.Equal(got.file, want.file) {
			t.Errorf("%s: saved bytes differ from immediate adoption's", schedule)
		}
		if got.answers != want.answers {
			t.Errorf("%s: answers or stats differ from immediate adoption's:\n%s\nwant\n%s", schedule, got.answers, want.answers)
		}
		// The random schedule splits the delta between the build goroutine
		// and the adopting call wherever the race puts it.
		if schedule != "random" && (got.replayed > 0) != (schedule == "late-tail") {
			t.Errorf("%s: the largest replay by an adopting call was %d operations", schedule, got.replayed)
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
			if math.Abs(r.Dist-ref[i]) > 1e-9 {
				t.Fatalf("%s subknn rank %d: dist %v, brute %v", label, i, r.Dist, ref[i])
			}
		}
	}
}

// TestRebuildExactThroughWindow: every search is exact before the trigger,
// while the build is held back and the live tree carries the delta, and
// after adoption — on a built tree and on one served from a file mapping,
// which stays mapped until the adoption moves the tree to fresh heap slabs.
func TestRebuildExactThroughWindow(t *testing.T) {
	queries := taxiTrips(5, 7920, 5_000_000)
	for _, mapped := range []bool{false, true} {
		tree, err := New(taxiTrips(320, 1, 0), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if mapped {
			tree = loadArena(t, tree)
			if !tree.MemStats().Arena.Mapped {
				t.Skip("arena snapshots are not mmap'd on this platform")
			}
		}
		label := fmt.Sprintf("mapped=%v", mapped)
		g := newGate(tree, hookBuilt)
		exactEverywhere(t, label+" before", tree, queries)

		hist := history(rand.New(rand.NewSource(9)), tree.All(), taxiTrips(200, 31, 2_000_000), 140)
		trigger := -1
		for i, op := range hist {
			apply(t, tree, op)
			if tree.rb != nil && trigger < 0 {
				trigger = i
			}
			if trigger >= 0 && i == trigger+40 {
				break
			}
		}
		ms := tree.MemStats()
		if !ms.RebuildInFlight || ms.FoldIns != 0 || ms.Arena.Mapped != mapped {
			t.Fatalf("%s: in the window: %+v", label, ms)
		}
		if g.waits != 0 {
			t.Fatalf("%s: a mutation waited for the build", label)
		}
		exactEverywhere(t, label+" gated", tree, queries)

		g.grant(tree)
		<-tree.rb.done
		if ms := tree.MemStats(); !ms.RebuildInFlight || ms.Arena.Mapped != mapped {
			t.Fatalf("%s: finished but not adopted: %+v", label, ms)
		}
		apply(t, tree, hist[trigger+41])
		ms = tree.MemStats()
		if ms.RebuildInFlight || ms.FoldIns != 1 || ms.Arena.Mapped || ms.Replayed != 0 || ms.BuildMs <= 0 {
			t.Fatalf("%s: after adoption: %+v", label, ms)
		}
		// The build caught up with the 40 held-back mutations itself;
		// they and the adopting one are the new tree's overlay.
		if err := tree.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		exactEverywhere(t, label+" adopted", tree, queries)
	}
}

// TestRebuildBackpressure: a mutation that crosses the threshold while
// the previous build is still running blocks until that build is adopted,
// then starts the next — so the delta a build can accumulate is bounded.
func TestRebuildBackpressure(t *testing.T) {
	tree, err := New(taxiTrips(300, 1, 0), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	caughtUp, release, waiting := make(chan struct{}, 2), make(chan struct{}), make(chan struct{})
	waits := 0
	tree.hook = func(ev rebuildEvent) {
		switch ev {
		case hookCaughtUp:
			caughtUp <- struct{}{}
			<-release
		case hookWait:
			if waits++; waits == 1 {
				close(waiting)
			}
		}
	}
	pool := taxiTrips(300, 31, 2_000_000)
	for tree.rb == nil {
		apply(t, tree, deltaOp{ins: pool[0]})
		pool = pool[1:]
	}
	first := tree.rb
	<-caughtUp // held with an empty delta

	ratio := tree.opt.RebuildRatio
	finished := make(chan error, 1)
	go func() {
		for i, tr := range pool {
			if err := tree.Insert(tr); err != nil {
				finished <- err
				return
			}
			if rb := tree.rb; float64(len(rb.delta)) > ratio*float64(tree.size)+1 {
				finished <- fmt.Errorf("insert %d: delta of %d operations over %d members", i, len(rb.delta), tree.size)
				return
			}
			if tree.foldIns == 1 {
				break // the second build is running: the crossing went through
			}
		}
		finished <- nil
	}()

	<-waiting // the second crossing is about to block on the first build
	select {
	case err := <-finished:
		t.Fatalf("the writer got past a crossing with the build still held (err %v)", err)
	default:
	}
	held := len(first.delta)
	if limit := ratio * float64(tree.size); float64(held) <= limit {
		t.Fatalf("blocked with a delta of %d, not above the threshold %v", held, limit)
	}
	close(release)
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if tree.rb == nil || tree.rb == first || tree.foldIns != 1 {
		t.Fatalf("after the crossing: in flight %v, adopted %d", tree.rb != nil, tree.foldIns)
	}
	if tree.last.Replayed != held {
		t.Fatalf("the adopting call replayed %d of the %d operations held back", tree.last.Replayed, held)
	}
	if err := tree.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundBuildSameBytes: the background build runs on one CPU
// fewer and nothing else differs — it makes the file a foreground build
// of the same members makes.
func TestBackgroundBuildSameBytes(t *testing.T) {
	opt := Options{Seed: 3, Parallel: true}
	fg, err := New(taxiTrips(500, 1, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := New(taxiTrips(500, 1, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := bg.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if bg.foldIns != 1 {
		t.Fatalf("rebuild not adopted: %+v", bg.MemStats())
	}
	if a, b := sha256.Sum256(saveBytes(t, fg)), sha256.Sum256(saveBytes(t, bg)); a != b {
		t.Fatalf("background build %x, foreground build %x", b, a)
	}
}

// TestBuildSlots pins the parallel build's concurrency to the
// scheduler's Ps, not the machine's CPUs: a background build leaves one
// P to serving, and a single P is shared.
func TestBuildSlots(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, fg, bg int }{{1, 1, 1}, {2, 2, 1}, {4, 4, 3}} {
		runtime.GOMAXPROCS(c.procs)
		if fg, bg := buildSlots(false), buildSlots(true); fg != c.fg || bg != c.bg {
			t.Errorf("GOMAXPROCS %d: slots %d foreground, %d background; want %d, %d", c.procs, fg, bg, c.fg, c.bg)
		}
	}
}
