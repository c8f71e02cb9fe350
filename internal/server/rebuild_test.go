package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// rebuildsOf sums the per-shard rebuild counters of the default metric.
func rebuildsOf(e *Engine) (adopted uint64, inFlight int) {
	for _, ss := range e.Stats().PerShard {
		adopted += ss.Mem.FoldIns
		if ss.Mem.RebuildInFlight {
			inFlight++
		}
	}
	return adopted, inFlight
}

// TestBackgroundRebuildRace is the race acceptance test of the background
// rebuild: readers fan out over two shards while one writer churns both
// past their rebuild thresholds several times, a second goroutine asks
// for explicit rolling rebuilds and a snapshot is saved in the middle.
// Every reader's probe is an untouched base member, so its own trajectory
// at distance 0 must lead every answer whichever tree serves it. Run with
// -race.
func TestBackgroundRebuildRace(t *testing.T) {
	db := testDB(160, 37)
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5},
		Options{CacheSize: -1, Shards: 2, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base := db[(r*40+i)%len(db)]
				q := base.Clone()
				q.ID = 4_000_000 + r
				kind := []QueryKind{KindKNN, KindRange, KindSubKNN}[i%3]
				ans, err := e.Search(context.Background(), q, Query{Kind: kind, K: 3, Radius: 5})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if len(ans.Results) == 0 || ans.Results[0].Dist != 0 {
					t.Errorf("reader %d %v query %d: its own base member does not lead the answer", r, kind, i)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := e.Rebuild(); err != nil {
				t.Errorf("explicit rebuild %d: %v", i, err)
			}
		}
	}()

	extra := testDB(400, 41)
	for i, tr := range extra {
		tr.ID = 60_000 + i
		if err := e.Insert(tr); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%4 == 0 && !e.Delete(60_000+i) {
			t.Fatalf("delete %d missed", i)
		}
		if i == len(extra)/2 {
			if err := e.SaveSnapshot(e.SnapshotDir()); err != nil {
				t.Fatalf("concurrent snapshot: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if adopted, _ := rebuildsOf(e); adopted < 4 {
		t.Fatalf("%d rebuilds adopted across both shards, want several", adopted)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range e.sets[0].shards {
		if done := s.rebuildDone(); done != nil {
			select {
			case <-done:
			default:
				t.Fatal("a build goroutine outlived Close")
			}
		}
	}
	// What the churn left behind, through whichever trees are live now,
	// against brute force; and the mid-churn snapshot loads.
	var members []*traj.Trajectory
	members = append(members, db...)
	for i, tr := range extra {
		if i%4 != 0 {
			members = append(members, tr)
		}
	}
	for qi := 0; qi < 8; qi++ {
		q := extra[qi*9].Clone()
		q.ID = 4_900_000 + qi
		sameResults(t, fmt.Sprintf("post-churn q%d", qi), search(t, e, q, Query{Kind: KindKNN, K: 7}).Results, bruteKNN(members, q, 7))
	}
	if _, err := LoadSnapshot(e.SnapshotDir(), Options{CacheSize: -1}); err != nil {
		t.Fatalf("loading mid-churn snapshot: %v", err)
	}
}

// TestCrashWithRebuildInFlight: an engine abandoned while a background
// build is running loses nothing — the build was never part of the
// durable state, the live tree's mutations all reached the WAL — so a
// reboot from snapshot + WAL holds every acknowledged mutation and
// answers as the abandoned engine did.
func TestCrashWithRebuildInFlight(t *testing.T) {
	db := testDB(1200, 13)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	opt := Options{CacheSize: -1, WALDir: t.TempDir(), SnapshotDir: t.TempDir()}
	e1, err := NewEngineFromDB(db, topt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SaveSnapshot(opt.SnapshotDir); err != nil {
		t.Fatal(err)
	}
	pool := testDB(400, 77)
	inFlight, after := 0, 0
	var acked []int
	for i := 0; after < 20; i++ {
		tr := pool[i].Clone()
		tr.ID = 5000 + i
		if err := e1.Insert(tr); err != nil {
			t.Fatalf("insert %d: %v", tr.ID, err)
		}
		acked = append(acked, tr.ID)
		if i%5 == 0 && !e1.Delete(i) {
			t.Fatalf("delete %d missed", i)
		}
		if inFlight == 0 {
			_, inFlight = rebuildsOf(e1)
		} else {
			after++ // mutations the build has to catch up with
		}
	}
	adopted, inFlight := rebuildsOf(e1)
	if inFlight == 0 || adopted != 0 {
		// Only on a machine that bulk-loads 1 200 members faster than it
		// applies twenty mutations.
		t.Skipf("the build finished before the crash point (adopted %d)", adopted)
	}
	size := e1.Size()
	probes := testDB(64, 99)
	want := make([][]trajtree.Result, len(probes))
	for i, q := range probes {
		q.ID = 8_000_000 + i
		want[i] = search(t, e1, q, Query{Kind: KindKNN, K: 6}).Results
	}
	// kill -9: e1 is abandoned with its build still running.

	e2, err := LoadSnapshot(opt.SnapshotDir, opt)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer e2.Close()
	if e2.Size() != size {
		t.Fatalf("rebooted size %d, want %d", e2.Size(), size)
	}
	for _, id := range acked {
		if e2.Lookup(id) == nil {
			t.Fatalf("acknowledged insert %d lost", id)
		}
	}
	for i, q := range probes {
		sameResults(t, fmt.Sprintf("post-reboot q%d", i), search(t, e2, q, Query{Kind: KindKNN, K: 6}).Results, want[i])
	}
	e1.waitRebuilds() // the test must not leave its goroutine behind
}
