package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// TestRebuildRace is the race acceptance test of the maintained trees and
// of the operator's re-pack: readers fan out over two shards while one
// writer churns both (its deletes drop the nodes they empty), a second
// goroutine asks for rebuilds through POST /v1/rebuild and a third saves
// snapshots. Every reader's probe is an untouched base
// member, so its own trajectory at distance 0 must lead every answer
// whichever tree serves it. Run with -race.
func TestRebuildRace(t *testing.T) {
	db := testDB(160, 37)
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5},
		Options{CacheSize: -1, Shards: 2, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stopped(); i++ {
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
	// The rebuilds and the saves run to the end beside the readers.
	var side sync.WaitGroup
	side.Add(2)
	go func() {
		defer side.Done()
		for i := 0; i < 3; i++ {
			resp, err := srv.Client().Post(srv.URL+"/v1/rebuild", "application/json", nil)
			if err != nil {
				t.Errorf("rebuild %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("rebuild %d: status %d", i, resp.StatusCode)
			}
		}
	}()
	go func() {
		defer side.Done()
		for i := 0; i < 2; i++ {
			if err := e.SaveSnapshot(e.SnapshotDir()); err != nil {
				t.Errorf("concurrent snapshot %d: %v", i, err)
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
	}
	side.Wait()
	close(stop)
	wg.Wait()
	if n := e.Stats().Rebuilds; n != 3 {
		t.Fatalf("%d rebuilds, want 3", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// What the churn left behind, through whichever trees are live now,
	// against brute force; and the last snapshot loads.
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
		t.Fatalf("loading a snapshot saved beside the churn: %v", err)
	}
}
