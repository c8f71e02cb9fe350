package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
	"trajmatch/internal/wal"
)

// mutationModes are the two ways an engine is booted: without a
// write-ahead log and with one. Every mutation must behave the same in
// both; only durability differs.
var mutationModes = []struct {
	name string
	opt  func(t *testing.T) Options
}{
	{"no WAL", func(*testing.T) Options { return Options{Shards: 2} }},
	{"WAL", func(t *testing.T) Options {
		return Options{Shards: 2, WALDir: t.TempDir(), WALSync: wal.SyncInterval}
	}},
}

// TestMutationOutcomesSameInBothModes: each precondition failure (and
// each success that depends on live state) answers the same error value
// or the same bool with and without a WAL.
func TestMutationOutcomesSameInBothModes(t *testing.T) {
	pts := testDB(1, 901)[0].Points
	cases := []struct {
		name    string
		run     func(e *Engine) (error, bool)
		wantErr error
		wantOK  bool
	}{
		{"duplicate insert", func(e *Engine) (error, bool) {
			err := e.Insert(traj.New(3, pts))
			return err, err == nil
		}, ErrSealedID, false},
		{"insert of a live ID", func(e *Engine) (error, bool) {
			if _, err := e.Append(9000, 0, pts); err != nil {
				return err, false
			}
			err := e.Insert(traj.New(9000, pts))
			return err, err == nil
		}, ErrLiveID, false},
		{"append onto a sealed ID", func(e *Engine) (error, bool) {
			_, err := e.Append(3, 0, pts)
			return err, err == nil
		}, ErrSealedID, false},
		{"seal of an unknown ID", func(e *Engine) (error, bool) {
			err := e.Seal(9001)
			return err, err == nil
		}, ErrNoTrack, false},
		{"delete of an absent ID", func(e *Engine) (error, bool) {
			return nil, e.Delete(9002)
		}, nil, false},
		{"delete of a live ID", func(e *Engine) (error, bool) {
			if _, err := e.Append(9003, 0, pts); err != nil {
				return err, false
			}
			return nil, e.Delete(9003)
		}, nil, true},
	}
	for _, mode := range mutationModes {
		for _, c := range cases {
			t.Run(mode.name+"/"+c.name, func(t *testing.T) {
				e := newTestEngine(t, 20, mode.opt(t))
				defer e.Close()
				err, ok := c.run(e)
				if !errors.Is(err, c.wantErr) || (c.wantErr == nil && err != nil) {
					t.Fatalf("error %v, want %v", err, c.wantErr)
				}
				if ok != c.wantOK {
					t.Fatalf("ok %v, want %v", ok, c.wantOK)
				}
			})
		}
	}
}

// TestInsertAppendRaceLeavesOneOwner races Insert(id) against
// Append(id) for thousands of fresh IDs. Exactly one of the two may win
// each ID: an ID both sealed and live would be answered twice by k-NN,
// and its later seal would fail after dropping the track's points.
func TestInsertAppendRaceLeavesOneOwner(t *testing.T) {
	const pairs = 3000
	pts := testDB(1, 902)[0].Points
	for _, mode := range mutationModes {
		t.Run(mode.name, func(t *testing.T) {
			e := newTestEngine(t, 20, mode.opt(t))
			defer e.Close()
			var wg sync.WaitGroup
			for i := 0; i < pairs; i++ {
				id := 100_000 + i
				start := make(chan struct{})
				wg.Add(2)
				go func() {
					defer wg.Done()
					<-start
					e.Insert(traj.New(id, pts))
				}()
				go func() {
					defer wg.Done()
					<-start
					e.Append(id, 0, pts)
				}()
				close(start)
				if i%64 == 63 {
					wg.Wait()
				}
			}
			wg.Wait()
			both := 0
			for i := 0; i < pairs; i++ {
				id := 100_000 + i
				_, live := e.LiveTrack(id)
				if sealed := e.Lookup(id) != nil; sealed && live {
					both++
				} else if !sealed && !live {
					t.Fatalf("ID %d is neither sealed nor live", id)
				}
			}
			if both > 0 {
				t.Fatalf("%d of %d IDs are both sealed and live", both, pairs)
			}
		})
	}
}

// TestInsertNilRejected: a nil trajectory is an invalid request in both
// modes, refused before any lock is taken, so the shard it would have
// hashed to keeps serving mutations.
func TestInsertNilRejected(t *testing.T) {
	for _, mode := range mutationModes {
		t.Run(mode.name, func(t *testing.T) {
			e := newTestEngine(t, 20, mode.opt(t))
			defer e.Close()
			if err := e.Insert(nil); !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("Insert(nil): %v, want ErrInvalidQuery", err)
			}
			for id := 0; id < 20; id++ {
				if !e.Delete(id) {
					t.Fatalf("delete %d after Insert(nil) missed", id)
				}
			}
		})
	}
}

// TestPartitionedAppendNotImplemented: streaming ingest on a shard node
// answers 501 not_implemented, like a watch does there.
func TestPartitionedAppendNotImplemented(t *testing.T) {
	e, err := NewEngineFromDB(testDB(20, 7), trajtree.Options{Seed: 1, LeafSize: 5},
		Options{Partition: &Partition{Total: 4, Owned: []int{1, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()
	resp := postRaw(t, srv, "/v1/append", AppendRequest{ID: 7, Points: [][3]float64{{0, 0, 0}, {1, 1, 1}}})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	if env := decodeError(t, resp); env.Code != CodeNotImplemented {
		t.Fatalf("code %q, want %q", env.Code, CodeNotImplemented)
	}
}
