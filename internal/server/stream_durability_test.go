// Crash-recovery coverage for the streaming ingest path: the failpoint
// sweep of durability_test.go, re-run over a workload of append bursts,
// seals, live-track deletes and mid-stream snapshots. The recovered
// engine must hold, for every live track, exactly the acknowledged
// point prefix (or that prefix plus the one delta in flight) —
// byte-identically — and answer queries like a reference engine built
// fresh from the matched state.
package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"trajmatch/internal/faultfs"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// streamStep is one operation of the streaming sweep workload.
type streamStep struct {
	op  string // "append", "seal", "delete", "insert", "snapshot"
	id  int
	pts []traj.Point
	tr  *traj.Trajectory
}

// streamState is the full expected engine content at one point of the
// workload: the sealed index plus every live track's exact point prefix.
type streamState struct {
	sealed map[int]*traj.Trajectory
	live   map[int][]traj.Point
}

func (s streamState) clone() streamState {
	n := streamState{
		sealed: make(map[int]*traj.Trajectory, len(s.sealed)),
		live:   make(map[int][]traj.Point, len(s.live)),
	}
	for id, tr := range s.sealed {
		n.sealed[id] = tr
	}
	for id, pts := range s.live {
		n.live[id] = pts
	}
	return n
}

// apply advances the state model by one mutation.
func (s streamState) apply(st streamStep) streamState {
	n := s.clone()
	switch st.op {
	case "append":
		n.live[st.id] = append(append([]traj.Point(nil), n.live[st.id]...), st.pts...)
	case "seal":
		tr := traj.New(st.id, n.live[st.id])
		delete(n.live, st.id)
		n.sealed[st.id] = tr
	case "delete":
		delete(n.sealed, st.id)
		delete(n.live, st.id)
	case "insert":
		n.sealed[st.tr.ID] = st.tr
	}
	return n
}

// streamMatches reports whether e holds exactly state: the sealed index
// by ID and every live track with a byte-identical point prefix.
func streamMatches(e *Engine, s streamState) bool {
	if !engineMatches(e, s.sealed) {
		return false
	}
	if e.LiveTracks() != len(s.live) {
		return false
	}
	for id, pts := range s.live {
		sn, ok := e.LiveTrack(id)
		if !ok || len(sn.Points) != len(pts) {
			return false
		}
		for i := range pts {
			if sn.Points[i] != pts[i] {
				return false
			}
		}
	}
	return true
}

// TestCrashRecoveryStreamSweep extends the crash sweep to the streaming
// subsystem: crashes land inside append bursts, mid-seal, mid-snapshot
// (with live carry-over records and segment truncation in flight) and
// during the live-track delete — at EVERY fault-eligible file operation,
// for both crash models. A live track that never seals (700) rides
// through the whole workload, two snapshots and their truncations, so
// the carry-over + gap-repair replay path is exercised at every
// failpoint past the first snapshot.
func TestCrashRecoveryStreamSweep(t *testing.T) {
	topt := trajtree.Options{Seed: 1, LeafSize: 4}
	db0 := testDB(24, 11)
	pool := testDB(80, 99)
	mkTraj := func(i, id int) *traj.Trajectory {
		tr := pool[i].Clone()
		tr.ID = id
		return tr
	}
	trBoot, trA, trB, trC := pool[29], pool[30], pool[31], pool[32]

	steps := []streamStep{
		{op: "append", id: 701, pts: trA.Points[0:2]},
		{op: "append", id: 701, pts: trA.Points[2:3]}, // crash inside a burst
		{op: "append", id: 702, pts: trB.Points[0:3]},
		{op: "insert", tr: mkTraj(1, 1001)},
		{op: "append", id: 701, pts: trA.Points[3:5]},
		{op: "snapshot"}, // live carry-over + truncation
		{op: "append", id: 702, pts: trB.Points[3:5]},
		{op: "seal", id: 701}, // crash mid-seal
		{op: "delete", id: 702},
		{op: "append", id: 703, pts: trC.Points[0:2]},
		{op: "snapshot"},
		{op: "append", id: 703, pts: trC.Points[2:4]},
		{op: "delete", id: 3},
		{op: "seal", id: 703}, // seal after the second truncation
	}
	mutations := 0
	for _, st := range steps {
		if st.op != "snapshot" {
			mutations++
		}
	}

	// Like the sealed sweep, two mutations land in the WAL after the
	// seed snapshot so every boot replays — here one of them is an
	// append, so live-track replay-on-boot runs at every failpoint.
	init := streamState{sealed: map[int]*traj.Trajectory{}, live: map[int][]traj.Point{}}
	for _, tr := range db0 {
		init.sealed[tr.ID] = tr
	}
	delete(init.sealed, 0)
	init.live[700] = append([]traj.Point(nil), trBoot.Points[0:2]...)
	states := []streamState{init}
	for _, st := range steps {
		if st.op == "snapshot" {
			continue
		}
		states = append(states, states[len(states)-1].apply(st))
	}

	queries := []*traj.Trajectory{db0[2].Clone(), trA.Clone(), trBoot.Clone()}
	for i, q := range queries {
		q.ID = 9_300_000 + i
	}

	shardCounts := []int{1, 2}
	if testing.Short() {
		shardCounts = []int{2}
	}
	for _, shards := range shardCounts {
		for _, mode := range []faultfs.CrashMode{faultfs.CrashKill, faultfs.CrashPower} {
			shards, mode := shards, mode
			modeName := "kill"
			if mode == faultfs.CrashPower {
				modeName = "power"
			}
			t.Run(fmt.Sprintf("shards=%d/mode=%s", shards, modeName), func(t *testing.T) {
				t.Parallel()
				seedSnap, seedWAL := filepath.Join(t.TempDir(), "snap"), filepath.Join(t.TempDir(), "wal")
				e0, err := NewEngineFromDB(cloneDB(db0), topt, Options{
					CacheSize: -1, Workers: 1, Shards: shards,
					WALDir: seedWAL, Prefilter: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e0.SaveSnapshot(seedSnap); err != nil {
					t.Fatal(err)
				}
				if !e0.Delete(0) {
					t.Fatal("seed delete missed")
				}
				if _, err := e0.Append(700, 0, trBoot.Points[0:2]); err != nil {
					t.Fatal(err)
				}
				if err := e0.Close(); err != nil {
					t.Fatal(err)
				}

				runWorkload := func(inj *faultfs.Injector, snapDir, walDir string) (acked int, err error) {
					e, err := LoadSnapshotSpecs(snapDir, nil, Options{
						CacheSize: -1, Workers: 1,
						WALDir: walDir, FS: inj, Prefilter: true,
					})
					if err != nil {
						if inj.Crashed() {
							return 0, nil
						}
						return 0, fmt.Errorf("boot failed without a crash: %w", err)
					}
					defer e.Close()
					for _, st := range steps {
						switch st.op {
						case "append":
							_, aerr := e.Append(st.id, 0, st.pts)
							if aerr == nil {
								acked++
							} else if !inj.Crashed() {
								return acked, fmt.Errorf("append %d failed without a crash: %w", st.id, aerr)
							}
						case "seal":
							serr := e.Seal(st.id)
							if serr == nil {
								acked++
							} else if !inj.Crashed() {
								return acked, fmt.Errorf("seal %d failed without a crash: %w", st.id, serr)
							}
						case "insert":
							ierr := e.Insert(st.tr.Clone())
							if ierr == nil {
								acked++
							} else if !inj.Crashed() {
								return acked, fmt.Errorf("insert %d failed without a crash: %w", st.tr.ID, ierr)
							}
						case "delete":
							if e.Delete(st.id) {
								acked++
							} else if !inj.Crashed() {
								return acked, fmt.Errorf("delete %d missed without a crash", st.id)
							}
						case "snapshot":
							if serr := e.SaveSnapshot(snapDir); serr != nil && !inj.Crashed() {
								return acked, fmt.Errorf("snapshot failed without a crash: %w", serr)
							}
						}
					}
					return acked, nil
				}

				probeSnap, probeWAL := filepath.Join(t.TempDir(), "snap"), filepath.Join(t.TempDir(), "wal")
				copyDirT(t, seedSnap, probeSnap)
				copyDirT(t, seedWAL, probeWAL)
				probe := faultfs.NewInjector(faultfs.OS{}, mode, nil, 0)
				acked, err := runWorkload(probe, probeSnap, probeWAL)
				if err != nil {
					t.Fatal(err)
				}
				if acked != mutations {
					t.Fatalf("probe acked %d of %d mutations", acked, mutations)
				}
				total := probe.Ops()
				if total == 0 {
					t.Fatal("workload issued no fault-eligible operations")
				}

				// Reference engines per matched state: the sealed corpus
				// plus every live prefix re-appended, shared across
				// failpoints.
				refs := map[int]*Engine{}
				refFor := func(idx int) *Engine {
					if e, ok := refs[idx]; ok {
						return e
					}
					e, err := NewEngineFromDB(stateDB(states[idx].sealed), topt,
						Options{CacheSize: -1, Workers: 1, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					ids := make([]int, 0, len(states[idx].live))
					for id := range states[idx].live {
						ids = append(ids, id)
					}
					sort.Ints(ids)
					for _, id := range ids {
						if _, err := e.Append(id, 0, states[idx].live[id]); err != nil {
							t.Fatal(err)
						}
					}
					refs[idx] = e
					return e
				}

				for failAt := 1; failAt <= total; failAt++ {
					iter := t.TempDir()
					iterSnap, iterWAL := filepath.Join(iter, "snap"), filepath.Join(iter, "wal")
					copyDirT(t, seedSnap, iterSnap)
					copyDirT(t, seedWAL, iterWAL)
					inj := faultfs.NewInjector(faultfs.OS{}, mode, nil, failAt)
					acked, err := runWorkload(inj, iterSnap, iterWAL)
					if err != nil {
						t.Fatalf("failpoint %d: %v", failAt, err)
					}
					if !inj.Crashed() {
						t.Fatalf("failpoint %d never fired (%d ops)", failAt, inj.Ops())
					}
					if err := inj.Wreckage(); err != nil {
						t.Fatalf("failpoint %d: wreckage: %v", failAt, err)
					}

					rec, err := LoadSnapshotSpecs(iterSnap, nil, Options{
						CacheSize: -1, Workers: 1, WALDir: iterWAL, Prefilter: true, Mmap: true,
					})
					if err != nil {
						t.Fatalf("failpoint %d (%d acked): recovery failed: %v", failAt, acked, err)
					}

					// Acknowledged state, or that state plus exactly the
					// mutation in flight — every live track an exact prefix,
					// never partial, never reordered.
					matched := -1
					for _, s := range []int{acked, acked + 1} {
						if s < len(states) && streamMatches(rec, states[s]) {
							matched = s
							break
						}
					}
					if matched < 0 {
						t.Fatalf("failpoint %d: recovered %d sealed / %d live, matches neither state %d nor %d",
							failAt, rec.Size(), rec.LiveTracks(), acked, acked+1)
					}

					ref := refFor(matched)
					for qi, q := range queries {
						got := search(t, rec, q, Query{Kind: KindKNN, K: 5}).Results
						want := search(t, ref, q, Query{Kind: KindKNN, K: 5}).Results
						sameResults(t, fmt.Sprintf("failpoint %d KNN q%d", failAt, qi), got, want)
						gotR := search(t, rec, q, Query{Kind: KindRange, Radius: 150}).Results
						wantR := search(t, ref, q, Query{Kind: KindRange, Radius: 150}).Results
						sameResults(t, fmt.Sprintf("failpoint %d range q%d", failAt, qi), gotR, wantR)
					}
					if _, err := rec.Search(context.Background(), queries[0],
						Query{Kind: KindKNN, K: 3, Prefilter: true}); err != nil {
						t.Fatalf("failpoint %d: prefiltered query after recovery: %v", failAt, err)
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("failpoint %d: close after recovery: %v", failAt, err)
					}
				}
			})
		}
	}
}
