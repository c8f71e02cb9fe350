// Crash-recovery coverage for the WAL + snapshot durability layer.
//
// The centrepiece is a failpoint sweep: a fixed mutation workload runs
// against an engine whose every file operation goes through a
// faultfs.Injector, once per failpoint, and after each simulated crash
// a fresh engine boots from the wreckage and must serve either the
// state after the last acknowledged mutation or that state plus exactly
// the one mutation in flight — byte-identically to a reference engine
// built from that state, and never anything partial.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"trajmatch/internal/faultfs"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// copyDirT recursively copies src into dst — each sweep iteration (and
// each corruption case) starts from a pristine copy of the seed disk.
func copyDirT(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		s, d := filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())
		if ent.IsDir() {
			copyDirT(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// crashStep is one operation of the sweep workload.
type crashStep struct {
	op string // "insert", "delete", "snapshot"
	tr *traj.Trajectory
	id int
}

// engineMatches reports whether e indexes exactly the trajectories of
// state (by ID; geometry is checked separately by query comparison
// against a reference engine).
func engineMatches(e *Engine, state map[int]*traj.Trajectory) bool {
	if e.Size() != len(state) {
		return false
	}
	for id := range state {
		if e.Lookup(id) == nil {
			return false
		}
	}
	return true
}

// cloneDB copies db's trajectories. Building an engine re-points its
// trajectories at arena slabs, so parallel subtests that build engines
// from one fixture each need their own copies.
func cloneDB(db []*traj.Trajectory) []*traj.Trajectory {
	out := make([]*traj.Trajectory, len(db))
	for i, tr := range db {
		out[i] = tr.Clone()
	}
	return out
}

// stateDB returns copies of state's trajectories in ID order.
func stateDB(state map[int]*traj.Trajectory) []*traj.Trajectory {
	db := make([]*traj.Trajectory, 0, len(state))
	for _, tr := range state {
		db = append(db, tr.Clone())
	}
	sort.Slice(db, func(i, j int) bool { return db[i].ID < db[j].ID })
	return db
}

// TestCrashRecoverySweep is the acceptance property of the durability
// layer: for shard counts 1, 2 and 4 (prefilter enabled throughout) and
// both crash models (kill -9 and power loss), a crash at EVERY
// fault-eligible file operation of a workload mixing mutations with a
// mid-stream snapshot leaves a directory from which a fresh engine
// recovers the acknowledged state exactly.
func TestCrashRecoverySweep(t *testing.T) {
	topt := trajtree.Options{Seed: 1, LeafSize: 4}
	db0 := testDB(24, 11)
	pool := testDB(80, 99)
	mkTraj := func(i, id int) *traj.Trajectory {
		tr := pool[i].Clone()
		tr.ID = id
		return tr
	}
	// Two mutations land in the WAL after the seed snapshot, so every
	// workload boot also exercises replay-on-boot.
	bootIns := mkTraj(0, 900)

	steps := []crashStep{
		{op: "insert", tr: mkTraj(1, 1001)},
		{op: "insert", tr: mkTraj(2, 1002)},
		{op: "delete", id: 3},
		{op: "insert", tr: mkTraj(3, 1003)},
		{op: "snapshot"},
		{op: "delete", id: 1001}, // delete across the snapshot boundary
		{op: "insert", tr: mkTraj(4, 1004)},
		{op: "delete", id: 5},
		{op: "insert", tr: mkTraj(5, 1005)},
	}
	mutations := 0
	for _, st := range steps {
		if st.op != "snapshot" {
			mutations++
		}
	}

	// states[i] is the expected index content after the first i
	// acknowledged mutations (snapshot steps change no state).
	init := map[int]*traj.Trajectory{}
	for _, tr := range db0 {
		init[tr.ID] = tr
	}
	init[bootIns.ID] = bootIns
	delete(init, 0)
	states := []map[int]*traj.Trajectory{init}
	cur := init
	for _, st := range steps {
		if st.op == "snapshot" {
			continue
		}
		next := make(map[int]*traj.Trajectory, len(cur)+1)
		for id, tr := range cur {
			next[id] = tr
		}
		if st.op == "insert" {
			next[st.tr.ID] = st.tr
		} else {
			delete(next, st.id)
		}
		states = append(states, next)
		cur = next
	}

	queries := []*traj.Trajectory{db0[2].Clone(), db0[9].Clone(), pool[20].Clone()}
	for i, q := range queries {
		q.ID = 9_000_000 + i
	}

	shardCounts := []int{1, 2, 4}
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
				// Seed disk: snapshot + a two-record WAL, written with the
				// real filesystem. Every run below starts from a copy.
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
				// The manifest records these, and every recovery boots with
				// them; the reference engines take them too.
				sketchParams := *e0.sketchParams
				if err := e0.Insert(bootIns.Clone()); err != nil {
					t.Fatal(err)
				}
				if !e0.Delete(0) {
					t.Fatal("seed delete missed")
				}
				if err := e0.Close(); err != nil {
					t.Fatal(err)
				}

				// runWorkload boots from the (copied) seed disk through inj
				// and applies the steps, counting acknowledged mutations.
				// After the injected crash the remaining steps are still
				// attempted — they must all fail un-acknowledged, which is
				// exactly the fencing the sticky crash errors provide.
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

				// Discovery run: failAt 0 never fires; it counts the
				// workload's fault-eligible operations and doubles as the
				// no-crash sanity check.
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

				// Reference engines for state comparison, built lazily and
				// shared across failpoints (the state set is fixed), with
				// the prefilter on under the snapshot's sketch parameters.
				refs := map[int]*Engine{}
				refFor := func(idx int) *Engine {
					if e, ok := refs[idx]; ok {
						return e
					}
					e, err := NewEngineFromDB(stateDB(states[idx]), topt,
						Options{CacheSize: -1, Workers: 1, Shards: shards, Prefilter: true, Sketch: sketchParams})
					if err != nil {
						t.Fatal(err)
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

					// Reboot from the wreckage with the real filesystem,
					// through the mmap boot path, and recovery must always
					// succeed — every crash the injector can produce leaves a
					// readable snapshot + WAL. (The workload boot above reads
					// the same files onto the heap through the injector, so
					// both readers see every failpoint.)
					rec, err := LoadSnapshotSpecs(iterSnap, nil, Options{
						CacheSize: -1, Workers: 1, WALDir: iterWAL, Prefilter: true, Mmap: true,
					})
					if err != nil {
						t.Fatalf("failpoint %d (%d acked): recovery failed: %v", failAt, acked, err)
					}

					// The recovered index must be the acknowledged state or
					// that state plus exactly the mutation in flight at the
					// crash — never anything else, never partial.
					matched := -1
					for _, s := range []int{acked, acked + 1} {
						if s < len(states) && engineMatches(rec, states[s]) {
							matched = s
							break
						}
					}
					if matched < 0 {
						t.Fatalf("failpoint %d: recovered %d trajectories, matches neither state %d (%d) nor %d",
							failAt, rec.Size(), acked, len(states[acked]), acked+1)
					}

					// Byte-identical serving against a reference engine
					// built fresh from the matched state.
					ref := refFor(matched)
					for qi, q := range queries {
						got := search(t, rec, q, Query{Kind: KindKNN, K: 5}).Results
						want := search(t, ref, q, Query{Kind: KindKNN, K: 5}).Results
						sameResults(t, fmt.Sprintf("failpoint %d KNN q%d", failAt, qi), got, want)
						gotR := search(t, rec, q, Query{Kind: KindRange, Radius: 150}).Results
						wantR := search(t, ref, q, Query{Kind: KindRange, Radius: 150}).Results
						sameResults(t, fmt.Sprintf("failpoint %d range q%d", failAt, qi), gotR, wantR)
						// Candidate sets depend only on the members and the
						// sketch parameters, so the rebuilt prefilter answers
						// as one built fresh over the matched state.
						gotP := search(t, rec, q, Query{Kind: KindKNN, K: 5, Prefilter: true}).Results
						wantP := search(t, ref, q, Query{Kind: KindKNN, K: 5, Prefilter: true}).Results
						sameResults(t, fmt.Sprintf("failpoint %d prefiltered KNN q%d", failAt, qi), gotP, wantP)
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("failpoint %d: close after recovery: %v", failAt, err)
					}
				}
			})
		}
	}
}

// TestWALReplayAfterKill pins the headline guarantee in its simplest
// form: mutations acknowledged under the default SyncAlways policy
// survive a kill -9 (no Close, no snapshot) and a fresh boot replays
// them all, answering byte-identically to the never-killed engine.
func TestWALReplayAfterKill(t *testing.T) {
	db := testDB(40, 13)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	opt := Options{CacheSize: -1, Shards: 2, WALDir: t.TempDir()}
	e1, err := NewEngineFromDB(db, topt, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := testDB(60, 77)
	for i := 0; i < 10; i++ {
		tr := pool[i].Clone()
		tr.ID = 5000 + i
		if err := e1.Insert(tr); err != nil {
			t.Fatalf("insert %d: %v", tr.ID, err)
		}
	}
	if !e1.Delete(0) || !e1.Delete(7) {
		t.Fatal("delete missed")
	}
	// kill -9: e1 is simply abandoned — nothing flushed, nothing closed.

	e2, err := NewEngineFromDB(db, topt, opt)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer e2.Close()
	if e2.Size() != 48 {
		t.Fatalf("rebooted size %d, want 48", e2.Size())
	}
	for i := 0; i < 10; i++ {
		if e2.Lookup(5000+i) == nil {
			t.Fatalf("acknowledged insert %d lost", 5000+i)
		}
	}
	if e2.Lookup(0) != nil || e2.Lookup(7) != nil {
		t.Fatal("acknowledged delete lost")
	}
	st := e2.Stats()
	if st.WAL == nil {
		t.Fatal("stats carry no WAL section")
	}
	if st.WAL.Replayed != 12 {
		t.Fatalf("replayed %d records, want 12", st.WAL.Replayed)
	}
	for qi := 0; qi < 5; qi++ {
		q := db[qi*7].Clone()
		q.ID = 8_000_000 + qi
		got := search(t, e2, q, Query{Kind: KindKNN, K: 6}).Results
		want := search(t, e1, q, Query{Kind: KindKNN, K: 6}).Results
		sameResults(t, fmt.Sprintf("post-replay KNN q%d", qi), got, want)
	}

	// The WAL counters are part of the public /v1/stats payload.
	srv := httptest.NewServer(NewAPIHandler(e2, HandlerOptions{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := payload["wal"]; !ok {
		t.Fatal("/v1/stats payload has no \"wal\" section")
	}
}

// TestSnapshotCorruptionMatrix damages every snapshot file in every way
// the durability layer must survive being lied to about — truncation,
// bit flips, zeroed regions, a file from another placement — and asserts
// the loader always answers with a clean error: no panic, no engine
// serving wrong data. Every cell runs through both readers (heap and
// mmap) and with and without a WAL configured, because the mixed-epoch
// salvage path must not be a loophole for bit rot.
func TestSnapshotCorruptionMatrix(t *testing.T) {
	db := testDB(50, 17)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	pristine := t.TempDir()
	if err := e.SaveSnapshot(pristine); err != nil {
		t.Fatal(err)
	}
	// The same corpus saved under 8 shards: its shard-6 file is intact
	// and vouches for itself, but its members hash to shard 2 of 4, so
	// under either damaged name below the placement check must refuse it
	// even where a WAL would excuse the foreign checksum.
	e8, err := NewEngineFromDB(cloneDB(db), topt, Options{CacheSize: -1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	other := t.TempDir()
	if err := e8.SaveSnapshot(other); err != nil {
		t.Fatal(err)
	}
	misplaced, err := os.ReadFile(filepath.Join(other, arenaFileName(6)))
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name  string
		apply func([]byte) []byte
	}{
		{"truncate-60pct", func(b []byte) []byte { return b[:len(b)*6/10] }},
		{"truncate-10bytes", func(b []byte) []byte { return b[:10] }},
		{"bitflip-middle", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0xFF
			return c
		}},
		{"zero-16", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			for i := len(c) / 3; i < len(c)/3+16 && i < len(c); i++ {
				c[i] = 0
			}
			return c
		}},
		{"saved-under-8-shards", func([]byte) []byte { return misplaced }},
	}
	for _, file := range []string{arenaFileName(0), arenaFileName(1), manifestName} {
		for _, c := range corruptions {
			for _, mm := range []bool{false, true} {
				for _, withWAL := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/mmap=%v/wal=%v", file, c.name, mm, withWAL), func(t *testing.T) {
						dir := t.TempDir()
						copyDirT(t, pristine, dir)
						path := filepath.Join(dir, file)
						data, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, c.apply(data), 0o644); err != nil {
							t.Fatal(err)
						}
						opt := Options{CacheSize: -1, Mmap: mm}
						if withWAL {
							opt.WALDir = filepath.Join(dir, "wal")
						}
						loaded, err := LoadSnapshot(dir, opt)
						if err == nil {
							loaded.Close()
							t.Fatal("corrupt snapshot loaded without error")
						}
						if c.name == "saved-under-8-shards" && withWAL && file != manifestName &&
							!strings.Contains(err.Error(), "another placement") {
							t.Fatalf("err = %v, want the placement check's refusal", err)
						}
					})
				}
			}
		}
	}
}

// TestSnapshotMixedEpoch stages the one inconsistency a crashed save can
// leave behind — a shard file of the new save under the manifest of the
// old one — and pins both outcomes: with a WAL the directory is salvaged
// and replay recovers exactly the acknowledged state; without one there
// is nothing to reconcile the epochs with, and the load is refused.
func TestSnapshotMixedEpoch(t *testing.T) {
	db := testDB(50, 19)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	old, wal := t.TempDir(), t.TempDir()
	e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Workers: 1, Shards: 2, WALDir: wal})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(old); err != nil {
		t.Fatal(err)
	}
	// Mutations on both shards, all acknowledged, all in the WAL.
	for i, tr := range testDB(12, 23) {
		tr.ID = 3000 + i
		if err := e.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Delete(db[4].ID) || !e.Delete(db[5].ID) {
		t.Fatal("delete missed")
	}
	// The crashed save: the new epoch's files, of which only shard 0's
	// rename landed. The WAL is copied first — a save that commits
	// truncates it, a save that crashes in the rename loop does not.
	mixed, mixedWAL, next := t.TempDir(), t.TempDir(), t.TempDir()
	copyDirT(t, old, mixed)
	copyDirT(t, wal, mixedWAL)
	if err := e.SaveSnapshot(next); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(next, arenaFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mixed, arenaFileName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mm := range []bool{false, true} {
		_, err := LoadSnapshot(mixed, Options{CacheSize: -1, Mmap: mm})
		if err == nil || !strings.Contains(err.Error(), "snapshot corrupt") {
			t.Fatalf("mmap=%v, no WAL: err = %v, want snapshot corrupt", mm, err)
		}
		walDir := t.TempDir()
		copyDirT(t, mixedWAL, walDir)
		rec, err := LoadSnapshot(mixed, Options{CacheSize: -1, Workers: 1, Mmap: mm, WALDir: walDir})
		if err != nil {
			t.Fatalf("mmap=%v, WAL: salvage failed: %v", mm, err)
		}
		if rec.Size() != e.Size() {
			t.Fatalf("mmap=%v: recovered %d trajectories, acknowledged %d", mm, rec.Size(), e.Size())
		}
		for it := 0; it < 8; it++ {
			q := db[(it*7)%len(db)].Clone()
			q.ID = 7_000_000 + it
			sameResults(t, fmt.Sprintf("mmap=%v it=%d", mm, it), search(t, rec, q, Query{Kind: KindKNN, K: 6}).Results, search(t, e, q, Query{Kind: KindKNN, K: 6}).Results)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotShrinkRemovesStaleShards: re-saving into a directory that
// previously held more shards — or a version-2 snapshot's gob streams —
// must not leave orphan shard files behind the new manifest.
func TestSnapshotShrinkRemovesStaleShards(t *testing.T) {
	db := testDB(60, 21)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	dir := t.TempDir()
	e8, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e8.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shard-0000.tree", "shard-0006.tree"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("TRSHRD02"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e4, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e4.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		manifestName:     true,
		arenaFileName(0): true,
		arenaFileName(1): true,
		arenaFileName(2): true,
		arenaFileName(3): true,
	}
	for _, ent := range entries {
		if !want[ent.Name()] {
			t.Fatalf("stale file %q survived the re-save", ent.Name())
		}
		delete(want, ent.Name())
	}
	for name := range want {
		t.Fatalf("expected file %q missing after re-save", name)
	}
	loaded, err := LoadSnapshot(dir, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 4 || loaded.Size() != 60 {
		t.Fatalf("reloaded %d shards / %d trajectories, want 4 / 60", loaded.Shards(), loaded.Size())
	}
}

// TestRecoveryMiddleware: a panicking handler answers with the standard
// JSON error envelope (500, code "internal") and the engine keeps
// serving afterwards.
func TestRecoveryMiddleware(t *testing.T) {
	e := newTestEngine(t, 20, Options{})
	api := NewAPIHandler(e, HandlerOptions{})
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	mux.Handle("/", api)
	srv := httptest.NewServer(withRecovery(mux))
	defer srv.Close()

	for round := 0; round < 2; round++ {
		resp, err := srv.Client().Get(srv.URL + "/boom")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking handler answered %d, want 500", resp.StatusCode)
		}
		var envelope ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("panic response is not the error envelope: %v", err)
		}
		resp.Body.Close()
		if envelope.Code != CodeInternal {
			t.Fatalf("panic response code %q, want %q", envelope.Code, CodeInternal)
		}
		if !strings.Contains(envelope.Error, "kaboom") {
			t.Fatalf("panic response %q does not name the panic", envelope.Error)
		}

		// The engine behind the same server keeps serving.
		stats, err := srv.Client().Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		stats.Body.Close()
		if stats.StatusCode != http.StatusOK {
			t.Fatalf("/v1/stats answered %d after a panic, want 200", stats.StatusCode)
		}
	}
}
