package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/faultfs"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// prefilterQueries derives nq sampling-variant probes from db: each is a
// database member re-sampled (inter-trajectory variance — the paper's
// heterogeneous-device premise) and given an off-database ID, so the
// sketch has to recognise the shape, not the point sequence.
func prefilterQueries(db []*traj.Trajectory, nq int, seed int64) []*traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	sel := make([]*traj.Trajectory, nq)
	for i := range sel {
		sel[i] = db[rng.Intn(len(db))]
	}
	qs := synth.Inter(sel, 0.5, seed+1)
	for i, q := range qs {
		q.ID = 9_000_000 + i
	}
	return qs
}

// recallAt computes tie-aware recall@k: the fraction of the prefiltered
// answer at or under the exact k-th distance. ID-set recall is
// ill-defined under distance ties — EDR distances are integer edit
// counts, so the k-th boundary routinely holds many equally-distant
// members and the exact engine's ID tie-break among them is arbitrary;
// an equally distant substitute is an equally correct k-NN answer. A
// real miss is still detected: dropping a true neighbour forces a
// strictly farther member into the prefiltered answer, which this count
// excludes. (Both engines run the same exact kernels, so tied members
// carry bit-identical distances and no epsilon is needed.)
func recallAt(got, exact Answer) float64 {
	if len(exact.Results) == 0 {
		return 1
	}
	kth := exact.Results[len(exact.Results)-1].Dist
	hit := 0
	for _, r := range got.Results {
		if r.Dist <= kth {
			hit++
		}
	}
	return float64(hit) / float64(len(exact.Results))
}

// runRecallMatrix builds one prefiltered multi-metric engine per shard
// count over db and asserts mean recall@k of prefiltered k-NN against
// the exact engine is at least minRecall for every metric.
func runRecallMatrix(t *testing.T, db []*traj.Trajectory, topt trajtree.Options,
	shardCounts []int, k, nq int, minRecall float64) {
	t.Helper()
	ctx := context.Background()
	qs := prefilterQueries(db, nq, 99)
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := NewMultiEngineFromDB(db, multiSpecs(db, topt),
				Options{CacheSize: -1, Shards: shards, Prefilter: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, metric := range e.Metrics() {
				sum, worst := 0.0, 1.0
				sawPrefilterWork := false
				for _, q := range qs {
					exact, err := e.Search(ctx, q, Query{Kind: KindKNN, K: k, Metric: metric})
					if err != nil {
						t.Fatalf("metric %s: exact: %v", metric, err)
					}
					pre, err := e.Search(ctx, q, Query{Kind: KindKNN, K: k, Metric: metric,
						Prefilter: true, WithStats: true})
					if err != nil {
						t.Fatalf("metric %s: prefiltered: %v", metric, err)
					}
					if pre.Stats.PrefilterCandidates == 0 {
						t.Fatalf("metric %s: prefiltered query admitted zero candidates", metric)
					}
					if pre.Stats.PrefilterSkipped > 0 {
						sawPrefilterWork = true
					}
					// Exactness over the admitted set: distances must be
					// real metric values, sorted like every other answer.
					for i := 1; i < len(pre.Results); i++ {
						a, b := pre.Results[i-1], pre.Results[i]
						if a.Dist > b.Dist || (a.Dist == b.Dist && a.Traj.ID > b.Traj.ID) {
							t.Fatalf("metric %s: prefiltered results out of (dist, ID) order", metric)
						}
					}
					r := recallAt(pre, exact)
					sum += r
					if r < worst {
						worst = r
					}
				}
				mean := sum / float64(len(qs))
				t.Logf("metric %s shards %d: mean recall@%d %.3f (worst %.2f)", metric, shards, k, mean, worst)
				if mean < minRecall {
					t.Errorf("metric %s shards %d: mean recall@%d %.3f < %.2f", metric, shards, k, mean, minRecall)
				}
				if !sawPrefilterWork {
					t.Errorf("metric %s shards %d: prefilter never skipped a member — candidate sets degenerate to full scans", metric, shards)
				}
			}
		})
	}
}

// TestPrefilterRecall is the accuracy half of the filter-and-verify
// contract on the 1k corpus: across shard counts and all three metrics,
// prefiltered k-NN keeps mean recall@10 at or above 0.95 against the
// exact engine, while actually skipping members (it is a prefilter, not
// a disguised full scan).
func TestPrefilterRecall(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(1000))
	runRecallMatrix(t, db, trajtree.Options{Seed: 1}, []int{1, 2, 4, 8}, 10, 20, 0.95)
}

// TestPrefilterRecall10K repeats the recall bar on the 10k corpus the
// acceptance criteria name, at the default shard count. Skipped in
// -short mode: the three exact reference indexes over 10k trajectories
// dominate the runtime.
func TestPrefilterRecall10K(t *testing.T) {
	if testing.Short() {
		t.Skip("10k recall corpus skipped in -short mode")
	}
	db := synth.Taxi(synth.DefaultTaxi(10000))
	runRecallMatrix(t, db, trajtree.Options{Seed: 1}, []int{4}, 10, 12, 0.95)
}

// TestPrefilterOffIdentical pins the compatibility half: an engine
// booted with the prefilter answers non-prefiltered queries exactly as
// an engine without one — same results, same flags, for every kind and
// metric. Building the sketches must not perturb the search path.
func TestPrefilterOffIdentical(t *testing.T) {
	db := testDB(160, 11)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	ctx := context.Background()
	plain, err := NewMultiEngineFromDB(db, multiSpecs(db, topt), Options{CacheSize: -1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := NewMultiEngineFromDB(db, multiSpecs(db, topt), Options{CacheSize: -1, Shards: 3, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 12; it++ {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 6_000_000 + it
		for _, metric := range plain.Metrics() {
			for _, req := range []Query{
				{Kind: KindKNN, K: 1 + rng.Intn(8), Metric: metric},
				{Kind: KindRange, Radius: []float64{5, 20, 80}[it%3], Metric: metric},
			} {
				want, err := plain.Search(ctx, q, req)
				if err != nil {
					t.Fatalf("it=%d metric %s: plain: %v", it, metric, err)
				}
				got, err := pre.Search(ctx, q, req)
				if err != nil {
					t.Fatalf("it=%d metric %s: prefilter-enabled: %v", it, metric, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("it=%d metric %s kind %s: prefilter-enabled engine diverged on a plain query:\ngot  %+v\nwant %+v",
						it, metric, req.Kind, got, want)
				}
			}
		}
	}

	// And the opt-in is rejected cleanly where it cannot be honoured.
	if _, err := plain.Search(ctx, db[0], Query{Kind: KindKNN, K: 3, Prefilter: true}); err == nil {
		t.Fatal("prefiltered query accepted by an engine booted without Options.Prefilter")
	}
	if _, err := pre.Search(ctx, db[0], Query{Kind: KindRange, Radius: 10, Prefilter: true}); err == nil {
		t.Fatal("prefilter accepted on a range query")
	}
}

// TestPrefilterMutationSync drives a random Insert/Delete sequence and
// asserts the sketches track the corpus: a live trajectory queried by
// its own shape is found at distance zero through the prefilter, a
// deleted ID never reappears — neither in answers nor in the raw
// candidate sets — and every answered ID is live. A final concurrent
// phase (mutators racing prefiltered readers) exists for the race
// detector. Run under -race -count=3 in CI. The engine is EDwP-only:
// the tree backend is the one Mutable metric set, and the sketches are
// engine-owned, so one mutable set exercises the whole sync path.
func TestPrefilterMutationSync(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(300))
	e, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 8},
		Options{CacheSize: -1, Shards: 2, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	live := make(map[int]*traj.Trajectory, len(db))
	for _, tr := range db {
		live[tr.ID] = tr
	}
	pool := synth.Taxi(synth.TaxiConfig{N: 150, GridSpacing: 200, CitySize: 8000,
		MinHops: 6, MaxHops: 30, SampleEvery: 45, SampleSpread: 3, Seed: 77})
	nextNew := 0
	var lastDeleted *traj.Trajectory

	rng := rand.New(rand.NewSource(13))
	liveIDs := func() []int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		return ids
	}
	probe := func(step int) {
		t.Helper()
		ids := liveIDs()
		self := live[ids[rng.Intn(len(ids))]]
		for _, metric := range e.Metrics() {
			ans, err := e.Search(ctx, self.Clone(), Query{Kind: KindKNN, K: 5, Metric: metric, Prefilter: true})
			if err != nil {
				t.Fatalf("step %d metric %s: %v", step, metric, err)
			}
			if len(ans.Results) == 0 || ans.Results[0].Traj.ID != self.ID || ans.Results[0].Dist != 0 {
				t.Fatalf("step %d metric %s: live T%d not found at distance 0 through the prefilter (got %+v)",
					step, metric, self.ID, ans.Results)
			}
			for _, r := range ans.Results {
				if _, ok := live[r.Traj.ID]; !ok {
					t.Fatalf("step %d metric %s: answer contains deleted T%d", step, metric, r.Traj.ID)
				}
			}
		}
		if lastDeleted != nil {
			si := shardIndex(lastDeleted.ID, len(e.sketches))
			cands := e.sketches[si].Candidates(lastDeleted, 1<<30) // full scan: every remaining member
			for _, id := range cands {
				if id == lastDeleted.ID {
					t.Fatalf("step %d: deleted T%d still a sketch candidate", step, lastDeleted.ID)
				}
			}
			ans, err := e.Search(ctx, lastDeleted, Query{Kind: KindKNN, K: 5, Prefilter: true})
			if err != nil {
				t.Fatalf("step %d: querying deleted shape: %v", step, err)
			}
			for _, r := range ans.Results {
				if r.Traj.ID == lastDeleted.ID {
					t.Fatalf("step %d: deleted T%d answered its own query", step, lastDeleted.ID)
				}
			}
		}
	}

	for step := 0; step < 120; step++ {
		if rng.Intn(2) == 0 && nextNew < len(pool) {
			tr := pool[nextNew].Clone()
			tr.ID = 100_000 + nextNew
			nextNew++
			if err := e.Insert(tr); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			live[tr.ID] = tr
		} else {
			ids := liveIDs()
			id := ids[rng.Intn(len(ids))]
			victim := live[id]
			if !e.Delete(id) {
				t.Fatalf("step %d: delete T%d missed", step, id)
			}
			delete(live, id)
			lastDeleted = victim
		}
		if step%10 == 9 {
			probe(step)
		}
	}

	// Rebuild re-packs the backends from the mutated corpus; the
	// sketches were kept in sync incrementally and must still agree.
	if err := e.Rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	probe(-1)

	// Concurrent phase: mutators racing prefiltered readers across all
	// metrics. Assertions are liveness-free (membership is in flux);
	// this exists so -race can see reader/writer interleavings.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40 && nextNew < len(pool); i++ {
			tr := pool[nextNew].Clone()
			tr.ID = 100_000 + nextNew
			nextNew++
			if err := e.Insert(tr); err != nil {
				t.Errorf("concurrent insert: %v", err)
				return
			}
			e.Delete(tr.ID)
		}
	}()
	go func() {
		defer wg.Done()
		ids := liveIDs()
		for i := 0; i < 40; i++ {
			q := live[ids[i%len(ids)]].Clone()
			q.ID = 8_000_000 + i
			metric := e.Metrics()[i%len(e.Metrics())]
			if _, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 3, Metric: metric, Prefilter: true}); err != nil {
				t.Errorf("concurrent prefiltered search: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestPrefilterSnapshotRoundTrip asserts the manifest records the
// resolved sketch parameters and that a warm boot rebuilds the exact
// same prefilter: identical parameters, identical per-shard candidate
// sets, identical prefiltered answers — with no prefilter requested in
// the loader's options (the manifest wins, like the shard count).
func TestPrefilterSnapshotRoundTrip(t *testing.T) {
	db := testDB(150, 43)
	topt := trajtree.Options{Seed: 1, LeafSize: 5}
	dir := t.TempDir()
	e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: 3, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}

	man, err := readManifest(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Sketch == nil {
		t.Fatal("manifest did not record the sketch parameters")
	}
	if *man.Sketch != e.SketchParams() {
		t.Fatalf("manifest sketch %+v != engine's resolved %+v", *man.Sketch, e.SketchParams())
	}

	loaded, err := LoadSnapshot(dir, Options{CacheSize: -1})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !loaded.PrefilterEnabled() {
		t.Fatal("warm boot dropped the prefilter recorded in the manifest")
	}
	if loaded.SketchParams() != e.SketchParams() {
		t.Fatalf("reloaded sketch params %+v != original %+v", loaded.SketchParams(), e.SketchParams())
	}

	ctx := context.Background()
	for it := 0; it < 10; it++ {
		q := db[(it*13)%len(db)].Clone()
		q.ID = 7_000_000 + it
		for si := range e.sketches {
			want := e.sketches[si].Candidates(q, 40)
			got := loaded.sketches[si].Candidates(q, 40)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("it=%d shard %d: candidate sets diverged after reload:\ngot  %v\nwant %v", it, si, got, want)
			}
		}
		want, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 8, Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(ctx, q, Query{Kind: KindKNN, K: 8, Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("prefiltered KNN it=%d", it), asTreeResults(got.Results), asTreeResults(want.Results))
	}

	// A snapshot written without a prefilter records none — and the
	// loader's own Options.Prefilter then builds a fresh one.
	dir2 := t.TempDir()
	plain, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.SaveSnapshot(dir2); err != nil {
		t.Fatal(err)
	}
	man2, err := readManifest(faultfs.OS{}, dir2)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Sketch != nil {
		t.Fatalf("prefilter-less snapshot recorded sketch params %+v", *man2.Sketch)
	}
	fresh, err := LoadSnapshot(dir2, Options{CacheSize: -1, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.PrefilterEnabled() {
		t.Fatal("Options.Prefilter ignored on warm boot of a prefilter-less snapshot")
	}
}

// asTreeResults adapts backend results to the trajtree result type the
// shared sameResults helper asserts on.
func asTreeResults(rs []backend.Result) []trajtree.Result {
	out := make([]trajtree.Result, len(rs))
	for i, r := range rs {
		out[i] = trajtree.Result{Traj: r.Traj, Dist: r.Dist}
	}
	return out
}

// TestPrefilterHTTP drives the opt-in over the wire: stats report the
// candidate accounting, an engine without the prefilter answers 501,
// and prefilter on a range query is a 400.
func TestPrefilterHTTP(t *testing.T) {
	db := testDB(120, 7)
	e, err := NewMultiEngineFromDB(db, multiSpecs(db, trajtree.Options{Seed: 1, LeafSize: 5}),
		Options{CacheSize: -1, Shards: 2, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	q := db[10].Clone()
	q.ID = 1_000_000
	wq := wire(q)

	var got SearchResponse
	req := SearchRequest{Query: Query{Kind: KindKNN, K: 5, Prefilter: true, WithStats: true}, QueryTraj: &wq}
	if r := postJSON(t, srv, "/v1/search", req, &got); r.StatusCode != http.StatusOK {
		t.Fatalf("prefiltered search: status %d", r.StatusCode)
	}
	if got.Stats == nil || got.Stats.PrefilterCandidates == 0 {
		t.Fatalf("wire stats missing prefilter accounting: %+v", got.Stats)
	}
	want, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 5, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("wire answer %d results, engine %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if got.Results[i].ID != want.Results[i].Traj.ID {
			t.Fatalf("rank %d: wire T%d != engine T%d", i, got.Results[i].ID, want.Results[i].Traj.ID)
		}
	}

	// /v1/stats surfaces the prefilter capability and counters.
	var stats Stats
	postGet(t, srv, "/v1/stats", &stats)
	if stats.PrefilterCandidates == 0 {
		t.Fatalf("/v1/stats did not accumulate prefilter candidates: %+v", stats)
	}
	if !stats.Prefilter {
		t.Fatalf("/v1/stats does not report the prefilter as enabled: %+v", stats)
	}

	// Range + prefilter is an invalid query.
	resp := postRaw(t, srv, "/v1/search",
		SearchRequest{Query: Query{Kind: KindRange, Radius: 20, Prefilter: true}, QueryTraj: &wq})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("prefilter on range: status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != CodeInvalidQuery {
		t.Fatalf("prefilter on range: code %q, want %q", e.Code, CodeInvalidQuery)
	}

	// An engine booted without the prefilter declines the opt-in.
	plain, err := NewEngineFromDB(db, trajtree.Options{Seed: 1, LeafSize: 5}, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(NewAPIHandler(plain, HandlerOptions{}))
	defer psrv.Close()
	resp = postRaw(t, psrv, "/v1/search",
		SearchRequest{Query: Query{Kind: KindKNN, K: 5, Prefilter: true}, QueryTraj: &wq})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("prefilter without sketches: status %d, want 501", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != CodeNotImplemented {
		t.Fatalf("prefilter without sketches: code %q, want %q", e.Code, CodeNotImplemented)
	}
}

// TestPrefilterRebootAfterReplay pins the boot order: the sketch is
// built once, after WAL replay, from the post-replay members, and must
// answer exactly as the pre-crash engine's sketch did — which filed
// every mutation as it happened. The log after the snapshot holds
// inserts, deletes, a delete followed by a re-insert of the same ID
// with other geometry, an insert the log later deletes, a sealed live
// track and a track still live at the crash. Each reboot runs from its
// own copy of the files: cold over the WAL alone, and warm from the
// snapshot on the heap and mapped, at 1 and 3 shards.
func TestPrefilterRebootAfterReplay(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(450))
	poolCfg := synth.DefaultTaxi(60)
	poolCfg.Seed = 9
	pool := synth.Taxi(poolCfg)
	topt := trajtree.Options{Seed: 1, LeafSize: 8}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			snapDir, walDir, coldWAL := t.TempDir(), t.TempDir(), t.TempDir()
			// The cold arm logs the same mutations into a WAL of its own
			// that no snapshot truncates.
			cold, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: shards, Prefilter: true, WALDir: coldWAL})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: shards, Prefilter: true, WALDir: walDir})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SaveSnapshot(snapDir); err != nil {
				t.Fatal(err)
			}
			for _, eng := range []*Engine{cold, e} {
				mutateAfterSnapshot(t, eng, db, pool)
			}
			var queries []*traj.Trajectory
			for _, tr := range append(slices.Clone(db[:30]), pool...) {
				q := tr.Clone()
				q.ID = 8_000_000 + len(queries)
				queries = append(queries, q)
			}
			queries = append(queries, e.Lookup(700_000))

			boots := []struct {
				name string
				boot func(t *testing.T) (*Engine, error)
			}{
				{"cold", func(t *testing.T) (*Engine, error) {
					w := t.TempDir()
					copyDirT(t, coldWAL, w)
					return NewEngineFromDB(db, topt, Options{CacheSize: -1, Shards: shards, Prefilter: true, WALDir: w})
				}},
			}
			for _, mm := range []bool{false, true} {
				boots = append(boots, struct {
					name string
					boot func(t *testing.T) (*Engine, error)
				}{fmt.Sprintf("mmap=%v", mm), func(t *testing.T) (*Engine, error) {
					s, w := t.TempDir(), t.TempDir()
					copyDirT(t, snapDir, s)
					copyDirT(t, walDir, w)
					return LoadSnapshot(s, Options{CacheSize: -1, WALDir: w, Mmap: mm})
				}})
			}
			for _, b := range boots {
				t.Run(b.name, func(t *testing.T) {
					want := e
					if b.name == "cold" {
						want = cold
					}
					got, err := b.boot(t)
					if err != nil {
						t.Fatalf("reboot: %v", err)
					}
					defer got.Close()
					if got.Size() != want.Size() || len(got.sketches) != len(want.sketches) {
						t.Fatalf("rebooted %d members in %d sketches, want %d in %d",
							got.Size(), len(got.sketches), want.Size(), len(want.sketches))
					}
					for si := range want.sketches {
						if got.sketches[si].Size() != want.sketches[si].Size() {
							t.Fatalf("shard %d: sketch holds %d members, want %d", si, got.sketches[si].Size(), want.sketches[si].Size())
						}
						for _, q := range queries {
							for _, k := range []int{10, 40, 125} {
								gi, wi := got.sketches[si].Candidates(q, k), want.sketches[si].Candidates(q, k)
								if !slices.Equal(gi, wi) {
									t.Fatalf("shard %d query %d want %d: candidates %v, pre-crash %v", si, q.ID, k, gi, wi)
								}
							}
						}
					}
					for _, q := range queries {
						g := search(t, got, q, Query{Kind: KindKNN, K: 5, Prefilter: true})
						w := search(t, want, q, Query{Kind: KindKNN, K: 5, Prefilter: true})
						sameResults(t, fmt.Sprintf("prefiltered KNN q%d", q.ID), asTreeResults(g.Results), asTreeResults(w.Results))
					}
				})
			}
		})
	}
}

// mutateAfterSnapshot logs the post-snapshot history of
// TestPrefilterRebootAfterReplay into e.
func mutateAfterSnapshot(t *testing.T, e *Engine, db, pool []*traj.Trajectory) {
	t.Helper()
	for i, tr := range pool[:20] {
		c := tr.Clone()
		c.ID = 500_000 + i
		if err := e.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if !e.Delete(db[i*11].ID) {
			t.Fatalf("delete %d missed", db[i*11].ID)
		}
	}
	// Deleted, then back under the same ID with another geometry.
	for i, tr := range pool[20:30] {
		id := db[i*11+5].ID
		if !e.Delete(id) {
			t.Fatalf("delete %d missed", id)
		}
		c := tr.Clone()
		c.ID = id
		if err := e.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	// Inserted, then deleted again: filed by the live sketch, never by
	// the rebooted one.
	for i, tr := range pool[30:40] {
		c := tr.Clone()
		c.ID = 600_000 + i
		if err := e.Insert(c); err != nil {
			t.Fatal(err)
		}
		if !e.Delete(c.ID) {
			t.Fatalf("delete %d missed", c.ID)
		}
	}
	// One live track sealed, one still live at the crash.
	for i, id := range []int{700_000, 700_001} {
		pts := pool[40+i].Points
		half := len(pts) / 2
		if _, err := e.Append(id, 3, pts[:half]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Append(id, 3, pts[half:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Seal(700_000); err != nil {
		t.Fatal(err)
	}
}
