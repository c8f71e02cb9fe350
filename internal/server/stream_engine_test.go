// Engine-level coverage of the live-ingest subsystem: read-your-writes
// visibility of appends, continuous-query event semantics against a
// polling oracle, the sketch token gate's counters, sealing, and the
// concurrent append/watch/seal/search interleavings (run under
// -race -count=3 in CI's race-fanout job).
package server

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/stream"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// TestAppendReadYourWrites is the satellite regression: a point
// acknowledged by Append must be visible to the very next query, at
// every shard count, for every query kind, with the result cache
// enabled (a stale cached answer is exactly the bug this guards).
func TestAppendReadYourWrites(t *testing.T) {
	ctx := context.Background()
	pool := testDB(10, 123)
	src := pool[3]
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newTestEngine(t, 40, Options{Shards: shards, Prefilter: true})
			const id = 7000

			// The track's ID must be findable only via the live buffer:
			// it exists in no sealed shard.
			if e.Lookup(id) != nil {
				t.Fatal("test ID collides with the seeded corpus")
			}
			if _, err := e.Append(id, 1, src.Points[:2]); err != nil {
				t.Fatalf("first append: %v", err)
			}
			q := traj.New(9_100_000, append([]traj.Point(nil), src.Points[:2]...))
			ans, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 3})
			if err != nil {
				t.Fatalf("knn after first append: %v", err)
			}
			if len(ans.Results) == 0 || ans.Results[0].Traj.ID != id || ans.Results[0].Dist != 0 {
				t.Fatalf("live track invisible to the next query: %+v", toNeighbors(ans.Results))
			}

			// Every subsequent acked point is visible to the immediately
			// following query of the grown prefix — the same query
			// trajectory is reused on purpose, so a result cache that
			// missed the append's generation bump would serve the stale
			// answer.
			for j := 2; j < len(src.Points); j++ {
				if off, err := e.Append(id, 1, src.Points[j:j+1]); err != nil || off != j {
					t.Fatalf("append %d: offset %d err %v", j, off, err)
				}
				q := traj.New(9_100_001, append([]traj.Point(nil), src.Points[:j+1]...))
				for round := 0; round < 2; round++ { // second round hits the cache
					ans, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 3})
					if err != nil {
						t.Fatalf("knn after append %d: %v", j, err)
					}
					if len(ans.Results) == 0 || ans.Results[0].Traj.ID != id || ans.Results[0].Dist != 0 {
						t.Fatalf("prefix %d round %d: live track not the exact match: %+v",
							j+1, round, toNeighbors(ans.Results))
					}
				}
			}

			// Range and sub-trajectory queries see the live track too.
			full := traj.New(9_100_002, append([]traj.Point(nil), src.Points...))
			rans, err := e.Search(ctx, full, Query{Kind: KindRange, Radius: 1})
			if err != nil {
				t.Fatalf("range: %v", err)
			}
			found := false
			for _, r := range rans.Results {
				if r.Traj.ID == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("live track missing from range answer: %+v", toNeighbors(rans.Results))
			}
			sub := traj.New(9_100_003, append([]traj.Point(nil), src.Points[1:3]...))
			sans, err := e.Search(ctx, sub, Query{Kind: KindSubKNN, K: 2})
			if err != nil {
				t.Fatalf("subknn: %v", err)
			}
			if len(sans.Results) == 0 || sans.Results[0].Traj.ID != id || sans.Results[0].Dist != 0 {
				t.Fatalf("live track not the exact sub-match: %+v", toNeighbors(sans.Results))
			}

			// Sealing folds the track into the sealed shards with
			// identical answers.
			if err := e.Seal(id); err != nil {
				t.Fatalf("seal: %v", err)
			}
			if e.Lookup(id) == nil || e.LiveTracks() != 0 {
				t.Fatal("seal did not fold the track into the index")
			}
			ans2, err := e.Search(ctx, q, Query{Kind: KindKNN, K: 3})
			if err != nil || len(ans2.Results) == 0 || ans2.Results[0].Traj.ID != id {
				t.Fatalf("sealed track lost: %+v err %v", toNeighbors(ans2.Results), err)
			}
		})
	}
}

// TestAppendValidation pins the append-path rejections: empty deltas,
// non-finite coordinates, time regressions (within a delta and across
// deltas), and appends onto sealed IDs.
func TestAppendValidation(t *testing.T) {
	e := newTestEngine(t, 10, Options{Shards: 2})
	if _, err := e.Append(800, 0, nil); err == nil {
		t.Fatal("empty append accepted")
	}
	bad := []traj.Point{traj.P(0, 0, 0), {X: math.Inf(1), Y: 1, T: 2}}
	if _, err := e.Append(800, 0, bad); err == nil {
		t.Fatal("non-finite point accepted")
	}
	if _, err := e.Append(800, 0, []traj.Point{traj.P(0, 0, 5), traj.P(1, 1, 4)}); err == nil {
		t.Fatal("in-delta time regression accepted")
	}
	if _, err := e.Append(800, 0, []traj.Point{traj.P(0, 0, 5), traj.P(1, 1, 6)}); err != nil {
		t.Fatalf("valid append rejected: %v", err)
	}
	if _, err := e.Append(800, 0, []traj.Point{traj.P(2, 2, 5.5)}); err == nil {
		t.Fatal("cross-delta time regression accepted")
	}
	if _, err := e.Append(0, 0, []traj.Point{traj.P(0, 0, 0)}); err == nil {
		t.Fatal("append onto a sealed (indexed) ID accepted")
	}
	if err := e.Seal(801); err == nil {
		t.Fatal("seal of an unknown track accepted")
	}
	if _, err := e.Append(802, 0, []traj.Point{traj.P(0, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(802); err == nil {
		t.Fatal("seal of a one-point track accepted")
	}
	// Deleting a live track drops it entirely.
	if !e.Delete(800) {
		t.Fatal("live-track delete missed")
	}
	if _, ok := e.LiveTrack(800); ok {
		t.Fatal("deleted live track survived")
	}
}

// TestWatchEventsMatchPollingOracle is the satellite property test: the
// continuous-query events the engine publishes are byte-identical —
// same order, same fields — to what polling the same prefix query
// after every append would produce. The engine here has no sketch
// prefilter, so every watch evaluates exactly and the oracle is the
// plain kernel with no gate to replicate: no missed matches, no
// phantom matches, no duplicate (unlatched) matches.
func TestWatchEventsMatchPollingOracle(t *testing.T) {
	e := newTestEngine(t, 20, Options{Shards: 2})
	pool := testDB(12, 55)
	sub := e.sets[0].shards[0].be.(backend.SubDistancer)

	type oracleWatch struct {
		id        int
		pattern   *traj.Trajectory
		threshold float64
		topk      *stream.Watch // reuses the engine's Offer semantics
		matched   map[int]bool  // threshold latch per track
	}
	var oracle []*oracleWatch
	addWatch := func(src *traj.Trajectory, lo, hi int, threshold float64, k int) {
		pattern := traj.New(-1, append([]traj.Point(nil), src.Points[lo:hi]...))
		id, err := e.Watch(pattern, "", threshold, k, false)
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
		ow := &oracleWatch{id: id, pattern: pattern, threshold: threshold, matched: map[int]bool{}}
		if k > 0 {
			ow.topk = &stream.Watch{K: k}
		}
		oracle = append(oracle, ow)
	}
	addWatch(pool[2], 1, 4, 120, 0)
	addWatch(pool[5], 0, 3, 0, 2)
	addWatch(pool[9], 2, 5, 1e-9, 0) // matches only its own track, exactly

	tracks := map[int]*traj.Trajectory{
		7201: pool[2],
		7202: pool[5],
		7203: pool[9],
		7204: pool[11],
	}
	ids := []int{7201, 7202, 7203, 7204}
	prefix := map[int]int{}

	var want []stream.Event
	poll := func(id int) {
		n := prefix[id]
		if n < 2 {
			return
		}
		tr := traj.New(id, append([]traj.Point(nil), tracks[id].Points[:n]...))
		for _, ow := range oracle {
			if ow.threshold > 0 && ow.matched[id] {
				continue
			}
			limit := ow.threshold
			if ow.topk != nil {
				limit = ow.topk.KthBound()
			}
			d, abandoned := sub.SubDistanceBetween(ow.pattern, tr, limit, nil)
			if abandoned || d > limit {
				continue
			}
			if ow.topk != nil {
				if changed, rank := ow.topk.Offer(id, d); changed {
					want = append(want, stream.Event{
						Seq: uint64(len(want) + 1), Watch: ow.id, Track: id,
						Metric: trajtree.MetricName, Dist: d, PrefixLen: n, Rank: rank,
					})
				}
				continue
			}
			ow.matched[id] = true
			want = append(want, stream.Event{
				Seq: uint64(len(want) + 1), Watch: ow.id, Track: id,
				Metric: trajtree.MetricName, Dist: d, PrefixLen: n, Rank: -1,
			})
		}
	}

	// Interleave single-point appends round-robin across the tracks,
	// adding a fourth watch mid-stream to exercise the catch-up path.
	for step := 0; step < 5; step++ {
		if step == 2 {
			addWatch(pool[11], 0, 4, 200, 0)
		}
		for _, id := range ids {
			src := tracks[id]
			if prefix[id] >= len(src.Points) {
				continue
			}
			j := prefix[id]
			if _, err := e.Append(id, 0, src.Points[j:j+1]); err != nil {
				t.Fatalf("append track %d point %d: %v", id, j, err)
			}
			prefix[id] = j + 1
			poll(id)
		}
	}

	got, gap := e.Events(0, 0)
	if gap {
		t.Fatal("event log reported a gap")
	}
	if len(want) == 0 {
		t.Fatal("degenerate workload: the oracle produced no events")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events diverge from the polling oracle:\n got %+v\nwant %+v", got, want)
	}
	if e.events.LastSeq() != uint64(len(want)) {
		t.Fatalf("last event seq %d, want %d", e.events.LastSeq(), len(want))
	}
	// Sealing a matched track must not re-emit anything.
	before := e.events.LastSeq()
	if err := e.Seal(7203); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if e.events.LastSeq() != before {
		t.Fatal("seal published an event")
	}
}

// TestWatchTokenGate asserts the sketch prefilter is doing the work the
// bench counter-asserts: with the prefilter on, a watch whose pattern
// is far from a track never costs an exact kernel evaluation on that
// track's appends (gate skips accumulate), while a colliding pattern
// still matches — and an Exact watch bypasses the gate entirely.
func TestWatchTokenGate(t *testing.T) {
	e := newTestEngine(t, 30, Options{Shards: 2, Prefilter: true})
	pool := testDB(12, 55)
	src := pool[2]

	// A pattern geometrically disjoint from everything the track visits.
	farPts := []traj.Point{traj.P(1e6, 1e6, 0), traj.P(1e6+50, 1e6+50, 10)}
	far, err := e.Watch(traj.New(-1, farPts), "", 10, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	near, err := e.Watch(traj.New(-1, append([]traj.Point(nil), src.Points[1:4]...)), "", 1e-9, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.Watch(traj.New(-1, farPts), "", 10, 0, true)
	if err != nil {
		t.Fatal(err)
	}

	const id = 7300
	for j := range src.Points {
		if _, err := e.Append(id, 0, src.Points[j:j+1]); err != nil {
			t.Fatalf("append %d: %v", j, err)
		}
	}
	evs, _ := e.Events(0, 0)
	if len(evs) != 1 || evs[0].Watch != near || evs[0].Track != id {
		t.Fatalf("expected exactly the near watch to match, got %+v", evs)
	}
	_ = far
	st := e.Stats().Stream
	if st == nil {
		t.Fatal("stats carry no stream section")
	}
	if st.WatchGateSkips == 0 {
		t.Fatal("token gate skipped nothing — the prefilter is not saving work")
	}
	if st.WatchEvals == 0 {
		t.Fatal("no exact evaluations ran at all")
	}
	// The exact watch must have been evaluated on every eligible append
	// (prefix >= 2) despite being geometrically hopeless: 4 appends.
	if st.WatchEvals < 4 {
		t.Fatalf("exact watch was gated: %d evals", st.WatchEvals)
	}
	_ = exact
	if st.Watches != 3 || st.LiveTracks != 1 || st.LivePoints != len(src.Points) {
		t.Fatalf("stream stats off: %+v", st)
	}
}

// TestStreamConcurrent drives concurrent appenders, a watcher
// registering and unregistering, event consumers, queries and the
// background sealer against one WAL-backed engine. Run under -race
// -count=3 in CI. The final state must be exact: every track sealed
// with every acknowledged point.
func TestStreamConcurrent(t *testing.T) {
	pool := testDB(40, 99)
	e, err := NewEngineFromDB(testDB(24, 7), trajtree.Options{Seed: 1, LeafSize: 5}, Options{
		Shards: 4, Prefilter: true, WALDir: t.TempDir(),
		SealAfter: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const appenders = 4
	const perTrack = 12
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := 7400 + g
			src := pool[g*3]
			for j := 0; j < perTrack; j++ {
				pts := []traj.Point{traj.P(
					src.Points[j%len(src.Points)].X,
					src.Points[j%len(src.Points)].Y,
					float64(j),
				)}
				if _, err := e.Append(id, g, pts); err != nil {
					t.Errorf("append track %d: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // watcher churn
		defer wg.Done()
		for i := 0; i < 10; i++ {
			id, err := e.Watch(traj.New(-1, pool[i].Points[:3]), "", 100, 0, false)
			if err != nil {
				t.Errorf("watch: %v", err)
				return
			}
			if i%2 == 0 {
				e.Unwatch(id)
			}
		}
	}()
	wg.Add(1)
	go func() { // event consumer + queries
		defer wg.Done()
		var since uint64
		for i := 0; i < 20; i++ {
			evs, _ := e.Events(since, 16)
			for _, ev := range evs {
				if ev.Seq <= since {
					t.Errorf("event seq went backwards: %d after %d", ev.Seq, since)
					return
				}
				since = ev.Seq
			}
			q := pool[i%8].Clone()
			q.ID = 9_200_000 + i
			if _, err := e.Search(context.Background(), q, Query{Kind: KindKNN, K: 3}); err != nil {
				t.Errorf("search: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// The background sealer must fold every idle track in.
	deadline := time.Now().Add(10 * time.Second)
	for e.LiveTracks() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := e.LiveTracks(); n > 0 {
		t.Fatalf("%d tracks still live after the sealer deadline", n)
	}
	for g := 0; g < appenders; g++ {
		tr := e.Lookup(7400 + g)
		if tr == nil {
			t.Fatalf("track %d not sealed", 7400+g)
		}
		if len(tr.Points) != perTrack {
			t.Fatalf("track %d sealed with %d points, want %d", 7400+g, len(tr.Points), perTrack)
		}
	}
}
