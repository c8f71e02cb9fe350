// Microbenchmarks of the search path: the kernel, the tree (fresh and
// maintained through churn), the engine's batch and shard fan-out, the
// metric backends and the prefilter. The paper's tables and figures are cmd/trajbench's job.
package trajmatch_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"trajmatch"
	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/dtwindex"
	"trajmatch/internal/edrindex"
	"trajmatch/internal/eval"
	"trajmatch/internal/raceflag"
	"trajmatch/internal/trajtree"
)

// benchTaxiN is the size of the small taxi corpus most benchmarks share.
const benchTaxiN = 150

var (
	taxiOnce sync.Once
	taxiDB   []*trajmatch.Trajectory
)

func benchTaxi() []*trajmatch.Trajectory {
	taxiOnce.Do(func() {
		taxiDB = trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(benchTaxiN))
	})
	return taxiDB
}

func benchQueries(n int) []*trajmatch.Trajectory {
	db := benchTaxi()
	rng := rand.New(rand.NewSource(99))
	out := make([]*trajmatch.Trajectory, n)
	for i := range out {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 1_000_000 + i
		out[i] = q
	}
	return out
}

// BenchmarkTreeKNN runs a rotating set of k-NN queries on the standing
// index — the benchmark the bounded-kernel speedup target (ISSUE 2) is
// measured on. It reports how many exact evaluations ran per query and
// how many of them the bounded kernel abandoned early, making the
// fast-path benefit visible next to the timing.
func BenchmarkTreeKNN(b *testing.B) {
	db := benchTaxi()
	tree, err := trajmatch.NewIndex(db, trajmatch.IndexOptions{PivotCandidates: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := benchQueries(8)
	b.ResetTimer()
	calls, abandons := 0, 0
	for i := 0; i < b.N; i++ {
		_, st, _, _ := tree.SearchKNN(queries[i%len(queries)], 10, nil, nil)
		calls += st.DistanceCalls
		abandons += st.EarlyAbandons
	}
	b.ReportMetric(float64(calls)/float64(b.N), "distcalls/query")
	b.ReportMetric(float64(abandons)/float64(b.N), "abandons/query")
}

// searchArm is one arm of the tree-vs-scan benchmarks: a query set and
// the search it runs.
type searchArm struct {
	name    string
	queries []*trajmatch.Trajectory
	search  func(*trajmatch.Index, *trajmatch.Trajectory) trajmatch.QueryStats
}

func knnArm(t *trajmatch.Index, q *trajmatch.Trajectory) trajmatch.QueryStats {
	_, st, _, _ := t.SearchKNN(q, 10, nil, nil)
	return st
}

// scanArm is the floor the index has to beat: eval.ScanKNN, the same
// members in ID order through the same verify step and bounded kernel.
func scanArm(t *trajmatch.Index, q *trajmatch.Trajectory) trajmatch.QueryStats {
	_, st := eval.ScanKNN(t, q, 10)
	return st
}

// runSearchArms runs each arm as a sub-benchmark over db (runArm). Arms
// share one tree, built by the first arm selected.
func runSearchArms(b *testing.B, db []*trajmatch.Trajectory, arms []searchArm) {
	var t *trajmatch.Index
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			if t == nil {
				var err error
				t, err = trajmatch.NewIndex(db, trajmatch.IndexOptions{Parallel: true, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
			}
			runArm(b, t, arm)
		})
	}
}

// runArm runs arm over t, one query per operation, and reports the work
// counters per query.
func runArm(b *testing.B, t *trajmatch.Index, arm searchArm) {
	var sum trajmatch.QueryStats
	for i := 0; i < b.N; i++ {
		sum.Add(arm.search(t, arm.queries[i%len(arm.queries)]))
	}
	n := float64(b.N)
	b.ReportMetric(float64(sum.DistanceCalls-sum.ScreenRejects)/n, "kernelstarts/query")
	b.ReportMetric(float64(sum.DistanceCalls)/n, "distcalls/query")
	b.ReportMetric(float64(sum.EarlyAbandons)/n, "abandons/query")
	b.ReportMetric(float64(sum.LowerBoundCalls)/n, "lbcalls/query")
	b.ReportMetric(float64(sum.NodesVisited)/n, "visited/query")
}

// BenchmarkKNN10k runs the bench/ cold-search request set — the same
// 10 000 trips, index options and 210 queries (140 k-NN, 42 range, 28
// subknn) — directly against the tree: one operation is one query. The
// arms are k-NN, range, subknn, and scan, the k-NN queries through the
// ID-order scan, so TrajTree-vs-scan is read off one command. It is also the
// harness for CPU profiles of the exact-search path at a size where the
// index prunes (go test -run '^$' -bench 'KNN10k/knn' -cpuprofile ...);
// its work counters repeat exactly from run to run. Per k-NN query they
// read 414.8 distance calls, 390.8 abandons, 185.1 kernel starts, 2 811
// bound calls and 89.6 nodes visited; range starts 142.5 kernels and
// subknn 218.1.
func BenchmarkKNN10k(b *testing.B) {
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(10000))
	qcfg := trajmatch.DefaultTaxiConfig(210)
	qcfg.Seed += 7919
	queries := trajmatch.GenerateTaxi(qcfg)
	knn, rng, sub := queries[:140], queries[140:182], queries[182:]
	runSearchArms(b, db, []searchArm{
		{"knn", knn, knnArm},
		{"range", rng, func(t *trajmatch.Index, q *trajmatch.Trajectory) trajmatch.QueryStats {
			_, st, _, _ := t.SearchRange(q, 500, nil)
			return st
		}},
		{"subknn", sub, func(t *trajmatch.Index, q *trajmatch.Trajectory) trajmatch.QueryStats {
			_, st, _, _ := t.SearchSub(q, 10, nil, nil)
			return st
		}},
		{"scan", knn, scanArm},
	})
}

// BenchmarkKNN10kChurned prices the maintained tree against a fresh
// build: BenchmarkKNN10k's corpus churned with no rebuild, so that Delete
// and Insert alone maintain the tree, in four sweeps — 25, 50 and 100 %
// of its trips replaced (every fourth, every second, every one, each
// through one Delete and one Insert) and the corpus doubled by Insert
// alone (grow100). Each sweep runs the 140 k-NN queries on the maintained
// tree (arm maintained) and on a fresh build over the same members (arm
// fresh), and reports their work counters per query; the maintained arm
// also reports the mean, the slowest and the 99th-percentile Delete of
// its churn. Under -short only replace25 runs.
func BenchmarkKNN10kChurned(b *testing.B) {
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(10000))
	cfg := trajmatch.DefaultTaxiConfig(len(db))
	cfg.Seed += 31
	extra := trajmatch.GenerateTaxi(cfg)
	for i, tr := range extra {
		tr.ID = 3_000_000 + i
	}
	qcfg := trajmatch.DefaultTaxiConfig(210)
	qcfg.Seed += 7919
	knn := searchArm{"knn", trajmatch.GenerateTaxi(qcfg)[:140], knnArm}
	opt := trajmatch.IndexOptions{Parallel: true, Seed: 1}
	sweeps := []struct {
		name           string
		stride, insert int // replace every stride-th trip (0: none), then insert extra[:insert]
	}{{"replace25", 4, 0}, {"replace50", 2, 0}, {"replace100", 1, 0}, {"grow100", 0, len(extra)}}
	if testing.Short() {
		sweeps = sweeps[:1]
	}
	for _, sw := range sweeps {
		b.Run(sw.name, func(b *testing.B) {
			maintained, err := trajmatch.NewIndex(cloneAll(db), opt)
			if err != nil {
				b.Fatal(err)
			}
			var dels []float64
			for i := 0; sw.stride > 0 && i*sw.stride < len(db); i++ {
				start := time.Now()
				if !maintained.Delete(db[i*sw.stride].ID) {
					b.Fatalf("delete %d: not found", db[i*sw.stride].ID)
				}
				dels = append(dels, float64(time.Since(start))/float64(time.Millisecond))
				if err := maintained.Insert(extra[i].Clone()); err != nil {
					b.Fatal(err)
				}
			}
			for _, tr := range extra[:sw.insert] {
				if err := maintained.Insert(tr.Clone()); err != nil {
					b.Fatal(err)
				}
			}
			fresh, err := trajmatch.NewIndex(cloneAll(maintained.All()), opt)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("maintained", func(b *testing.B) {
				runArm(b, maintained, knn)
				if len(dels) > 0 {
					sort.Float64s(dels)
					sum := 0.0
					for _, d := range dels {
						sum += d
					}
					b.ReportMetric(1000*sum/float64(len(dels)), "mean-us/delete")
					b.ReportMetric(dels[len(dels)-1], "max-ms/delete")
					b.ReportMetric(dels[len(dels)*99/100], "p99-ms/delete")
				}
			})
			b.Run("fresh", func(b *testing.B) { runArm(b, fresh, knn) })
		})
	}
}

// cloneAll returns copies of ts, so an index owns headers no other index
// shares.
func cloneAll(ts []*trajmatch.Trajectory) []*trajmatch.Trajectory {
	out := make([]*trajmatch.Trajectory, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// BenchmarkKNNASL is BenchmarkKNN10k's tree-vs-scan pair on the second
// corpus, the one the node boxes prune least: the default ASL gestures,
// 40 points each and all overlapping in one workspace, with the first
// recording of each of the 98 signs held out as the queries (2 548
// indexed).
func BenchmarkKNNASL(b *testing.B) {
	var db, queries []*trajmatch.Trajectory
	seen := map[int]bool{}
	for _, tr := range trajmatch.GenerateASL(trajmatch.DefaultASLConfig()) {
		if !seen[tr.Label] {
			seen[tr.Label] = true
			queries = append(queries, tr)
		} else {
			db = append(db, tr)
		}
	}
	runSearchArms(b, db, []searchArm{
		{"knn", queries, knnArm},
		{"scan", queries, scanArm},
	})
}

// BenchmarkDistanceBounded isolates the bounded kernel: the same pair
// evaluated unbounded, with a generous limit (full evaluation plus bound
// bookkeeping) and with a tight limit (early abandon after a few rows).
func BenchmarkDistanceBounded(b *testing.B) {
	db := benchTaxi()
	x, y := db[0], db[1]
	full := core.Distance(x, y)
	b.Run("unbounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Distance(x, y)
		}
	})
	b.Run("limit-loose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DistanceBounded(x, y, full*2)
		}
	})
	b.Run("limit-tight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DistanceBounded(x, y, full/100)
		}
	})
}

// BenchmarkEngineKNNBatch measures the concurrent engine's batch path
// against a sequential Index.SearchKNN loop over the same query set. The batch
// fans across GOMAXPROCS workers, so "batch" should approach
// "sequential" / NumCPU — near-linear speedup is the engine's headline
// claim. The result cache is disabled so every query pays full price.
func BenchmarkEngineKNNBatch(b *testing.B) {
	db := benchTaxi()
	queries := benchQueries(32)
	iopt := trajmatch.IndexOptions{PivotCandidates: 32, Seed: 1}

	b.Run("sequential", func(b *testing.B) {
		tree, err := trajmatch.NewIndex(db, iopt)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				tree.SearchKNN(q, 10, nil, nil)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		engine, err := trajmatch.NewEngine(db, iopt, trajmatch.EngineOptions{CacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		req := trajmatch.Query{Kind: trajmatch.QueryKNN, K: 10}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.SearchBatch(context.Background(), queries, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-cached", func(b *testing.B) {
		engine, err := trajmatch.NewEngine(db, iopt, trajmatch.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		req := trajmatch.Query{Kind: trajmatch.QueryKNN, K: 10}
		engine.SearchBatch(context.Background(), queries, req) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.SearchBatch(context.Background(), queries, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedKNN profiles the sharded fan-out against the 1-shard
// engine (the pre-sharding architecture). Three views per shard count:
//
//   - engine: the end-to-end sharded engine (hash placement, shared
//     tightening bound, global merge), distcalls/abandons from stats;
//   - fanout-shared: a manual fan-out over round-robin partition trees
//     sharing one SharedBound — isolates the bound-sharing machinery;
//   - fanout-independent: the same partition trees searched with plain
//     SearchKNN (no shared bound) and merged — what a naive sharded
//     engine would do.
//
// The number to watch is distcalls/query of shared vs independent: the
// shared bound is what keeps a sharded search from paying the full k-NN
// price once per shard. Wall clock on a single-CPU runner shows the
// fan-out *tax* (per-shard candidate work) without the concurrency win;
// on multi-core it turns into latency overlap. The result cache is
// disabled throughout.
func BenchmarkShardedKNN(b *testing.B) {
	db := benchTaxi()
	queries := benchQueries(32)
	iopt := trajmatch.IndexOptions{PivotCandidates: 32, Seed: 1}

	mergeTopK := func(per [][]backend.Result, k int) []backend.Result {
		var all []backend.Result
		for _, rs := range per {
			all = append(all, rs...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
		if len(all) > k {
			all = all[:k]
		}
		return all
	}

	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/engine", shards), func(b *testing.B) {
			engine, err := trajmatch.NewEngine(db, iopt,
				trajmatch.EngineOptions{CacheSize: -1, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			before := engine.Stats()
			req := trajmatch.Query{Kind: trajmatch.QueryKNN, K: 10}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(ctx, queries[i%len(queries)], req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := engine.Stats()
			n := float64(b.N)
			dist := after.DistanceCalls - before.DistanceCalls
			aband := after.EarlyAbandons - before.EarlyAbandons
			b.ReportMetric(float64(dist)/n, "distcalls/query")
			b.ReportMetric(float64(aband)/n, "abandons/query")
			b.ReportMetric(float64(dist-aband)/n, "fullevals/query")
		})
		if shards == 1 {
			continue
		}
		parts := make([][]*trajmatch.Trajectory, shards)
		for i, tr := range db {
			parts[i%shards] = append(parts[i%shards], tr)
		}
		trees := make([]*trajmatch.Index, shards)
		for i := range parts {
			tree, err := trajmatch.NewIndex(parts[i], iopt)
			if err != nil {
				b.Fatal(err)
			}
			trees[i] = tree
		}
		b.Run(fmt.Sprintf("shards=%d/fanout-shared", shards), func(b *testing.B) {
			distcalls, fulls := 0, 0
			per := make([][]backend.Result, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bound := backend.NewSharedBound(math.Inf(1))
				for s, tree := range trees {
					res, st, _, _ := tree.SearchKNN(queries[i%len(queries)], 10, bound, nil)
					per[s] = res
					distcalls += st.DistanceCalls
					fulls += st.DistanceCalls - st.EarlyAbandons
				}
				mergeTopK(per, 10)
			}
			b.StopTimer()
			b.ReportMetric(float64(distcalls)/float64(b.N), "distcalls/query")
			b.ReportMetric(float64(fulls)/float64(b.N), "fullevals/query")
		})
		b.Run(fmt.Sprintf("shards=%d/fanout-independent", shards), func(b *testing.B) {
			distcalls, fulls := 0, 0
			per := make([][]backend.Result, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s, tree := range trees {
					res, st, _, _ := tree.SearchKNN(queries[i%len(queries)], 10, nil, nil)
					per[s] = res
					distcalls += st.DistanceCalls
					fulls += st.DistanceCalls - st.EarlyAbandons
				}
				mergeTopK(per, 10)
			}
			b.StopTimer()
			b.ReportMetric(float64(distcalls)/float64(b.N), "distcalls/query")
			b.ReportMetric(float64(fulls)/float64(b.N), "fullevals/query")
		})
	}
}

// BenchmarkPrefilterKNN measures the sketch candidate prefilter
// against the exact engine on corpora large enough for candidate
// generation to matter (ISSUE 6). Same EDwP engine, same resampled
// queries (the paper's inconsistent-sampling premise: each probe is a
// database member re-sampled, so the sketch must recognise the shape,
// not the point sequence); the off/on pair differs only in
// Query.Prefilter. cands/query is the admitted population per query —
// versus the full corpus every non-prefiltered query examines —
// and distcalls/query the exact kernel starts that survive each path's
// lower bounds; the acceptance target is >= 5x fewer with the
// prefilter on at n=10k. The 100k corpus is opt-in
// (TRAJMATCH_BENCH_100K=1): its index build dominates CI smoke time.
func BenchmarkPrefilterKNN(b *testing.B) {
	sizes := []int{10_000}
	if os.Getenv("TRAJMATCH_BENCH_100K") != "" {
		sizes = append(sizes, 100_000)
	}
	iopt := trajmatch.IndexOptions{Seed: 1}
	for _, n := range sizes {
		db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(n))
		engine, err := trajmatch.NewEngine(db, iopt,
			trajmatch.EngineOptions{CacheSize: -1, Shards: 4, Prefilter: true})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		sel := make([]*trajmatch.Trajectory, 16)
		for i := range sel {
			sel[i] = db[rng.Intn(len(db))]
		}
		queries := trajmatch.InterNoise(sel, 0.5, 100)
		for i, q := range queries {
			q.ID = 1_000_000 + i
		}
		for _, pre := range []bool{false, true} {
			b.Run(fmt.Sprintf("n=%d/prefilter=%v", n, pre), func(b *testing.B) {
				req := trajmatch.Query{Kind: trajmatch.QueryKNN, K: 10, Prefilter: pre, WithStats: true}
				distcalls, lbcalls, cands := 0, 0, 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ans, err := engine.Search(context.Background(), queries[i%len(queries)], req)
					if err != nil {
						b.Fatal(err)
					}
					distcalls += ans.Stats.DistanceCalls
					lbcalls += ans.Stats.LowerBoundCalls
					cands += ans.Stats.PrefilterCandidates
				}
				b.StopTimer()
				bn := float64(b.N)
				b.ReportMetric(float64(distcalls)/bn, "distcalls/query")
				b.ReportMetric(float64(lbcalls)/bn, "lbcalls/query")
				if pre {
					b.ReportMetric(float64(cands)/bn, "cands/query")
				}
			})
		}
	}
}

// BenchmarkBackendKNN compares the three pluggable metric backends —
// EDwP over the TrajTree, DTW and EDR over their bound-ordered flat
// scans — answering the same k-NN workload through the same engine
// Search path (ISSUE 5). Per-metric distcalls/query makes the pruning
// structures comparable beyond wall clock: the tree prunes whole
// subtrees by lower bound, the flat indexes prune candidates by theirs
// and abandon the rest mid-DP. The result cache is disabled so every
// query pays full price.
// TestBackendKNNAllocBudget is the allocation fence for the engine k-NN
// path BenchmarkBackendKNN times: the steady state sits around 140
// allocs per query (request/response plumbing, result slices, stats),
// and the kernels themselves run on pooled scratch over arena-backed
// members — zero per-candidate allocations. The cap is ~2x steady state:
// loose enough for scheduler noise, tight enough that any regression to
// per-candidate copies (one alloc per examined member, ~79 exact calls
// plus ~150 screened members per query here) trips it.
func TestBackendKNNAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool deliberately drops Puts")
	}
	db := benchTaxi()
	queries := benchQueries(16)
	engine, err := trajmatch.NewEngine(db,
		trajmatch.IndexOptions{PivotCandidates: 32, Seed: 1},
		trajmatch.EngineOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := trajmatch.Query{Kind: trajmatch.QueryKNN, K: 10, WithStats: true}
	ctx := context.Background()
	it := 0
	run := func() {
		if _, err := engine.Search(ctx, queries[it%len(queries)], req); err != nil {
			t.Fatal(err)
		}
		it++
	}
	for i := 0; i < 4; i++ {
		run() // warm pools and XY caches
	}
	const budget = 300
	if n := testing.AllocsPerRun(50, run); n > budget {
		t.Errorf("engine k-NN Search allocates %v per query, budget %d", n, budget)
	}
}

func BenchmarkBackendKNN(b *testing.B) {
	db := benchTaxi()
	queries := benchQueries(16)
	iopt := trajmatch.IndexOptions{PivotCandidates: 32, Seed: 1}
	engine, err := trajmatch.NewMultiEngine(db,
		[]string{trajtree.MetricName, dtwindex.MetricName, edrindex.MetricName},
		iopt, trajmatch.EngineOptions{CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, metric := range engine.Metrics() {
		b.Run(metric, func(b *testing.B) {
			req := trajmatch.Query{Kind: trajmatch.QueryKNN, K: 10, Metric: metric, WithStats: true}
			distcalls, abandons := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ans, err := engine.Search(context.Background(), queries[i%len(queries)], req)
				if err != nil {
					b.Fatal(err)
				}
				distcalls += ans.Stats.DistanceCalls
				abandons += ans.Stats.EarlyAbandons
			}
			b.StopTimer()
			b.ReportMetric(float64(distcalls)/float64(b.N), "distcalls/query")
			b.ReportMetric(float64(abandons)/float64(b.N), "abandons/query")
		})
	}
}
