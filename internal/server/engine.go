// Package server wraps pluggable metric indexes in a sharded,
// thread-safe query engine and exposes it over HTTP. The engine is
// generic over backend.Backend — the contract capturing what it actually
// needs (build from a DB, SearchKNN under a Ctl and a shared bound,
// unified Result/Stats) — and serves any number of metric
// backends over one corpus: the TrajTree EDwP index (the reference
// implementation, fully capable), the flat DTW and EDR indexes, and any
// future distance that implements the contract. Sharding, the
// shared-bound fan-out, the LRU result cache (keyed by metric), the
// cooperative cancellation paths and the stats counters are written once
// and are metric-agnostic; Query.Metric routes to its loaded backend,
// and the name list of internal/metrics distinguishes a mistyped name
// from one that was not booted.
//
// The query surface is one context-aware API: Engine.Search(ctx, q,
// Query) executes a Query (kind: KNN | Range | SubKNN, a Metric, plus
// knobs like a seed bound and an evaluation budget) and returns an
// Answer bundling results, stats and a truncation disposition;
// SearchBatch fans many query trajectories over a worker pool.
// Cancellation threads cooperatively through the whole stack — the shard
// fan-out skips un-started shards, the backend scans poll a flag between
// candidate evaluations, and the DP kernels poll it per row — so a fired
// deadline stops a query within one DP row of work.
//
// Trajectories hash to one of N shards per metric (router.go; placement
// is shared across metrics), each behind its own RWMutex (shard.go), so
// an Insert/Delete, or a Rebuild's swap, stalls only the queries on its
// own shard instead of the whole index, and bulk builds construct shards in
// parallel. A k-NN query fans out across its metric's shards sharing
// one atomically tightening k-th-best bound (backend.SharedBound): the
// moment any shard's local answer set fills, every other shard's
// dynamic programs abandon against that bound, and the per-shard answer
// lists merge by (distance, ID) — deterministic membership under exact
// boundary ties. A range query is the same search with no cap on k and
// the bound seeded at its radius (Query.plan).
// Operations not every backend supports are capability-gated: mutation
// and persistence require the corresponding interfaces and otherwise
// degrade to ErrNotSupported (HTTP 501), and snapshot manifests record
// which metrics were persisted.
//
// cmd/trajserve serves the versioned HTTP surface in http.go (-metrics
// selects the backends); the trajmatch facade re-exports Engine for
// library users.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/faultfs"
	"trajmatch/internal/par"
	"trajmatch/internal/sketch"
	"trajmatch/internal/stream"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
	"trajmatch/internal/wal"
)

// Options configure an Engine. The zero value is usable.
type Options struct {
	// CacheSize is the maximum number of k-NN answers kept in the LRU
	// cache. 0 means the default of 1024; negative disables caching.
	CacheSize int
	// Workers is the size of the SearchBatch worker pool, and the fan-out
	// width of a single query across shards. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Shards is the number of hash-partitioned index shards per metric.
	// 0 or 1 means a single shard (the pre-sharding engine); more shards
	// mean an update blocks fewer queries and builds run in parallel, at
	// the cost of a per-query fan-out. Ignored when Partition is set
	// (the local shard count is then len(Partition.Owned)).
	Shards int
	// Partition, when non-nil, makes this a cluster shard-node engine:
	// trajectories hash into Partition.Total global shards, the engine
	// builds and serves only the Partition.Owned subset, and operations
	// on foreign IDs answer ErrNotOwned. See the Partition type and
	// internal/cluster for the router that reassembles the subsets.
	Partition *Partition
	// SnapshotDir, when non-empty, is where POST /v1/snapshot writes the
	// sharded snapshot and where SaveSnapshot/LoadSnapshot default to.
	SnapshotDir string
	// Mmap makes LoadSnapshot map each shard file (shard-NNNN.arena)
	// instead of reading it onto the heap through FS: the point slabs
	// then alias the page cache rather than one heap buffer per shard.
	// It selects where the file's bytes live, nothing else — both ways
	// decode the same file, verify it the same, fail the same, and load
	// identical state.
	Mmap bool
	// Prefilter builds the sketch/LSH candidate prefilter at boot: one
	// sketch index per shard, shared across every loaded metric.
	// Queries still opt in per request (Query.Prefilter) — an engine
	// with the prefilter enabled answers non-prefiltered queries
	// byte-identically to one without it.
	Prefilter bool
	// Sketch parameterises the prefilter; zero-value fields take the
	// sketch package defaults, and a zero CellSize is derived from the
	// full corpus before sharding (like EDR's ε, it is whole-corpus
	// state every shard must agree on). Ignored unless Prefilter is set
	// or a loaded snapshot recorded prefilter parameters.
	Sketch sketch.Params
	// WALDir, when non-empty, enables the write-ahead log: every
	// accepted mutation is appended (and, under WALSync's policy, made
	// durable) before it is acknowledged, and a boot replays the log on
	// top of the snapshot. See wal.go for the full durability story.
	WALDir string
	// WALSync selects when WAL appends reach stable storage; the zero
	// value is wal.SyncAlways (fsync before every acknowledgement).
	WALSync wal.SyncPolicy
	// FS routes every durability-layer file operation — WAL segments
	// and snapshot files. nil means the real filesystem; the
	// crash-recovery harness injects a faultfs.Injector here.
	FS faultfs.FS
	// SealAfter, when positive, arms the background sealer: a live track
	// with no append for SealAfter is folded into the sealed shards as
	// if POST /v1/seal had been called, checked every SealAfter/4. 0
	// disables auto-sealing (explicit seals only).
	SealAfter time.Duration
}

const defaultCacheSize = 1024

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = defaultCacheSize
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	return o
}

// engineGen is the engine-wide generation counter. Every successful
// structural update bumps it *while still holding the written shard's
// write lock*; a query therefore can only observe updated data after the
// bump. The result cache exploits that ordering: a query records the
// generation before touching any shard and only caches its answer if the
// generation is unchanged afterwards, so every cached answer corresponds
// to a state no update completed inside.
type engineGen struct {
	v atomic.Uint64
}

func (g *engineGen) load() uint64 { return g.v.Load() }
func (g *engineGen) bump()        { g.v.Add(1) }

// Engine is a concurrency-safe sharded facade over one or more metric
// backends. All methods may be called from any goroutine: queries take
// the read lock of each shard they visit, updates serialise on one
// mutation lock and block queries only on the owning shards' write
// locks, and the result cache carries its own mutex so a cache hit never
// touches a shard.
//
// With more than one shard, a query fanning out is *per-shard* atomic
// but not globally atomic: an Insert that completes between two shard
// visits may or may not appear in the answer, exactly as if the query
// had run entirely before or after it. Answers never mix partial states
// of a single update, because each update touches exactly one shard per
// metric.
type Engine struct {
	opt    Options
	place  placement    // global hash modulus + owned-shard mapping
	sets   []*metricSet // boot order; sets[0] is the default metric
	byName map[string]*metricSet
	cache  *lruCache // nil when caching is disabled
	gen    engineGen
	snapMu sync.Mutex // serialises SaveSnapshot calls against each other

	// Durability (wal.go): fs routes every WAL and snapshot file
	// operation, wal is the write-ahead log (nil without Options.WALDir)
	// and mutMu serialises every mutation's {check, log, apply} (mutate).
	// The fsync wait happens outside mutMu (group commit).
	fs    faultfs.FS
	wal   *wal.Log
	mutMu sync.Mutex

	// Live ingest (stream.go): buffer holds the growing unsealed tracks
	// (written only under mutMu), watches the standing queries, events
	// the match feed. Built by initStream before WAL replay; never nil
	// after construction. The sealer goroutine (when Options.SealAfter > 0)
	// folds idle tracks into the sealed shards.
	buffer   *stream.Buffer
	watches  *stream.Registry
	events   *stream.EventLog
	sealStop chan struct{}
	sealOnce sync.Once
	sealWG   sync.WaitGroup
	// replayGaps, during WAL replay only, records tracks whose head was
	// in a truncated segment (track ID -> the point count a later
	// carry-over record must restore); see replayRecord/checkReplayGaps.
	replayGaps map[int]int

	// sketches is the candidate prefilter: one sketch index per shard,
	// shared across metric sets (candidacy depends on geometry alone,
	// and every set shards the same corpus with the same placement).
	// nil when the prefilter is disabled, and during WAL replay.
	// sketchParams holds the resolved whole-corpus parameters the
	// snapshot manifest records, nil when the prefilter is disabled;
	// boot sets it before replay, which tokenizes live tracks with it.
	sketches     []*sketch.Index
	sketchParams *sketch.Params

	// Update counters. Query and kernel counters live on the metric
	// sets, and Stats sums them.
	inserts   atomic.Uint64
	deletes   atomic.Uint64
	rebuilds  atomic.Uint64
	snapshots atomic.Uint64

	// Streaming counters (stream.go): acknowledged appends and seals,
	// exact kernel evaluations the continuous-query matcher ran, and
	// (append, watch) pairs its token gate skipped.
	appends        atomic.Uint64
	seals          atomic.Uint64
	watchEvals     atomic.Uint64
	watchGateSkips atomic.Uint64
}

// newEngine wraps pre-built metric sets under the given placement.
func newEngine(sets []*metricSet, place placement, opt Options) *Engine {
	e := &Engine{opt: opt, place: place, sets: sets, byName: make(map[string]*metricSet, len(sets))}
	e.fs = opt.FS
	if e.fs == nil {
		e.fs = faultfs.OS{}
	}
	for _, ms := range sets {
		e.byName[ms.name] = ms
	}
	if opt.CacheSize > 0 {
		e.cache = newLRUCache(opt.CacheSize)
	}
	return e
}

// NewEngine wraps an existing tree as a single-metric EDwP engine. The
// caller must not use the tree directly afterwards; the engine owns it.
// With opt.Shards > 1 the tree's members are re-distributed across
// hash-placed shards built with the tree's own options (a rebuild,
// priced accordingly); with the default single shard the tree is adopted
// as-is.
func NewEngine(tree *trajtree.Tree, opt Options) *Engine {
	opt = opt.withDefaults()
	place, perr := resolvePlacement(opt)
	if perr != nil {
		// This constructor predates the error-returning ones; a malformed
		// partition is a caller bug, not runtime state. Use
		// NewMultiEngineFromDB for a recoverable error path.
		panic(fmt.Sprintf("server: %v", perr))
	}
	opt.Shards = place.numLocal()
	var e *Engine
	all := tree.All()
	if opt.Shards > 1 || place.partitioned() {
		sets, err := buildMetricSets(all, []backend.Spec{trajtree.BackendSpec(tree.Options())}, place, opt, nil)
		if err != nil {
			// Members of a valid tree are already validated and
			// duplicate-free, so the build cannot fail on them. If it
			// does, the invariant is broken — fail loudly rather than
			// silently serve with a shard count the caller did not ask
			// for.
			panic(fmt.Sprintf("server: resharding a valid tree failed: %v", err))
		}
		e = newEngine(sets, place, opt)
	} else {
		set := &metricSet{name: trajtree.MetricName, shards: []*shard{{be: tree}}}
		e = newEngine([]*metricSet{set}, place, opt)
	}
	if err := e.boot(all, opt.Prefilter, opt.Sketch); err != nil {
		// This constructor predates the error-returning ones and cannot
		// report failure; an unreadable or corrupt WAL must not be
		// silently dropped (that would discard acknowledged mutations),
		// so it fails loudly. Use NewMultiEngineFromDB or LoadSnapshot
		// for a recoverable error path.
		panic(fmt.Sprintf("server: booting over a valid tree failed: %v", err))
	}
	return e
}

// boot is the last step of every engine constructor, in one order.
// With prefilter set, the sketch parameters resolve over db, the
// pre-replay corpus (p wins where set: a snapshot's recorded values are
// already resolved). The WAL then replays with no sketch attached —
// applyInsert and applyDelete skip a nil e.sketches — and only after it
// is every shard's sketch built, once, from its post-replay members.
// Candidate sets depend on the members alone (Candidates ranks by score
// and then ID, and sorts what it admits), so this answers exactly as
// filing each replayed record would, without filing records the log
// later deletes. The idle sealer starts last, so its seals find the
// sketch in place.
func (e *Engine) boot(db []*traj.Trajectory, prefilter bool, p sketch.Params) error {
	if prefilter {
		rp, err := resolveSketchParams(db, p)
		if err != nil {
			return err
		}
		e.sketchParams = &rp
	}
	if err := e.attachWAL(); err != nil {
		return err
	}
	if prefilter {
		if err := e.buildSketches(db); err != nil {
			e.Close()
			return err
		}
	}
	e.startSealer()
	return nil
}

// NewEngineFromDB bulk-loads hash-partitioned TrajTree shards over db
// and wraps them in a single-metric EDwP engine. Shards build in
// parallel across the worker pool.
func NewEngineFromDB(db []*traj.Trajectory, topt trajtree.Options, opt Options) (*Engine, error) {
	return NewMultiEngineFromDB(db, []backend.Spec{trajtree.BackendSpec(topt)}, opt)
}

// NewMultiEngineFromDB bulk-loads one sharded backend per spec over the
// same database and wraps them in one engine: every metric answers over
// the same corpus through the same Search API, routed by Query.Metric
// (the first spec is the default). Within each metric the shards build
// in parallel on the worker pool.
func NewMultiEngineFromDB(db []*traj.Trajectory, specs []backend.Spec, opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	place, err := resolvePlacement(opt)
	if err != nil {
		return nil, err
	}
	opt.Shards = place.numLocal()
	sets, err := buildMetricSets(db, specs, place, opt, nil)
	if err != nil {
		return nil, err
	}
	e := newEngine(sets, place, opt)
	if err := e.boot(db, opt.Prefilter, opt.Sketch); err != nil {
		return nil, err
	}
	return e, nil
}

// Shards returns the number of locally held index shards per metric
// (the owned subset for a partitioned engine).
func (e *Engine) Shards() int { return len(e.sets[0].shards) }

// ClusterShards returns the global hash modulus: the cluster-wide shard
// count for a partitioned engine, the local shard count otherwise.
func (e *Engine) ClusterShards() int { return e.place.total }

// OwnedShards returns the global shard indices this engine serves,
// ascending (all of them for an unpartitioned engine).
func (e *Engine) OwnedShards() []int { return e.place.ownedShards() }

// Size returns the number of indexed trajectories across all shards of
// the default metric (every metric indexes the same corpus).
func (e *Engine) Size() int {
	total := 0
	for _, s := range e.sets[0].shards {
		total += s.size()
	}
	return total
}

// Height returns the maximum shard height of the default metric's index
// (0 for flat backends).
func (e *Engine) Height() int {
	max := 0
	for _, s := range e.sets[0].shards {
		if h := s.height(); h > max {
			max = h
		}
	}
	return max
}

// Lookup returns the indexed trajectory with the given ID, or nil (also
// nil for IDs a partitioned engine does not own). The hash placement
// invariant routes it straight to the owning shard.
func (e *Engine) Lookup(id int) *traj.Trajectory {
	s := e.place.localShard(id)
	if s < 0 {
		return nil
	}
	return e.sets[0].shards[s].lookup(id)
}

// Search executes one Query against the index of the metric it names
// (Query.Metric; empty means the default metric), honouring ctx
// cooperatively through the whole stack: the shard fan-out skips
// un-started shards once ctx fires, the backend scans poll a
// cancellation flag between candidate evaluations, and the DP kernels
// poll it once per row — a fired context aborts the query within one DP
// row of work. A never-fired context leaves every answer byte-identical
// to the uncancellable search, and — for the DTW/EDR backends — to their
// standalone indexes (property-tested).
//
// On success the Answer carries the (distance, ID)-sorted results, the
// per-query stats when req.WithStats is set, and Truncated when a
// MaxEvals budget ran out before the search completed. On error — an
// unknown or unloaded metric (ErrUnknownMetric, ErrMetricNotLoaded), a
// capability the backend lacks (ErrNotSupported), ErrInvalidQuery for a
// malformed request, or ctx.Err() once the context fires — the Answer is
// empty; partial work already performed still lands in the engine's
// cumulative counters.
//
// Cached KNN answers are returned without touching any shard; the
// Results slice is then shared with the cache and must not be mutated.
func (e *Engine) Search(ctx context.Context, q *traj.Trajectory, req Query) (Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q == nil {
		return Answer{}, fmt.Errorf("%w: nil query trajectory", ErrInvalidQuery)
	}
	if err := req.Validate(); err != nil {
		return Answer{}, err
	}
	ms, err := e.resolveMetric(req.Metric)
	if err != nil {
		return Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	ans, raw, err := e.searchOne(ctx, ms, q, req, e.opt.Workers)
	if !ans.Cached {
		ms.add(raw)
	}
	return ans, err
}

// SearchBatch executes the same Query for len(qs) independent query
// trajectories on the engine's worker pool, returning one Answer per
// query in input order, each carrying its own Stats when req.WithStats
// is set. The metric's cumulative counters accumulate every query's work
// exactly once, flushed as one aggregate per batch to keep the workers
// off the shared counters.
//
// All queries share ctx: once it fires, finished answers keep their
// values, un-started queries are skipped, and SearchBatch returns the
// partial answers alongside ctx's error. Workers reuse kernel and
// visit-set scratch from sync.Pools across their queries, so a batch
// performs no per-query scratch allocation.
func (e *Engine) SearchBatch(ctx context.Context, qs []*traj.Trajectory, req Query) ([]Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	ms, err := e.resolveMetric(req.Metric)
	if err != nil {
		return nil, err
	}
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("%w: nil query trajectory at index %d", ErrInvalidQuery, i)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	answers := make([]Answer, len(qs))
	raws := make([]backend.Stats, len(qs))
	err = par.ForErr(e.opt.Workers, len(qs), func(i int) (err error) {
		answers[i], raws[i], err = e.searchOne(ctx, ms, qs[i], req, 1)
		return err
	})
	var total backend.Stats
	for i := range raws {
		if !answers[i].Cached {
			total.Add(raws[i])
		}
	}
	ms.add(total)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return answers, ctxErr
	}
	return answers, err
}

// searchOne runs one query against one metric set without folding its
// work counters into the set (returned raw for the caller to record
// — once per query for Search, one aggregate per batch for SearchBatch).
// workers is the shard fan-out width (see FanOut): the pool size for
// single interactive queries, 1 for batch workers, which are already
// saturating the pool.
func (e *Engine) searchOne(ctx context.Context, ms *metricSet, q *traj.Trajectory, req Query, workers int) (Answer, backend.Stats, error) {
	ms.queries.Add(1)
	var key cacheKey
	gen := e.gen.load()
	useCache := e.cache != nil && req.cacheable()
	if useCache {
		key = knnKey(ms.name, q, req.K)
		if res, ok := e.cache.get(key, gen); ok {
			ms.cacheHits.Add(1)
			return Answer{Results: res, Cached: true}, backend.Stats{}, nil
		}
	}
	// The Ctl is only armed when it can matter — a cancellable context or
	// an eval budget. Background-context, unbudgeted queries (the eval
	// harness, bench replays) run the search with a nil Ctl.
	var ctl *backend.Ctl
	if ctx.Done() != nil || req.MaxEvals > 0 {
		ctl = backend.NewCtl(ctx, req.MaxEvals)
		defer ctl.Release()
	}
	res, st, truncated, err := e.fanout(ms, q, req, ctl, workers)
	if err != nil {
		if errors.Is(err, backend.ErrNotSupported) {
			err = fmt.Errorf("metric %q: %w", ms.name, err)
		}
		return Answer{}, st, err
	}
	// Only cache answers computed against a quiescent generation: if an
	// update completed mid-fan-out the answer is still correct (see the
	// Engine atomicity note) but may not correspond to any generation the
	// cache can name, so it is simply not cached. Truncated answers are
	// never cached — they are not the exact KNN the key promises.
	if useCache && !truncated && e.gen.load() == gen {
		e.cache.put(key, gen, res)
	}
	ans := Answer{Results: res, Truncated: truncated}
	if req.WithStats {
		ans.Stats = st
	}
	return ans, st, nil
}

// fanout dispatches one validated query across its metric's shards
// through FanOut, then folds in the matching live (unsealed) tracks.
func (e *Engine) fanout(ms *metricSet, q *traj.Trajectory, req Query, ctl *backend.Ctl, workers int) ([]backend.Result, backend.Stats, bool, error) {
	shards := ms.shards
	if req.Prefilter && e.sketches == nil {
		return nil, backend.Stats{}, false,
			fmt.Errorf("prefilter %w (engine booted without Options.Prefilter)", backend.ErrNotSupported)
	}
	res, st, truncated, err := FanOut(len(shards), workers, req, ctl, func(i, k int, bound *backend.SharedBound) ([]backend.Result, backend.Stats, bool, error) {
		switch {
		case req.Kind == KindSubKNN:
			return shards[i].searchSub(q, k, bound, ctl)
		case req.Prefilter:
			return e.prefilterShard(shards[i], e.sketches[i], q, req, bound, ctl)
		default: // KindKNN and KindRange
			return shards[i].searchKNN(q, k, bound, ctl)
		}
	})
	if err != nil {
		return res, st, truncated, err
	}
	res, ltrunc, err := e.liveAugment(ms, q, req, res, ctl, &st)
	return res, st, truncated || ltrunc, err
}

// FanOut runs one validated query over n shards and merges their
// answers by (distance, ID). run(i, k, bound) searches shard i for k
// answers: the engine passes its local shards, the cluster router its
// remote replica groups. Every kind is a k-NN search planned by
// Query.plan: the shards share one tightening bound seeded with the
// query's Limit, so a close neighbour found in any shard abandons work
// in every shard searched after it, and a range query is the search
// with no cap on k seeded at its radius. A single shard with no finite
// seed gets a nil bound, the fast path, rather than a +Inf bound it
// could only tighten against itself, and its answer is returned
// unmerged: every backend already sorts by (distance, ID) and decides
// exact ties by ID, so a merge would change nothing.
//
// workers is the fan-out width: a single query spreads its shards over
// par.For, while workers == 1 visits them inline in shard order, each
// shard starting from the freshest bound — the shape of a batch, whose
// queries already occupy the pool. Once ctl fires, shards that have not
// started are skipped and the answer is ctl's error. Stats fold every
// shard that ran, even when the query fails.
func FanOut(n, workers int, req Query, ctl *backend.Ctl, run func(i, k int, bound *backend.SharedBound) ([]backend.Result, backend.Stats, bool, error)) ([]backend.Result, backend.Stats, bool, error) {
	k, seed := req.plan()
	var bound *backend.SharedBound
	if n > 1 || !math.IsInf(seed, 1) {
		bound = backend.NewSharedBound(seed)
	}
	if n == 1 {
		return run(0, k, bound)
	}
	per := make([][]backend.Result, n)
	sts := make([]backend.Stats, n)
	truncs := make([]bool, n)
	errs := make([]error, n)
	par.For(workers, n, func(i int) {
		if ctl.Cancelled() {
			// Already-running shards notice the same flag themselves.
			errs[i] = ctl.Err()
			return
		}
		per[i], sts[i], truncs[i], errs[i] = run(i, k, bound)
	})
	var total backend.Stats
	truncated := false
	for i := range sts {
		total.Add(sts[i])
		truncated = truncated || truncs[i]
	}
	if err := ctl.Err(); err != nil {
		return nil, total, false, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, total, false, err
		}
	}
	return mergeResults(per, k), total, truncated, nil
}

// mergeResults concatenates per-shard answer lists and sorts by
// (distance, ID), keeping the best k. The ID tie-break is the
// load-bearing determinism guarantee: it makes the merged answer a
// function of the candidate set alone, independent of shard count, shard
// order, and scheduling, even when distances tie exactly — and every
// backend resolves its internal ties by the same order (one verify step,
// backend.Verifier), which is what makes a sharded fan-out byte-identical
// to the standalone index.
func mergeResults(per [][]backend.Result, k int) []backend.Result {
	var all []backend.Result
	for _, rs := range per {
		all = append(all, rs...)
	}
	backend.SortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// mutate is the one step every mutation — Insert, Delete, Append, Seal —
// takes, with or without a WAL (wal.go has the durability story). Under
// mutMu: check the op's preconditions against current state, getting
// the op's record; append it when a log is attached; apply the op in
// memory (the half WAL replay shares). Then, unlocked, wait for the
// record to be durable and count the op in acked.
func (e *Engine) mutate(acked *atomic.Uint64, check func() (wal.Record, error), apply func() error) error {
	e.mutMu.Lock()
	rec, err := check()
	var lsn uint64
	if err == nil && e.wal != nil {
		if lsn, err = e.wal.Append(rec); err != nil {
			err = fmt.Errorf("server: %w", err)
		}
	}
	if err == nil {
		err = apply()
	}
	e.mutMu.Unlock()
	if err != nil {
		return err
	}
	if e.wal != nil {
		if err := e.wal.Commit(lsn); err != nil {
			// Applied in memory but not durable: the mutation is NOT
			// acknowledged. The log's sticky sync error has already fenced
			// off further mutations.
			return fmt.Errorf("server: %w", err)
		}
	}
	acked.Add(1)
	return nil
}

// Insert adds a trajectory to every loaded metric's index, blocking
// queries only on the owning shards for the duration of the update. It
// requires every loaded backend to be mutable (capability
// backend.Mutable) — a partial update would let the metrics' views of
// the corpus diverge — and returns ErrNotSupported naming the first
// incapable metric otherwise. An ID already indexed answers
// ErrSealedID, one held by a live track ErrLiveID.
//
// Metric sets update in boot order with no cross-metric transaction: if
// a later set rejects the trajectory (today only possible for invalid
// input, which is refused before any state changes), earlier sets keep
// it and the error reports the divergence. A second mutable backend
// whose Insert can fail on valid input would need a rollback here.
// With a write-ahead log attached (Options.WALDir), Insert returns only
// after the record is durable per the configured sync policy — an
// acknowledged insert survives a crash.
func (e *Engine) Insert(tr *traj.Trajectory) error {
	if tr == nil {
		return fmt.Errorf("%w: nil trajectory", ErrInvalidQuery)
	}
	if err := e.requireMutable(); err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if _, err := e.ownedShard(tr.ID); err != nil {
		return err
	}
	return e.mutate(&e.inserts, func() (wal.Record, error) {
		if e.Lookup(tr.ID) != nil {
			return wal.Record{}, fmt.Errorf("server: duplicate trajectory ID %d: %w", tr.ID, ErrSealedID)
		}
		if e.buffer.Has(tr.ID) {
			return wal.Record{}, fmt.Errorf("server: trajectory ID %d: %w (seal or delete it first)", tr.ID, ErrLiveID)
		}
		return wal.Insert(tr), nil
	}, func() error { return e.applyInsert(tr) })
}

// ownedShard returns the local shard of id, or ErrNotOwned when its
// global shard lives on another node.
func (e *Engine) ownedShard(id int) (int, error) {
	local := e.place.localShard(id)
	if local < 0 {
		return -1, fmt.Errorf("server: trajectory ID %d hashes to global shard %d: %w",
			id, shardIndex(id, e.place.total), ErrNotOwned)
	}
	return local, nil
}

// applyInsert adds tr to every metric's owning shard and the sketch —
// the in-memory half of an insert, shared by the live path and WAL
// replay (which must not touch the log or the public counters).
func (e *Engine) applyInsert(tr *traj.Trajectory) error {
	local, err := e.ownedShard(tr.ID)
	if err != nil {
		return err
	}
	for _, ms := range e.sets {
		if err := ms.shards[local].insert(tr, &e.gen); err != nil {
			return fmt.Errorf("server: metric %q: %w", ms.name, err)
		}
	}
	if e.sketches != nil {
		// Sketch membership follows the backends. Candidates are verified
		// by presence (SearchKNNIn skips unknown IDs), so the brief window
		// where the backends hold tr but the sketch does not merely means
		// tr is not yet a candidate — the same per-shard atomicity a
		// fanning-out query already tolerates.
		e.sketches[local].Insert(tr)
	}
	return nil
}

// errAbsent is Delete's precondition failure: no sealed member and no
// live track carries the ID.
var errAbsent = errors.New("no such id")

// Delete removes the trajectory with the given ID from every loaded
// metric's index, or the live track with that ID from the buffer,
// reporting whether it was present. Like Insert it requires every
// loaded backend to be mutable. With a write-ahead log attached, the
// delete is reported true only once durable per the sync policy; an
// absent ID is answered false without logging anything.
func (e *Engine) Delete(id int) bool {
	if e.requireMutable() != nil {
		return false
	}
	return e.mutate(&e.deletes, func() (wal.Record, error) {
		if e.Lookup(id) == nil && !e.buffer.Has(id) {
			return wal.Record{}, errAbsent
		}
		return wal.Delete(id), nil
	}, func() error {
		e.applyDelete(id)
		return nil
	}) == nil
}

// applyDelete removes id from every metric's owning shard and the
// sketch, or drops the live (unsealed) track with the ID from the buffer
// along with any top-k watch answer entries it earned — the in-memory
// half of a delete, shared by the live path and WAL replay. An absent
// ID is a no-op.
func (e *Engine) applyDelete(id int) {
	local := e.place.localShard(id)
	if local < 0 {
		return // a foreign ID is never present here
	}
	for _, ms := range e.sets {
		// An absent ID is a no-op; only an immutable backend errors, and
		// requireMutable has excluded those.
		_, _ = ms.shards[local].delete(id, &e.gen)
	}
	if e.sketches != nil {
		// After this the deleted ID can never be a candidate again;
		// during the window between backend delete and here a stale
		// candidate is skipped by presence verification.
		e.sketches[local].Delete(id)
	}
	if _, ok := e.buffer.Remove(id); ok {
		for _, w := range e.watches.After(0) {
			if w.K > 0 {
				w.Drop(id)
			}
		}
	}
}

// CanMutate reports whether the engine accepts Insert/Delete/Rebuild:
// nil when every loaded backend is mutable, otherwise an ErrNotSupported
// error naming the first metric that is not. The HTTP layer gates the
// update endpoints on it (501 not_implemented).
func (e *Engine) CanMutate() error { return e.requireMutable() }

// requireMutable returns ErrNotSupported naming the first loaded metric
// whose backend cannot be updated in place.
func (e *Engine) requireMutable() error {
	for _, ms := range e.sets {
		if !ms.mutable() {
			return fmt.Errorf("server: metric %q: mutation %w", ms.name, backend.ErrNotSupported)
		}
	}
	return nil
}

// Rebuild re-packs every shard of every mutable metric from its current
// members, one shard at a time. Each shard keeps answering while its new
// tree is built, and is write-locked only to swap the result in
// (shard.rebuild). Each shard's re-pack holds mutMu, so writes — inserts,
// deletes, appends and seals, on every shard — wait for at most one
// shard's build. One shard at a time keeps the build from competing with
// serving for more than the CPUs a single build takes. Like Insert it
// requires every loaded backend to be mutable.
func (e *Engine) Rebuild() error {
	if err := e.requireMutable(); err != nil {
		return err
	}
	for _, ms := range e.sets {
		for _, s := range ms.shards {
			e.mutMu.Lock()
			err := s.rebuild(&e.gen)
			e.mutMu.Unlock()
			if err != nil {
				return fmt.Errorf("server: metric %q: %w", ms.name, err)
			}
		}
	}
	e.rebuilds.Add(1)
	return nil
}

// ShardStats is one shard's slice of the index shape on GET /v1/stats.
type ShardStats struct {
	Shard  int `json:"shard"`
	Size   int `json:"size"`
	Height int `json:"height"`
	// Mem is the shard's memory layout: arena slab residency (bytes,
	// member and sample counts, mmap versus heap) and the overlay count
	// (members inserted since the last rebuild or load, not yet
	// slab-resident). Tree-backed shards only.
	Mem *trajtree.MemStats `json:"mem,omitempty"`
}

// MetricStats is one loaded metric's slice of the engine counters on
// GET /v1/stats: its capability set plus the traffic and kernel
// instrumentation accumulated over its queries.
type MetricStats struct {
	Metric       string   `json:"metric"`
	Capabilities []string `json:"capabilities"`
	Queries      uint64   `json:"queries"`
	CacheHits    uint64   `json:"cache_hits"`
	backend.Stats
}

// Stats is a point-in-time snapshot of the engine's counters and index
// shape, the payload of GET /v1/stats.
type Stats struct {
	Size   int `json:"size"`
	Height int `json:"height"`
	Shards int `json:"shards"`
	// ClusterShards and OwnedShards appear on partitioned engines only:
	// the global hash modulus and the owned global indices (Shards then
	// counts the owned subset).
	ClusterShards int      `json:"cluster_shards,omitempty"`
	OwnedShards   []int    `json:"owned_shards,omitempty"`
	Metrics       []string `json:"metrics"`
	Queries       uint64   `json:"queries"`
	CacheHits     uint64   `json:"cache_hits"`
	CacheLen      int      `json:"cache_len"`
	Inserts       uint64   `json:"inserts"`
	Deletes       uint64   `json:"deletes"`
	Rebuilds      uint64   `json:"rebuilds"`
	Snapshots     uint64   `json:"snapshots"`
	Workers       int      `json:"workers"`

	// PerShard breaks the default metric's index shape down by shard;
	// Size is their sum and Height their max.
	PerShard []ShardStats `json:"per_shard"`

	// PerMetric breaks the traffic and kernel counters down by loaded
	// metric, in boot order (the first is the default metric).
	PerMetric []MetricStats `json:"per_metric"`

	// Cumulative kernel instrumentation over all non-cached queries of
	// all metrics, the sum of the PerMetric rows. EarlyAbandons /
	// DistanceCalls is the fraction of exact evaluations the bounded
	// kernels cut short; ScreenRejects of those were decided by a
	// lower-bound screen before any kernel started. The prefilter pair
	// accumulates over prefiltered queries only — PrefilterSkipped /
	// (PrefilterCandidates + PrefilterSkipped) is the fraction of the
	// corpus the sketch excluded before any exact work.
	backend.Stats

	// Prefilter reports whether the sketch/LSH candidate prefilter is
	// enabled.
	Prefilter bool `json:"prefilter"`

	// WAL carries the write-ahead log's counters and on-disk shape
	// (appends, fsyncs, group-commit batching, recovery tallies);
	// absent when the engine runs without a WAL.
	WAL *wal.Stats `json:"wal,omitempty"`

	// Stream carries the live-ingest counters: buffer size, append and
	// seal tallies, standing-query fan-out and the token gate's savings.
	Stream *StreamStats `json:"stream,omitempty"`
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:    len(e.sets[0].shards),
		Metrics:   e.Metrics(),
		Inserts:   e.inserts.Load(),
		Deletes:   e.deletes.Load(),
		Rebuilds:  e.rebuilds.Load(),
		Snapshots: e.snapshots.Load(),
		Workers:   e.opt.Workers,
		Prefilter: e.sketches != nil,
	}
	if e.place.partitioned() {
		st.ClusterShards = e.place.total
		st.OwnedShards = e.place.ownedShards()
	}
	st.PerShard = make([]ShardStats, len(e.sets[0].shards))
	for i, s := range e.sets[0].shards {
		size, h := s.size(), s.height()
		st.PerShard[i] = ShardStats{Shard: e.place.globalOf(i), Size: size, Height: h, Mem: s.memStats()}
		st.Size += size
		if h > st.Height {
			st.Height = h
		}
	}
	st.PerMetric = make([]MetricStats, len(e.sets))
	for i, ms := range e.sets {
		m := MetricStats{
			Metric:       ms.name,
			Capabilities: ms.capabilities(e.sketches != nil),
			Queries:      ms.queries.Load(),
			CacheHits:    ms.cacheHits.Load(),
			Stats:        ms.stats(),
		}
		st.Queries += m.Queries
		st.CacheHits += m.CacheHits
		st.Stats.Add(m.Stats)
		st.PerMetric[i] = m
	}
	if e.cache != nil {
		st.CacheLen = e.cache.len()
	}
	if e.wal != nil {
		ws := e.wal.Stats()
		st.WAL = &ws
	}
	st.Stream = e.streamStats()
	return st
}
