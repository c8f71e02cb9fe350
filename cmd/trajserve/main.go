// Command trajserve serves k-NN, range, sub-trajectory and update
// traffic over sharded metric indexes via JSON-over-HTTP. It loads a
// trajectory database (or a previously written snapshot), bulk-loads
// hash-partitioned index shards in parallel for every metric named by
// -metrics (edwp — the TrajTree index and the default — plus the flat
// dtw and edr comparison indexes, all over the same corpus), and exposes
// the concurrent engine of internal/server on the versioned /v1 API:
//
//	POST /v1/search    {"kind": "knn"|"range"|"subknn", "metric": "edwp"|"dtw"|"edr",
//	                    "query": {"id": 1, "points": [[x,y,t], ...]} | "queries": [...],
//	                    "k": 10, "radius": 250.0, "limit": 0, "max_evals": 0,
//	                    "prefilter": false, "with_stats": true}
//	POST /v1/insert    {"trajectories": [{...}, ...]}
//	POST /v1/delete    {"ids": [17, 42]}
//	POST /v1/append    {"id": 7, "label": 1, "points": [[x,y,t], ...]}
//	POST /v1/seal      {"id": 7}
//	POST /v1/watch     {"pattern": {"id": -1, "points": [...]}, "threshold": 250.0} (or "k": 5)
//	POST /v1/unwatch   {"watch": 3}
//	GET  /v1/events    ?since=N&max=M&wait_ms=T (long-poll) | ?sse=1 (SSE)
//	POST /v1/rebuild   (no body)
//	POST /v1/snapshot  (no body; requires -snapshot)
//	GET  /v1/stats
//	GET  /v1/healthz
//
// One search endpoint serves every query kind and metric; a "queries"
// array batches over the engine's worker pool. Failures answer the JSON
// envelope {"error": ..., "code": ...} — an unregistered "metric" is 400
// {"code": "unknown_metric"}, a registered one not booted by -metrics is
// 400 {"code": "metric_not_loaded"}, and operations the loaded backends
// cannot perform (updates or sub-trajectory search with dtw/edr loaded)
// are 501 {"code": "not_implemented"}. With -query-timeout every search
// request runs under a deadline honoured cooperatively down to the
// distance dynamic programs of every metric (an expiry answers 504
// {"code": "deadline_exceeded"}), and a client disconnect cancels its
// query the same way.
//
// GET /v1/stats includes the bounded-kernel counters (distance_calls,
// early_abandons, screen_rejects, lower_bound_calls, ...) accumulated
// over all queries,
// a per-metric breakdown with each backend's capability set, and a
// per-shard size/height breakdown. With -pprof the standard
// net/http/pprof handlers are mounted under /debug/pprof/ for live CPU,
// heap and contention profiling.
//
// With -prefilter, the server builds the sketch/LSH candidate prefilter
// at boot (one sketch index per shard; -sketch-* tune the parameters,
// which otherwise default sensibly with the grid cell size derived from
// the corpus). Queries opt in per request with "prefilter": true on a
// knn search: each shard's sketch admits a small candidate set and the
// backend verifies it exactly, trading a little recall for a large cut
// in exact distance evaluations; with_stats then reports
// prefilter_candidates and prefilter_skipped.
//
// With -snapshot DIR, the server loads the snapshot on boot when DIR
// holds a manifest (skipping the bulk build entirely; the shard count
// then comes from the manifest, not -shards; the manifest's recorded
// sketch parameters re-arm the prefilter regardless of -prefilter) and
// arms POST /v1/snapshot to write one. SIGINT/SIGTERM drain in-flight
// requests, then flush and close the write-ahead log, before exit.
//
// /v1/append grows live tracks point by point: each delta is validated,
// WAL-logged (when -wal is set), and searchable by the very next query —
// live tracks answer alongside the sealed index without rebuilding
// anything. /v1/seal folds a finished track into the sharded index;
// with -seal-after a background sealer folds tracks idle longer than
// that duration automatically (checking every -seal-interval).
// /v1/watch registers a standing query — a pattern plus a threshold or
// a top-k budget — matched incrementally as appends arrive, with the
// sketch token gate (when -prefilter is on) skipping the exact kernel
// for watchers whose patterns share no grid cells with the new points.
// Match events stream on /v1/events with monotonic seq numbers
// (at-least-once; consumers resume with ?since), as long-poll JSON or
// SSE. -events-buffer bounds the retained event window.
//
// With -wal DIR, every accepted insert and delete is appended to a
// write-ahead log before it is acknowledged, and a boot replays the log
// on top of the snapshot (or the freshly built index), so acknowledged
// mutations survive a crash between snapshots. -wal-sync picks the
// durability point: "always" (the default) fsyncs before every
// acknowledgement and survives power loss, "interval" fsyncs in the
// background every -wal-sync-interval and bounds the loss window to
// that interval, "never" leaves flushing to the OS page cache (a kill
// -9 still loses nothing; power loss may). A committed POST /v1/snapshot
// truncates the log segments the snapshot subsumes. GET /v1/stats
// reports the log's counters under "wal".
//
// With -role the process takes a place in a cluster instead of serving
// standalone. A shard node (-role shard -cluster-shards N -shard-ids
// 0,3) is the same engine restricted to the named global shards of an
// N-shard hash placement: it builds (or snapshot-loads) only those
// shards, answers exactly its slice of any /v1 query, rejects misrouted
// mutations with 421 not_owned, and adds GET /cluster/v1/info
// (placement discovery) and GET /cluster/v1/snapshot/{file} (snapshot
// shipping) beside the /v1 surface. A router (-role router -nodes
// http://a:8081,http://b:8082) holds no corpus: it discovers each
// node's shards, fans searches (single or "queries" batches) out per
// replica group with the k-th-best bound shipped as the seed limit,
// retries a slow node's replica once under -node-timeout, bounds each
// search by -query-timeout, degrades to a partial answer
// ("degraded": true, per-node health in /v1/stats) when a whole group
// is down, and merges by (distance, ID) — byte-identical to one big
// engine when every group answers. -fetch-snapshot URL|DIR warm-boots a
// replica by shipping a peer's shard files (each verified against its
// own checksum, manifest committed last) into -snapshot before loading.
// -version (or GET /v1/version) prints build, role and shard map.
//
// Usage:
//
//	trajgen -kind taxi -n 2000 -o db.csv
//	trajserve -db db.csv -metrics edwp,dtw,edr -shards 4 -snapshot snap/ -addr :8080 -query-timeout 5s -pprof
//	curl -s localhost:8080/v1/search -d '{"kind":"knn","query":{"id":0,"points":[[0,0,0],[100,50,60]]},"k":5}'
//	curl -s localhost:8080/v1/search -d '{"kind":"knn","metric":"dtw","query":{"id":0,"points":[[0,0,0],[100,50,60]]},"k":5}'
//	curl -s -X POST localhost:8080/v1/snapshot        # persist the index
//	trajserve -snapshot snap/ -addr :8080             # instant warm boot
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
//	# two-node cluster + router
//	trajserve -role shard -cluster-shards 2 -shard-ids 0 -db db.csv -addr :8081
//	trajserve -role shard -cluster-shards 2 -shard-ids 1 -db db.csv -addr :8082
//	trajserve -role router -nodes http://localhost:8081,http://localhost:8082 -addr :8080
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"trajmatch"
)

func main() {
	var (
		dbPath   = flag.String("db", "", "database file (csv or ndjson by extension)")
		addr     = flag.String("addr", ":8080", "listen address")
		theta    = flag.Float64("theta", 0.8, "TrajTree θ (diversity drop threshold)")
		cumula   = flag.Bool("cumulative", false, "use cumulative EDwP instead of EDwPavg")
		cache    = flag.Int("cache", 0, "LRU result-cache entries (0 = default 1024, negative disables)")
		workers  = flag.Int("workers", 0, "batch worker-pool / shard fan-out size (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 1, "number of hash-partitioned index shards")
		snapshot = flag.String("snapshot", "", "snapshot directory: load on boot if present, POST /v1/snapshot writes here")
		mmapBoot = flag.Bool("mmap", false, "map the snapshot's shard files instead of reading them onto the heap: the same files, checks and loaded state either way, with the point slabs aliasing the page cache")
		walDir   = flag.String("wal", "", "write-ahead-log directory: mutations are logged before acknowledgement and replayed on boot")
		walSync  = flag.String("wal-sync", "always", "WAL durability point: always (fsync per acknowledgement), interval (background fsync), never (OS page cache)")
		walInt   = flag.Duration("wal-sync-interval", 0, "background fsync period under -wal-sync interval (0 = default 100ms)")
		seed     = flag.Int64("seed", 1, "index build seed")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		queryTO  = flag.Duration("query-timeout", 0, "per-request search deadline, honoured down to the distance kernels (0 disables)")
		metricsF = flag.String("metrics", "edwp", "comma-separated metric backends to boot over the database (edwp, dtw, edr); the first is the default of /v1/search")

		sealAfter = flag.Duration("seal-after", 0, "background-seal live tracks idle longer than this (0 disables the sealer; explicit POST /v1/seal always works)")
		sealInt   = flag.Duration("seal-interval", 0, "background sealer check period (0 = seal-after/4, at least 1s)")
		eventsBuf = flag.Int("events-buffer", 0, "retained watch-event window for /v1/events resumption (0 = default 4096)")

		role          = flag.String("role", "standalone", "deployment role: standalone, shard (serve -shard-ids of a -cluster-shards placement), router (fan out over -nodes)")
		shardIDs      = flag.String("shard-ids", "", "comma-separated global shard indices this shard node serves (role shard)")
		clusterShards = flag.Int("cluster-shards", 0, "global shard count of the cluster hash placement (role shard; every node and router must agree)")
		nodesF        = flag.String("nodes", "", "comma-separated shard-node base URLs (role router)")
		nodeTimeout   = flag.Duration("node-timeout", 10*time.Second, "per-node request timeout of the router fan-out, and of -fetch-snapshot transfers")
		fetchSrc      = flag.String("fetch-snapshot", "", "warm-boot source: ship this peer's (node URL or directory) snapshot into -snapshot before boot, one verified file per served shard, unless a snapshot is already there")
		versionF      = flag.Bool("version", false, "print build, role and placement information as JSON and exit")

		prefilter  = flag.Bool("prefilter", false, "build the sketch/LSH candidate prefilter; queries opt in with \"prefilter\": true")
		sketchCell = flag.Float64("sketch-cell", 0, "prefilter grid cell size in corpus units (0 derives from the corpus)")
		sketchShin = flag.Int("sketch-shingle", 0, "prefilter shingle length in cells (0 = default 2)")
		sketchHash = flag.Int("sketch-hashes", 0, "prefilter MinHash signature width (0 = default 64; must be a multiple of -sketch-bands)")
		sketchBand = flag.Int("sketch-bands", 0, "prefilter LSH band count (0 = default 16)")
		sketchMinC = flag.Int("sketch-min-cands", 0, "prefilter per-shard candidate floor (0 = default 32)")
	)
	flag.Parse()

	switch *role {
	case trajmatch.RoleStandalone, trajmatch.RoleShard, trajmatch.RoleRouter:
	default:
		fatalf("-role: unknown role %q (standalone, shard, router)", *role)
	}
	if *versionF {
		printVersion(*role, *clusterShards, *shardIDs, *nodesF)
		return
	}
	if *role == trajmatch.RoleRouter {
		if *dbPath != "" || *shardIDs != "" {
			fatalf("-role router holds no corpus; -db and -shard-ids do not apply")
		}
		runRouter(*addr, *nodesF, *nodeTimeout, *queryTO)
		return
	}

	metricNames, err := parseMetrics(*metricsF)
	if err != nil {
		fatalf("-metrics: %v", err)
	}
	syncPolicy, err := trajmatch.ParseWALSyncPolicy(*walSync)
	if err != nil {
		fatalf("-wal-sync: %v", err)
	}

	eopt := trajmatch.EngineOptions{
		CacheSize:       *cache,
		Workers:         *workers,
		Shards:          *shards,
		SnapshotDir:     *snapshot,
		Mmap:            *mmapBoot,
		WALDir:          *walDir,
		WALSync:         syncPolicy,
		WALSyncInterval: *walInt,
		SealAfter:       *sealAfter,
		SealInterval:    *sealInt,
		EventBuffer:     *eventsBuf,
		Prefilter:       *prefilter,
		Sketch: trajmatch.SketchParams{
			CellSize: *sketchCell,
			Shingle:  *sketchShin,
			Hashes:   *sketchHash,
			Bands:    *sketchBand,
			MinCands: *sketchMinC,
		},
	}
	var owned []int
	if *role == trajmatch.RoleShard {
		owned, err = parseShardIDs(*shardIDs)
		if err != nil {
			fatalf("-shard-ids: %v", err)
		}
		if *clusterShards < 1 {
			fatalf("-role shard requires -cluster-shards (the global placement every node agrees on)")
		}
		eopt.Partition = &trajmatch.EnginePartition{Total: *clusterShards, Owned: owned}
	} else if *shardIDs != "" || *clusterShards != 0 {
		fatalf("-shard-ids and -cluster-shards apply to -role shard only")
	}
	if *nodesF != "" {
		fatalf("-nodes applies to -role router only")
	}

	if *fetchSrc != "" {
		if *snapshot == "" {
			fatalf("-fetch-snapshot requires -snapshot DIR to ship into")
		}
		if trajmatch.EngineSnapshotExists(*snapshot) {
			log.Printf("snapshot %s already present; skipping -fetch-snapshot %s", *snapshot, *fetchSrc)
		} else {
			tf := time.Now()
			info, err := trajmatch.FetchEngineSnapshot(context.Background(), *fetchSrc, *snapshot, owned,
				&http.Client{Timeout: *nodeTimeout})
			if err != nil {
				fatalf("fetch snapshot: %v", err)
			}
			want := owned
			if want == nil {
				want = info.Covered
			}
			log.Printf("shipped snapshot from %s: shards %v of %d in %v",
				*fetchSrc, want, info.Shards, time.Since(tf).Round(time.Millisecond))
		}
	}

	var engine *trajmatch.Engine
	t0 := time.Now()
	switch {
	case trajmatch.EngineSnapshotExists(*snapshot):
		if *dbPath != "" {
			log.Printf("warning: snapshot %s exists; ignoring -db %s and the build flags (-theta/-cumulative/-seed) — remove the snapshot directory to rebuild from the database", *snapshot, *dbPath)
		}
		// The snapshot persists the tree-backed EDwP set; any other
		// requested metric is rebuilt from the loaded corpus.
		engine, err = trajmatch.LoadEngineSnapshotMetrics(*snapshot, metricNames, eopt)
		if err != nil {
			fatalf("load snapshot: %v", err)
		}
		if engine.Shards() != *shards && *shards != 1 {
			log.Printf("warning: -shards %d ignored; snapshot manifest fixes the shard count at %d (placement depends on it)", *shards, engine.Shards())
		}
		log.Printf("loaded snapshot %s: %d trajectories in %d shards (height %d), metrics %v, in %v",
			*snapshot, engine.Size(), engine.Shards(), engine.Height(), engine.Metrics(),
			time.Since(t0).Round(time.Millisecond))
	case *dbPath != "":
		db := readFile(*dbPath)
		engine, err = trajmatch.NewMultiEngine(db, metricNames, trajmatch.IndexOptions{
			Theta:      *theta,
			Cumulative: *cumula,
			Parallel:   true,
			Seed:       *seed,
		}, eopt)
		if err != nil {
			fatalf("build: %v", err)
		}
		log.Printf("indexed %d trajectories in %d shards (height %d), metrics %v, in %v",
			engine.Size(), engine.Shards(), engine.Height(), engine.Metrics(),
			time.Since(t0).Round(time.Millisecond))
	default:
		fatalf("-db is required (or -snapshot pointing at an existing snapshot)")
	}
	if *walDir != "" {
		if ws := engine.Stats().WAL; ws != nil {
			log.Printf("wal enabled at %s (sync %s): replayed %d records (%d torn tail bytes dropped)",
				*walDir, ws.Policy, ws.Replayed, ws.DroppedTailBytes)
		}
	}
	if *sealAfter > 0 {
		log.Printf("background sealer armed: folding live tracks idle longer than %v", *sealAfter)
	}
	if engine.PrefilterEnabled() {
		p := engine.SketchParams()
		log.Printf("prefilter enabled: cell %.1f, shingle %d, %d hashes in %d bands, min candidates %d",
			p.CellSize, p.Shingle, p.Hashes, p.Bands, p.MinCands)
	}

	hopt := trajmatch.HandlerOptions{QueryTimeout: *queryTO}
	var handler http.Handler
	if *role == trajmatch.RoleShard {
		vi := trajmatch.NewVersionInfo(trajmatch.RoleShard, engine)
		hopt.Version = &vi
		handler = trajmatch.NewClusterNodeHandler(engine, hopt)
		log.Printf("shard node serving global shards %v of a %d-shard placement", engine.OwnedShards(), engine.ClusterShards())
	} else {
		handler = trajmatch.NewAPIHandler(engine, hopt)
	}
	if *pprofOn {
		// Opt-in profiling: the handlers are registered explicitly on the
		// API mux, which is the only mux this server ever serves. (The
		// net/http/pprof import also registers on http.DefaultServeMux as
		// an init side effect — do not serve DefaultServeMux anywhere in
		// this binary, or profiling would be exposed regardless of -pprof.)
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	// Drained before close: no request is mid-mutation, so the flush
	// makes every acknowledged mutation durable under every -wal-sync
	// policy.
	serveHTTP(*addr, handler, engine.Close)
}

// serveHTTP runs the server until SIGINT/SIGTERM, then drains in-flight
// requests for up to 15 seconds before running closeFn and exiting, so
// load balancers rolling the process do not sever live queries.
func serveHTTP(addr string, handler http.Handler, closeFn func() error) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           logRequests(handler),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("trajserve listening on %s", addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received, draining connections")
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fatalf("shutdown: %v", err)
		}
		if closeFn != nil {
			if err := closeFn(); err != nil {
				fatalf("close: %v", err)
			}
		}
		log.Printf("shutdown complete")
	}
}

// runRouter boots the stateless fan-out role: discover the nodes'
// placement, serve the public /v1 surface over the router.
func runRouter(addr, nodesCSV string, nodeTimeout, queryTO time.Duration) {
	var nodes []string
	for _, part := range strings.Split(nodesCSV, ",") {
		if s := strings.TrimSpace(part); s != "" {
			nodes = append(nodes, s)
		}
	}
	if len(nodes) == 0 {
		fatalf("-role router requires -nodes (comma-separated shard-node base URLs)")
	}
	if queryTO > 0 && queryTO < nodeTimeout {
		// The per-node timeout already bounds each fan-out leg; a shorter
		// query timeout would be the effective one and the flag pair is
		// probably a mistake.
		log.Printf("warning: -query-timeout %v is shorter than -node-timeout %v; node requests are bounded by the smaller", queryTO, nodeTimeout)
	}
	rt, err := trajmatch.NewClusterRouter(context.Background(), trajmatch.ClusterConfig{
		Nodes:        nodes,
		Timeout:      nodeTimeout,
		QueryTimeout: queryTO,
	})
	if err != nil {
		fatalf("router: %v", err)
	}
	st := rt.Stats()
	log.Printf("router fronting %d global shards in %d groups over %d nodes",
		st.ClusterShards, st.ShardGroups, len(st.Nodes))
	serveHTTP(addr, trajmatch.NewClusterRouterHandler(rt), nil)
}

// printVersion writes the -version payload: what GET /v1/version would
// report, assembled from flags alone (no index is built).
func printVersion(role string, clusterShards int, shardIDs, nodesCSV string) {
	v := trajmatch.NewVersionInfo(role, nil)
	if role == trajmatch.RoleShard {
		v.ClusterShards = clusterShards
		if owned, err := parseShardIDs(shardIDs); err == nil {
			v.OwnedShards = owned
		}
	}
	if role == trajmatch.RoleRouter && nodesCSV != "" {
		for _, part := range strings.Split(nodesCSV, ",") {
			if s := strings.TrimSpace(part); s != "" {
				v.Nodes = append(v.Nodes, s)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// parseShardIDs parses the -shard-ids list ("0,3") into sorted unique
// global indices; range validation against -cluster-shards happens in
// the engine's placement resolution.
func parseShardIDs(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		p := strings.TrimSpace(part)
		if p == "" {
			continue
		}
		id, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad shard index %q", p)
		}
		if id < 0 {
			return nil, fmt.Errorf("negative shard index %d", id)
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard indices given")
	}
	sort.Ints(out)
	return out, nil
}

func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %v", r.Method, r.URL.Path, time.Since(t0).Round(time.Microsecond))
	})
}

// parseMetrics splits and validates the -metrics list against the
// known metric names, so a typo fails at boot instead of per query.
func parseMetrics(s string) ([]string, error) {
	known := map[string]bool{}
	for _, n := range trajmatch.RegisteredMetrics() {
		known[n] = true
	}
	var out []string
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown metric %q (registered: %s)", name, strings.Join(trajmatch.RegisteredMetrics(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate metric %q", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no metrics specified")
	}
	return out, nil
}

func readFile(path string) []*trajmatch.Trajectory {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var db []*trajmatch.Trajectory
	if strings.HasSuffix(path, ".ndjson") || strings.HasSuffix(path, ".jsonl") {
		db, err = trajmatch.ReadNDJSON(f)
	} else {
		db, err = trajmatch.ReadCSV(f)
	}
	if err != nil {
		fatalf("parse %s: %v", path, err)
	}
	return db
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "trajserve: "+format+"\n", args...)
	os.Exit(1)
}
