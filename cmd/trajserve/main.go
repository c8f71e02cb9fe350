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
// per-shard size/height breakdown. With -pprof, in every role, the
// standard net/http/pprof handlers are mounted under /debug/pprof/ for
// live CPU, heap and contention profiling.
//
// With -prefilter, the server builds the sketch candidate prefilter at
// boot (one grid-cell index per shard, its cell size derived from the
// corpus). Queries opt in per request with "prefilter": true on a knn
// search: each shard's sketch admits the members sharing the most grid
// cells with the query as a small candidate set and the backend verifies
// it exactly, trading a little recall for a large cut in exact distance
// evaluations; with_stats then reports prefilter_candidates and
// prefilter_skipped.
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
// that duration automatically (checking every quarter of it).
// /v1/watch registers a standing query — a pattern plus a threshold or
// a top-k budget — matched incrementally as appends arrive, with the
// sketch token gate (when -prefilter is on) skipping the exact kernel
// for watchers whose patterns share no grid cells with the new points.
// Match events stream on /v1/events with monotonic seq numbers
// (at-least-once; consumers resume with ?since), as long-poll JSON or
// SSE, from a window of the newest 4096 events.
//
// With -wal DIR, every accepted insert and delete is appended to a
// write-ahead log before it is acknowledged, and a boot replays the log
// on top of the snapshot (or the freshly built index), so acknowledged
// mutations survive a crash between snapshots. -wal-sync picks the
// durability point: "always" (the default) fsyncs before every
// acknowledgement and survives power loss, "interval" fsyncs in the
// background every 100ms and bounds the loss window to that interval,
// "never" leaves flushing to the OS page cache (a kill -9 still loses
// nothing; power loss may). A committed POST /v1/snapshot truncates the
// log segments the snapshot subsumes. GET /v1/stats reports the log's
// counters under "wal".
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
// A router rejects every flag that configures an engine, and a flag
// that does not apply to the chosen role is an error, not a no-op.
// -version (or GET /v1/version) prints build, role and shard map after
// the same checks a boot makes.
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
	"io"
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

// buildSeed seeds every index build; snapshots record the tree, so a
// warm boot does not depend on it.
const buildSeed = 1

// config is a parsed command line: the deployment settings main acts
// on, plus the index and engine options the flags set.
type config struct {
	role          string
	addr          string
	db            string
	metrics       []string
	nodes         []string
	nodeTimeout   time.Duration
	queryTimeout  time.Duration
	fetchSnapshot string
	pprof         bool
	version       bool
	index         trajmatch.IndexOptions
	engine        trajmatch.EngineOptions
}

// rawFlags holds the flag values parseConfig still has to parse or
// check against the role before they become config fields.
type rawFlags struct {
	metrics, walSync, shardIDs, nodes string
	clusterShards                     int
}

// routerFlags are the flags a router uses; a router holds no corpus,
// so every other flag configures an engine it does not have.
var routerFlags = map[string]bool{
	"role": true, "addr": true, "nodes": true, "node-timeout": true,
	"query-timeout": true, "pprof": true, "version": true,
}

// newFlagSet declares every trajserve flag, bound to c and r.
func newFlagSet(c *config, r *rawFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("trajserve", flag.ContinueOnError)
	e := &c.engine
	fs.StringVar(&c.db, "db", "", "database file (csv or ndjson by extension)")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.Float64Var(&c.index.Theta, "theta", 0.8, "TrajTree θ (diversity drop threshold)")
	fs.BoolVar(&c.index.Cumulative, "cumulative", false, "use cumulative EDwP instead of EDwPavg")
	fs.IntVar(&e.CacheSize, "cache", 0, "LRU result-cache entries (0 = default 1024, negative disables)")
	fs.IntVar(&e.Workers, "workers", 0, "batch worker-pool / shard fan-out size (0 = GOMAXPROCS)")
	fs.IntVar(&e.Shards, "shards", 1, "number of hash-partitioned index shards")
	fs.StringVar(&e.SnapshotDir, "snapshot", "", "snapshot directory: load on boot if present, POST /v1/snapshot writes here")
	fs.BoolVar(&e.Mmap, "mmap", false, "map the snapshot's shard files instead of reading them onto the heap: the same files, checks and loaded state either way, with the point slabs aliasing the page cache")
	fs.StringVar(&e.WALDir, "wal", "", "write-ahead-log directory: mutations are logged before acknowledgement and replayed on boot")
	fs.StringVar(&r.walSync, "wal-sync", "always", "WAL durability point: always (fsync per acknowledgement), interval (background fsync every 100ms), never (OS page cache)")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.DurationVar(&c.queryTimeout, "query-timeout", 0, "per-request search deadline, honoured down to the distance kernels (0 disables)")
	fs.StringVar(&r.metrics, "metrics", "edwp", "comma-separated metric backends to boot over the database (edwp, dtw, edr); the first is the default of /v1/search")
	fs.DurationVar(&e.SealAfter, "seal-after", 0, "background-seal live tracks idle longer than this, checking every quarter of it (0 disables the sealer; explicit POST /v1/seal always works)")
	fs.StringVar(&c.role, "role", trajmatch.RoleStandalone, "deployment role: standalone, shard (serve -shard-ids of a -cluster-shards placement), router (fan out over -nodes)")
	fs.StringVar(&r.shardIDs, "shard-ids", "", "comma-separated global shard indices this shard node serves (role shard)")
	fs.IntVar(&r.clusterShards, "cluster-shards", 0, "global shard count of the cluster hash placement (role shard; every node and router must agree)")
	fs.StringVar(&r.nodes, "nodes", "", "comma-separated shard-node base URLs (role router)")
	fs.DurationVar(&c.nodeTimeout, "node-timeout", 10*time.Second, "per-node request timeout of the router fan-out, and of -fetch-snapshot transfers")
	fs.StringVar(&c.fetchSnapshot, "fetch-snapshot", "", "warm-boot source: ship this peer's (node URL or directory) snapshot into -snapshot before boot, one verified file per served shard, unless a snapshot is already there")
	fs.BoolVar(&c.version, "version", false, "print build, role and placement information as JSON and exit")
	fs.BoolVar(&e.Prefilter, "prefilter", false, "build the sketch candidate prefilter; queries opt in with \"prefilter\": true")
	return fs
}

// parseConfig parses the command line and makes every check that needs
// only the flags: unknown roles, metrics and sync policies, malformed
// shard lists, and flags the chosen role does not use. -version passes
// the same checks a boot does.
func parseConfig(args []string) (config, error) {
	c := config{index: trajmatch.IndexOptions{Parallel: true, Seed: buildSeed}}
	var r rawFlags
	fs := newFlagSet(&c, &r)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch c.role {
	case trajmatch.RoleStandalone, trajmatch.RoleShard, trajmatch.RoleRouter:
	default:
		return c, fmt.Errorf("-role: unknown role %q (standalone, shard, router)", c.role)
	}
	if c.role == trajmatch.RoleRouter {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if !routerFlags[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return c, fmt.Errorf("-role router holds no corpus; it does not take %s", strings.Join(stray, ", "))
		}
		if c.nodes = splitList(r.nodes); len(c.nodes) == 0 {
			return c, errors.New("-role router requires -nodes (comma-separated shard-node base URLs)")
		}
		return c, nil
	}
	if r.nodes != "" {
		return c, errors.New("-nodes applies to -role router only")
	}
	var err error
	if c.metrics, err = parseMetrics(r.metrics); err != nil {
		return c, fmt.Errorf("-metrics: %v", err)
	}
	if c.engine.WALSync, err = trajmatch.ParseWALSyncPolicy(r.walSync); err != nil {
		return c, fmt.Errorf("-wal-sync: %v", err)
	}
	if c.role == trajmatch.RoleShard {
		owned, err := parseShardIDs(r.shardIDs)
		if err != nil {
			return c, fmt.Errorf("-shard-ids: %v", err)
		}
		if r.clusterShards < 1 {
			return c, errors.New("-role shard requires -cluster-shards (the global placement every node agrees on)")
		}
		c.engine.Partition = &trajmatch.EnginePartition{Total: r.clusterShards, Owned: owned}
	} else if r.shardIDs != "" || r.clusterShards != 0 {
		return c, errors.New("-shard-ids and -cluster-shards apply to -role shard only")
	}
	if c.fetchSnapshot != "" && c.engine.SnapshotDir == "" {
		return c, errors.New("-fetch-snapshot requires -snapshot DIR to ship into")
	}
	return c, nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		fs := newFlagSet(&config{}, &rawFlags{})
		fmt.Fprintln(os.Stderr, "Usage of trajserve:")
		fs.PrintDefaults()
		return
	}
	if err != nil {
		fatalf("%v", err)
	}
	if cfg.version {
		printVersion(cfg)
		return
	}
	if cfg.role == trajmatch.RoleRouter {
		serveHTTP(cfg, newRouter(cfg), nil)
		return
	}
	engine, handler := bootEngine(cfg)
	// Drained before close: no request is mid-mutation, so the flush
	// makes every acknowledged mutation durable under every -wal-sync
	// policy.
	serveHTTP(cfg, handler, engine.Close)
}

// bootEngine builds or warm-boots the engine of a standalone or shard
// process and returns it with the /v1 handler that serves it.
func bootEngine(cfg config) (*trajmatch.Engine, http.Handler) {
	eopt := cfg.engine
	var owned []int
	if eopt.Partition != nil {
		owned = eopt.Partition.Owned
	}
	snapshot := eopt.SnapshotDir
	if cfg.fetchSnapshot != "" {
		if trajmatch.EngineSnapshotExists(snapshot) {
			log.Printf("snapshot %s already present; skipping -fetch-snapshot %s", snapshot, cfg.fetchSnapshot)
		} else {
			tf := time.Now()
			info, err := trajmatch.FetchEngineSnapshot(context.Background(), cfg.fetchSnapshot, snapshot, owned,
				&http.Client{Timeout: cfg.nodeTimeout})
			if err != nil {
				fatalf("fetch snapshot: %v", err)
			}
			want := owned
			if want == nil {
				want = info.Covered
			}
			log.Printf("shipped snapshot from %s: shards %v of %d in %v",
				cfg.fetchSnapshot, want, info.Shards, time.Since(tf).Round(time.Millisecond))
		}
	}

	var engine *trajmatch.Engine
	var err error
	t0 := time.Now()
	switch {
	case trajmatch.EngineSnapshotExists(snapshot):
		if cfg.db != "" {
			log.Printf("warning: snapshot %s exists; ignoring -db %s and the build flags (-theta/-cumulative) — remove the snapshot directory to rebuild from the database", snapshot, cfg.db)
		}
		// The snapshot persists the tree-backed EDwP set; any other
		// requested metric is rebuilt from the loaded corpus.
		engine, err = trajmatch.LoadEngineSnapshotMetrics(snapshot, cfg.metrics, eopt)
		if err != nil {
			fatalf("load snapshot: %v", err)
		}
		if engine.Shards() != eopt.Shards && eopt.Shards != 1 {
			log.Printf("warning: -shards %d ignored; snapshot manifest fixes the shard count at %d (placement depends on it)", eopt.Shards, engine.Shards())
		}
		log.Printf("loaded snapshot %s: %d trajectories in %d shards (height %d), metrics %v, in %v",
			snapshot, engine.Size(), engine.Shards(), engine.Height(), engine.Metrics(),
			time.Since(t0).Round(time.Millisecond))
	case cfg.db != "":
		engine, err = trajmatch.NewMultiEngine(readFile(cfg.db), cfg.metrics, cfg.index, eopt)
		if err != nil {
			fatalf("build: %v", err)
		}
		log.Printf("indexed %d trajectories in %d shards (height %d), metrics %v, in %v",
			engine.Size(), engine.Shards(), engine.Height(), engine.Metrics(),
			time.Since(t0).Round(time.Millisecond))
	default:
		fatalf("-db is required (or -snapshot pointing at an existing snapshot)")
	}
	if eopt.WALDir != "" {
		if ws := engine.Stats().WAL; ws != nil {
			log.Printf("wal enabled at %s (sync %s): replayed %d records (%d torn tail bytes dropped)",
				eopt.WALDir, ws.Policy, ws.Replayed, ws.DroppedTailBytes)
		}
	}
	if eopt.SealAfter > 0 {
		log.Printf("background sealer armed: folding live tracks idle longer than %v", eopt.SealAfter)
	}
	if engine.PrefilterEnabled() {
		log.Printf("prefilter enabled: cell %.1f", engine.SketchParams().CellSize)
	}

	hopt := trajmatch.HandlerOptions{QueryTimeout: cfg.queryTimeout}
	if cfg.role == trajmatch.RoleShard {
		vi := trajmatch.NewVersionInfo(trajmatch.RoleShard, engine)
		hopt.Version = &vi
		log.Printf("shard node serving global shards %v of a %d-shard placement", engine.OwnedShards(), engine.ClusterShards())
		return engine, trajmatch.NewClusterNodeHandler(engine, hopt)
	}
	return engine, trajmatch.NewAPIHandler(engine, hopt)
}

// newRouter boots the stateless fan-out role: discover the nodes'
// placement and return the public /v1 surface over the router.
func newRouter(cfg config) http.Handler {
	if cfg.queryTimeout > 0 && cfg.queryTimeout < cfg.nodeTimeout {
		// The per-node timeout already bounds each fan-out leg; a shorter
		// query timeout would be the effective one and the flag pair is
		// probably a mistake.
		log.Printf("warning: -query-timeout %v is shorter than -node-timeout %v; node requests are bounded by the smaller", cfg.queryTimeout, cfg.nodeTimeout)
	}
	rt, err := trajmatch.NewClusterRouter(context.Background(), trajmatch.ClusterConfig{
		Nodes:        cfg.nodes,
		Timeout:      cfg.nodeTimeout,
		QueryTimeout: cfg.queryTimeout,
	})
	if err != nil {
		fatalf("router: %v", err)
	}
	st := rt.Stats()
	log.Printf("router fronting %d global shards in %d groups over %d nodes",
		st.ClusterShards, st.ShardGroups, len(st.Nodes))
	return trajmatch.NewClusterRouterHandler(rt)
}

// rootHandler is what every role serves: the role's API handler, with
// the pprof handlers beside it when -pprof is set, behind the request
// log.
func rootHandler(api http.Handler, pprofOn bool) http.Handler {
	if pprofOn {
		// The handlers are registered explicitly on this mux, the only
		// mux this server ever serves. (The net/http/pprof import also
		// registers on http.DefaultServeMux as an init side effect — do
		// not serve DefaultServeMux anywhere in this binary, or profiling
		// would be exposed regardless of -pprof.)
		mux := http.NewServeMux()
		mux.Handle("/", api)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		api = mux
	}
	return logRequests(api)
}

// serveHTTP runs the server until SIGINT/SIGTERM, then drains in-flight
// requests for up to 15 seconds before running closeFn and exiting, so
// load balancers rolling the process do not sever live queries.
func serveHTTP(cfg config, api http.Handler, closeFn func() error) {
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           rootHandler(api, cfg.pprof),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if cfg.pprof {
		log.Printf("pprof enabled at /debug/pprof/")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("trajserve listening on %s", cfg.addr)
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

// printVersion writes the -version payload: what GET /v1/version would
// report, assembled from flags alone (no index is built).
func printVersion(cfg config) {
	v := trajmatch.NewVersionInfo(cfg.role, nil)
	if p := cfg.engine.Partition; p != nil {
		v.ClusterShards, v.OwnedShards = p.Total, p.Owned
	}
	v.Nodes = cfg.nodes
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseShardIDs parses the -shard-ids list ("0,3") into sorted unique
// global indices; range validation against -cluster-shards happens in
// the engine's placement resolution.
func parseShardIDs(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, p := range splitList(s) {
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
	for _, name := range splitList(s) {
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
