// Package trajmatch is a from-scratch Go implementation of "Indexing and
// Matching Trajectories under Inconsistent Sampling Rates" (Ranu, Deepak P,
// Telang, Deshpande, Raghavan; ICDE 2015): the EDwP trajectory distance —
// Edit Distance with Projections, a threshold-free measure robust to
// heterogeneous sampling — and the TrajTree index for exact k-NN retrieval
// under it.
//
// The package is a facade over the implementation packages in internal/,
// cut to what the commands under cmd/ and the benchmark under bench/ use
// plus the paper's own toolkit: the trajectory model and its lat/lon and
// trip-splitting ingestion, the EDwP family with its edit script, the
// baseline distances of Table I, the TrajTree index, the sharded query
// engine with its HTTP API, snapshots and cluster mode, the synthetic
// datasets with the paper's four noise models, and CSV/NDJSON I/O. The
// paper's tables and figures are reproduced by cmd/trajbench over
// internal/eval.
//
// Quick start:
//
//	a := trajmatch.FromXY(1, 0, 0, 5, 0, 5, 5)
//	b := trajmatch.FromXY(2, 0, 0, 5, 5)
//	d := trajmatch.EDwPAvg(a, b)
//
//	engine, err := trajmatch.NewEngine(db, trajmatch.IndexOptions{}, trajmatch.EngineOptions{})
//	ans, err := engine.Search(ctx, query, trajmatch.Query{Kind: trajmatch.QueryKNN, K: 10})
package trajmatch

import (
	"context"
	"io"
	"math/rand"
	"net/http"

	"trajmatch/internal/backend"
	"trajmatch/internal/baseline"
	"trajmatch/internal/cluster"
	"trajmatch/internal/core"
	"trajmatch/internal/dataio"
	"trajmatch/internal/metrics"
	"trajmatch/internal/server"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
	"trajmatch/internal/wal"
)

// Trajectory is a temporally ordered sequence of spatio-temporal points.
type Trajectory = traj.Trajectory

// STPoint is one spatio-temporal sample: a 2-D location and a timestamp.
type STPoint = traj.Point

// P constructs an STPoint from x, y and timestamp t.
func P(x, y, t float64) STPoint { return traj.P(x, y, t) }

// NewTrajectory builds a trajectory over pts with the given id.
func NewTrajectory(id int, pts []STPoint) *Trajectory { return traj.New(id, pts) }

// FromXY builds a trajectory from alternating x,y pairs with unit-spaced
// timestamps.
func FromXY(id int, xy ...float64) *Trajectory { return traj.FromXY(id, xy...) }

// EDwP returns the cumulative Edit Distance with Projections between two
// trajectories (Section III-A of the paper).
func EDwP(a, b *Trajectory) float64 { return core.Distance(a, b) }

// EDwPAvg returns the length-normalised EDwP (Eq. 4), the form the paper's
// experiments use throughout.
func EDwPAvg(a, b *Trajectory) float64 { return core.AvgDistance(a, b) }

// EDwPSub returns EDwPsub(q, t) (Eq. 6): the whole of q aligned against the
// best-matching contiguous sub-trajectory of t.
func EDwPSub(q, t *Trajectory) float64 { return core.SubDistance(q, t) }

// Edit is one step of an optimal EDwP alignment.
type Edit = core.Edit

// Edit kinds re-exported from the core package.
const (
	EditRep      = core.Rep
	EditInsLeft  = core.InsLeft
	EditInsRight = core.InsRight
)

// AlignEDwP returns the EDwP distance together with an optimal edit script
// whose step costs sum to the distance.
func AlignEDwP(a, b *Trajectory) (float64, []Edit) { return core.Align(a, b) }

// Metric is a trajectory distance function; all baselines and EDwP itself
// satisfy it.
type Metric = baseline.Metric

// Baseline metrics from the paper's comparison suite (Table I).
type (
	// MetricEDwP adapts EDwP to the Metric interface.
	MetricEDwP = baseline.EDwP
	// MetricDTW is Dynamic Time Warping.
	MetricDTW = baseline.DTW
	// MetricLCSS is Longest Common Sub-Sequence with threshold Eps.
	MetricLCSS = baseline.LCSS
	// MetricERP is Edit distance with Real Penalty.
	MetricERP = baseline.ERP
	// MetricEDR is Edit Distance on Real sequence with threshold Eps.
	MetricEDR = baseline.EDR
	// MetricDISSIM is the time-integral dissimilarity.
	MetricDISSIM = baseline.DISSIM
	// MetricMA is the model-driven assignment.
	MetricMA = baseline.MA
)

// Metrics returns the paper's benchmark suite with the given matching
// threshold ε for the threshold-dependent members.
func Metrics(eps float64) []Metric { return baseline.All(eps) }

// DefaultMA returns the MA baseline with its standard parameterisation.
func DefaultMA(eps float64) MetricMA { return baseline.DefaultMA(eps) }

// IndexOptions configure TrajTree construction; the zero value uses the
// paper's defaults (θ = 0.8, leaf size 10).
type IndexOptions = trajtree.Options

// Index is a TrajTree: an exact k-NN index for EDwP (Section IV).
type Index = trajtree.Tree

// QueryStats carries per-query instrumentation.
type QueryStats = trajtree.Stats

// Result is one k-NN answer.
type Result = trajtree.Result

// SharedBound is an atomically tightening upper bound shared by
// concurrent searches over disjoint indexes; see Index.SearchKNN.
type SharedBound = backend.SharedBound

// NewSharedBound returns a shared bound seeded at limit (+Inf for an
// unconstrained search). Concurrent Index.SearchKNN calls over disjoint
// partitions of one corpus tighten it cooperatively; the per-partition
// answers merge into the exact global k-NN set.
func NewSharedBound(limit float64) *SharedBound { return backend.NewSharedBound(limit) }

// NewIndex bulk-loads a TrajTree over db.
func NewIndex(db []*Trajectory, opt IndexOptions) (*Index, error) {
	return trajtree.New(db, opt)
}

// LoadIndex reconstructs an index previously written with Index.Save.
func LoadIndex(r io.Reader) (*Index, error) {
	idx, _, err := trajtree.Load(r)
	return idx, err
}

// Engine is a thread-safe sharded query engine: trajectories hash to
// independent index shards, each behind its own lock, so updates
// serialise per shard while queries fan out across all shards under a
// shared tightening bound and merge exactly. The query surface is
// Engine.Search(ctx, q, Query) — one context-aware entry point for k-NN,
// range and sub-trajectory search — plus Engine.SearchBatch for many
// query trajectories on a worker pool. Repeated k-NN queries hit an LRU
// result cache, and SaveSnapshot/LoadEngineSnapshot persist the whole
// sharded index. cmd/trajserve serves it over HTTP.
type Engine = server.Engine

// Query is the single request type of Engine.Search: the query kind
// (QueryKNN | QueryRange | QuerySubKNN), the Metric answering it (empty
// means the engine's first loaded metric — "edwp" in every standard
// boot; RegisteredMetrics lists the names), plus every knob — K, Radius,
// an admissible seed Limit, a MaxEvals budget, WithStats.
type Query = server.Query

// RegisteredMetrics returns the sorted metric names known to this build;
// Query.Metric values outside it fail with ErrUnknownMetric.
func RegisteredMetrics() []string { return metrics.Names() }

// ErrUnknownMetric reports a Query.Metric outside RegisteredMetrics.
var ErrUnknownMetric = server.ErrUnknownMetric

// ErrMetricNotLoaded reports a known Query.Metric the engine was not
// booted with.
var ErrMetricNotLoaded = server.ErrMetricNotLoaded

// ErrNotSupported reports an operation the loaded backend lacks the
// capability for (mutation or snapshots on DTW/EDR, sub-trajectory
// search outside EDwP); the HTTP layer answers it with 501.
var ErrNotSupported = server.ErrNotSupported

// The query kinds of Engine.Search.
const (
	// QueryKNN is exact k-nearest-neighbour search.
	QueryKNN = server.KindKNN
	// QueryRange returns everything within Query.Radius.
	QueryRange = server.KindRange
	// QuerySubKNN is sub-trajectory search under EDwPsub (Eq. 6),
	// answered by the k-NN descent ranking by EDwPsub, fanned across the
	// shards.
	QuerySubKNN = server.KindSubKNN
)

// Answer is the result of one executed Query: the (distance, ID)-sorted
// results plus stats, cache and truncation dispositions.
type Answer = server.Answer

// ErrInvalidQuery wraps every request-validation failure of
// Engine.Search and Engine.SearchBatch.
var ErrInvalidQuery = server.ErrInvalidQuery

// EngineOptions configure an Engine; the zero value enables a 1024-entry
// cache, GOMAXPROCS batch workers and a single shard. Set Shards for
// per-shard update locking and parallel builds, SnapshotDir to arm
// POST /v1/snapshot, Prefilter (optionally fixing Sketch's grid pitch)
// to build the sketch candidate prefilter that Query.Prefilter opts
// into, and
// WALDir (with WALSync choosing the durability point) to log every
// accepted mutation before acknowledgement and replay the log on boot.
type EngineOptions = server.Options

// WALSyncPolicy selects when write-ahead-log appends reach stable
// storage (EngineOptions.WALSync); ParseWALSyncPolicy names the three.
type WALSyncPolicy = wal.SyncPolicy

// ParseWALSyncPolicy parses the -wal-sync flag strings "always",
// "interval" and "never".
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// EngineStats is a snapshot of an Engine's traffic counters and index
// shape, including the per-metric breakdown.
type EngineStats = server.Stats

// NewEngine bulk-loads a TrajTree over db and wraps it in a concurrent
// Engine.
func NewEngine(db []*Trajectory, iopt IndexOptions, eopt EngineOptions) (*Engine, error) {
	return server.NewEngineFromDB(db, iopt, eopt)
}

// NewMultiEngine bulk-loads one sharded backend per named metric over
// the same database and wraps them in one engine: every metric answers
// over the same corpus through the same Search API and the same
// /v1/search endpoint, routed by Query.Metric. The first name is the
// default metric; iopt configures the EDwP tree when requested, and
// whole-database parameters of the other metrics (EDR's ε) derive from
// db before sharding.
func NewMultiEngine(db []*Trajectory, metricNames []string, iopt IndexOptions, eopt EngineOptions) (*Engine, error) {
	specs, err := metrics.Specs(metricNames, db, metrics.Config{Tree: iopt})
	if err != nil {
		return nil, err
	}
	return server.NewMultiEngineFromDB(db, specs, eopt)
}

// NewEngineFromIndex wraps an existing index in a concurrent Engine. The
// engine owns the index afterwards; do not query or update it directly.
func NewEngineFromIndex(idx *Index, eopt EngineOptions) *Engine {
	return server.NewEngine(idx, eopt)
}

// HandlerOptions configure the HTTP surface, notably the per-request
// query timeout honoured cooperatively through the whole search stack.
type HandlerOptions = server.HandlerOptions

// NewAPIHandler returns the versioned trajserve HTTP API over e:
// POST /v1/search (one endpoint — the query kind travels in the body,
// and a "queries" array batches), /v1/insert, /v1/delete, /v1/rebuild,
// /v1/snapshot and GET /v1/stats, /v1/healthz, all with JSON bodies and
// a consistent {"error", "code"} envelope on failure.
func NewAPIHandler(e *Engine, opt HandlerOptions) http.Handler {
	return server.NewAPIHandler(e, opt)
}

// LoadEngineSnapshot reconstructs an engine from a sharded snapshot
// directory written by Engine.SaveSnapshot (or POST /v1/snapshot). The
// shard count comes from the snapshot's manifest; the remaining options
// apply as given.
func LoadEngineSnapshot(dir string, eopt EngineOptions) (*Engine, error) {
	return server.LoadSnapshot(dir, eopt)
}

// LoadEngineSnapshotMetrics reconstructs a multi-metric engine from a
// snapshot directory: the persisted EDwP trees load from their shard
// streams, and every other named metric is rebuilt from the loaded
// corpus exactly as a fresh boot would build it (the manifest records
// which metrics were persisted). The first name is the default metric.
func LoadEngineSnapshotMetrics(dir string, metricNames []string, eopt EngineOptions) (*Engine, error) {
	return server.LoadSnapshotSpecs(dir, func(db []*Trajectory) ([]backend.Spec, error) {
		return metrics.Specs(metricNames, db, metrics.Config{})
	}, eopt)
}

// EngineSnapshotExists reports whether dir holds an engine snapshot
// manifest; cmd/trajserve uses it to decide between loading a snapshot
// and bulk-building from a database file.
func EngineSnapshotExists(dir string) bool {
	return server.SnapshotExists(dir)
}

// EnginePartition declares that an engine owns only a subset of a
// wider cluster's hash placement (EngineOptions.Partition): trajectories
// hash into Total global shards exactly as a single-process Total-shard
// engine places them, but this engine builds, serves and persists only
// the Owned global shard indices. A shard node of a trajserve cluster
// is an ordinary Engine with a Partition set.
type EnginePartition = server.Partition

// VersionInfo is the payload of GET /v1/version and trajserve -version:
// build identity plus the process's role and shard map.
type VersionInfo = server.VersionInfo

// The deployment roles VersionInfo reports.
const (
	RoleStandalone = server.RoleStandalone
	RoleShard      = server.RoleShard
	RoleRouter     = server.RoleRouter
)

// NewVersionInfo assembles the standard version payload for a process
// serving the given role over e (nil for a stateless router).
func NewVersionInfo(role string, e *Engine) VersionInfo {
	return server.NewVersionInfo(role, e)
}

// ClusterConfig configures a cluster router: the shard nodes' base
// URLs, the per-node-request timeout, and the per-search timeout its
// HTTP handler applies.
type ClusterConfig = cluster.Config

// ClusterRouter is the stateless fan-out front of a trajserve cluster:
// it discovers each node's owned shards, routes mutations by hash
// placement, and searches through the engine's own fan-out and merge
// with each replica group as one shard, every group of a query at once;
// a batch runs its queries over a pool. Answers are
// byte-identical to a single-process engine over the union corpus when
// every group answers, Answer.Degraded otherwise.
type ClusterRouter = cluster.Router

// NewClusterRouter probes every node's placement and assembles the
// router, verifying the nodes tile the global shard space.
func NewClusterRouter(ctx context.Context, cfg ClusterConfig) (*ClusterRouter, error) {
	return cluster.New(ctx, cfg)
}

// NewClusterNodeHandler wraps the engine's /v1 API with the cluster
// endpoints a shard node serves: placement discovery and snapshot
// shipping.
func NewClusterNodeHandler(e *Engine, opt HandlerOptions) http.Handler {
	return cluster.NodeHandler(e, opt)
}

// NewClusterRouterHandler serves the public /v1 surface over a router —
// the same wire formats as a standalone trajserve.
func NewClusterRouterHandler(rt *ClusterRouter) http.Handler {
	return cluster.RouterHandler(rt)
}

// EngineSnapshotInfo describes a snapshot directory's placement: the
// global shard count and the global shards it covers.
type EngineSnapshotInfo = server.SnapshotInfo

// FetchEngineSnapshot ships a snapshot from src (a node base URL or a
// filesystem path) into dstDir so a replica can warm-boot instead of
// rebuilding; nil shards fetches everything src covers. Fetched shard
// sections are checksum-verified and the manifest is committed last.
func FetchEngineSnapshot(ctx context.Context, src, dstDir string, shards []int, client *http.Client) (EngineSnapshotInfo, error) {
	return cluster.FetchSnapshot(ctx, src, dstDir, shards, client)
}

// FromLatLon converts WGS-84 (lat°, lon°, unix-seconds) samples into the
// planar metre coordinates the library uses, projecting about the samples'
// mean latitude.
func FromLatLon(id int, samples [][3]float64) *Trajectory {
	return traj.FromLatLon(id, samples)
}

// SplitTrips partitions a raw point stream into trips on time gaps and
// stationary periods, the paper's Beijing preprocessing.
func SplitTrips(points []STPoint, maxGap, maxStationary float64, firstID int) []*Trajectory {
	return traj.SplitTrips(points, maxGap, maxStationary, firstID)
}

// TaxiConfig parameterises GenerateTaxi.
type TaxiConfig = synth.TaxiConfig

// ASLConfig parameterises GenerateASL.
type ASLConfig = synth.ASLConfig

// DefaultTaxiConfig returns the standard city-trip configuration with n
// trajectories.
func DefaultTaxiConfig(n int) TaxiConfig { return synth.DefaultTaxi(n) }

// DefaultASLConfig mirrors the real ASL corpus shape (98 classes).
func DefaultASLConfig() ASLConfig { return synth.DefaultASL() }

// GenerateTaxi produces the synthetic stand-in for the paper's Beijing cab
// dataset.
func GenerateTaxi(cfg TaxiConfig) []*Trajectory { return synth.Taxi(cfg) }

// GenerateASL produces the labelled stand-in for the Australian Sign
// Language dataset.
func GenerateASL(cfg ASLConfig) []*Trajectory { return synth.ASL(cfg) }

// InterNoise splits pct of each trajectory's segments (shape preserved),
// modelling inter-trajectory sampling-rate variance (Fig. 5(b,c)).
func InterNoise(db []*Trajectory, pct float64, seed int64) []*Trajectory {
	return synth.Inter(db, pct, seed)
}

// IntraNoise splits segments only in each trajectory's first half,
// modelling intra-trajectory variance (Fig. 5(d,e)).
func IntraNoise(db []*Trajectory, pct float64, seed int64) []*Trajectory {
	return synth.Intra(db, pct, seed)
}

// PhaseNoise splits the same pct of segments in two copies at different
// positions, modelling sampling phase variation (Fig. 5(f,g)).
func PhaseNoise(db []*Trajectory, pct float64, seed int64) (d1, d2 []*Trajectory) {
	return synth.Phase(db, pct, seed)
}

// PerturbNoise relocates pct of points within the given radius,
// modelling measurement noise (Fig. 5(h,i)).
func PerturbNoise(db []*Trajectory, pct, radius float64, seed int64) []*Trajectory {
	return synth.Perturb(db, pct, radius, seed)
}

// PerturbRadius returns the paper's perturbation radius: the distance
// covered in horizon seconds at the database's average speed.
func PerturbRadius(db []*Trajectory, horizon float64) float64 {
	return synth.PerturbRadius(db, horizon)
}

// ReadCSV parses a point-per-row id,x,y,t[,label] trajectory file.
func ReadCSV(r io.Reader) ([]*Trajectory, error) { return dataio.ReadCSV(r) }

// WriteCSV writes db in the format ReadCSV parses.
func WriteCSV(w io.Writer, db []*Trajectory) error { return dataio.WriteCSV(w, db) }

// ReadNDJSON parses one JSON trajectory per line.
func ReadNDJSON(r io.Reader) ([]*Trajectory, error) { return dataio.ReadNDJSON(r) }

// WriteNDJSON writes db with one JSON trajectory per line.
func WriteNDJSON(w io.Writer, db []*Trajectory) error { return dataio.WriteNDJSON(w, db) }

// PickClasses selects c random class labels out of [0, numClasses), for
// building classification subsets as in Fig. 5(a).
func PickClasses(numClasses, c int, rng *rand.Rand) map[int]bool {
	return synth.PickClasses(numClasses, c, rng)
}

// SelectClasses returns the subset of db whose labels are in the set.
func SelectClasses(db []*Trajectory, classes map[int]bool) []*Trajectory {
	return synth.Classes(db, classes)
}
