// Package cluster promotes the engine's shards from goroutines to
// processes: a shard node serves a partitioned engine (a subset of the
// global hash placement) over HTTP, and a stateless router owns
// placement and per-node dispatch, stitching the nodes' owned subsets
// back into one logical index. The router has no fan-out or merge of
// its own: it searches through the engine's (server.FanOut), with each
// replica group as one shard whose search is an HTTP call, and serves
// the engine's own /v1/search handler.
//
// The internal shard protocol deliberately IS the public versioned JSON
// API (internal/server's /v1 surface): a shard node's engine already
// answers exactly its shards' slice of any query, Query.Limit already
// carries an external admissible bound (the router ships the fan-out's
// shared bound there — one-shot seeding, no mid-search chatter), and the
// per-query with_stats counters already expose the work the cluster
// tests assert on. On top of /v1 a node adds two cluster-only
// endpoints: GET /cluster/v1/info (placement discovery — global shard
// count, owned shards) and GET /cluster/v1/snapshot/{file} (snapshot
// shipping — a replica warm-boots by fetching the peer's shard-NNNN
// sections instead of rebuilding; see FetchSnapshot).
//
// Correctness of bound shipping: a group's k-th best is the k-th
// smallest of a subset of the corpus, hence an admissible upper bound
// on the global k-th best. Backends abandon strictly above a bound and
// never at it, with (distance, ID) tie-breaks, so a seeded node returns
// every global-answer member it owns and the (distance, ID) merge is
// byte-identical to the single-process answer — the bound only removes
// work, never results. Search and SearchBatch dispatch every group of a
// query at once, each with the bound known at dispatch time (in practice
// the caller's Limit). The fan-out also has a one-group-at-a-time shape
// that seeds each group with the bound the earlier groups tightened; the
// work-counter test compares it against the single-process shared-bound
// baseline.
package cluster

import (
	"fmt"
	"net/http"
	"path/filepath"

	"trajmatch/internal/server"
)

// Cluster-protocol paths a shard node serves beside the public /v1
// surface.
const (
	infoPath     = "/cluster/v1/info"
	snapshotPath = "/cluster/v1/snapshot/"
)

// NodeInfo is the payload of GET /cluster/v1/info: the placement facts
// a router needs to admit the node into a cluster, plus enough shape
// for an operator probing the port.
type NodeInfo struct {
	// Shards is the global hash modulus; every node and the router must
	// agree on it or IDs would route differently per process.
	Shards int `json:"shards"`
	// Owned lists the global shard indices this node serves, ascending.
	Owned []int `json:"owned"`
	// Metrics are the loaded backends, boot order (first is default).
	Metrics []string `json:"metrics"`
	// Size is the node's indexed trajectory count (its shards only).
	Size int `json:"size"`
	// Snapshot reports whether the node can serve snapshot sections
	// (it has a snapshot directory configured).
	Snapshot bool `json:"snapshot"`
}

// NodeHandler wraps the engine's public API handler with the cluster
// endpoints. Mutations on foreign IDs already answer 421 not_owned at
// the engine layer, so a node is safe to expose even to a confused
// router; the snapshot endpoint serves only manifest and shard file
// names (allowlisted), never arbitrary paths.
func NodeHandler(e *server.Engine, opt server.HandlerOptions) http.Handler {
	// A node behind this handler is a shard server whatever the caller
	// passed, so /v1/version defaults to the shard role (with the node's
	// placement) rather than standalone.
	if opt.Version == nil {
		vi := server.NewVersionInfo(server.RoleShard, e)
		opt.Version = &vi
	}
	api := server.NewAPIHandler(e, opt)
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+infoPath, func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, NodeInfo{
			Shards:   e.ClusterShards(),
			Owned:    e.OwnedShards(),
			Metrics:  e.Metrics(),
			Size:     e.Size(),
			Snapshot: e.SnapshotDir() != "",
		})
	})
	mux.HandleFunc("GET "+snapshotPath+"{file}", func(w http.ResponseWriter, r *http.Request) {
		dir := e.SnapshotDir()
		if dir == "" {
			server.WriteError(w, http.StatusPreconditionFailed, server.CodePreconditionFailed,
				"no snapshot directory configured on this node")
			return
		}
		name := r.PathValue("file")
		if !server.IsSnapshotFileName(name) {
			server.WriteError(w, http.StatusNotFound, server.CodeNotFound,
				fmt.Sprintf("not a snapshot file: %q", name))
			return
		}
		// The allowlist admits only the fixed manifest name and the
		// shard-NNNN.arena shape, so the join cannot escape dir.
		http.ServeFile(w, r, filepath.Join(dir, name))
	})
	mux.Handle("/", api)
	return mux
}
