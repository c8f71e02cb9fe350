package cluster

import (
	"fmt"
	"net/http"

	"trajmatch/internal/server"
)

// RouterHandler serves the public /v1 surface over a Router: the same
// wire formats as a standalone trajserve, so clients cannot tell a
// cluster from a single process (except via /v1/version's role and the
// degraded flag on partial answers).
//
//	POST /v1/search   single or batch, knn/range/subknn — the engine's
//	                  own handler (server.SearchHandler), bounded by
//	                  Config.QueryTimeout
//	POST /v1/insert   routed to the owning shard's group
//	POST /v1/delete   routed to the owning shard's group
//	GET  /v1/stats    routing stats + per-node health (cluster.Stats)
//	GET  /v1/version  role "router", configured nodes
//	GET  /v1/healthz
//
// The streaming and maintenance endpoints (/v1/append, /v1/watch,
// /v1/rebuild, /v1/snapshot, ...) are not fanned out and answer 404 from
// a router.
func RouterHandler(rt *Router) http.Handler {
	h := &routerAPI{rt: rt}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/search", server.SearchHandler(rt, server.HandlerOptions{QueryTimeout: rt.cfg.QueryTimeout}))
	mux.HandleFunc("POST /v1/insert", h.insert)
	mux.HandleFunc("POST /v1/delete", h.delete)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.HandleFunc("GET /v1/version", h.version)
	mux.HandleFunc("GET /v1/healthz", h.healthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound,
			fmt.Sprintf("no such router endpoint: %s %s", r.Method, r.URL.Path))
	})
	return mux
}

type routerAPI struct {
	rt *Router
}

func (h *routerAPI) insert(w http.ResponseWriter, r *http.Request) {
	var req server.InsertRequest
	if !server.Decode(w, r, &req) {
		return
	}
	inserted := 0
	for i, wt := range req.Trajectories {
		tr, err := wt.ToTrajectory()
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest,
				fmt.Sprintf("trajectory %d: %v (inserted %d before failure)", i, err, inserted))
			return
		}
		if err := h.rt.Insert(r.Context(), tr); err != nil {
			server.WriteSearchError(w, err)
			return
		}
		inserted++
	}
	// A router holds no corpus, so unlike the engine's response the size
	// here is not a cheap local read; report the insert count only.
	server.WriteJSON(w, http.StatusOK, server.InsertResponse{Inserted: inserted})
}

func (h *routerAPI) delete(w http.ResponseWriter, r *http.Request) {
	var req server.DeleteRequest
	if !server.Decode(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, "ids must be non-empty")
		return
	}
	resp := server.DeleteResponse{}
	for _, id := range req.IDs {
		ok, err := h.rt.Delete(r.Context(), id)
		if err != nil {
			server.WriteSearchError(w, err)
			return
		}
		if ok {
			resp.Deleted++
		} else {
			resp.Missing = append(resp.Missing, id)
		}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (h *routerAPI) stats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, h.rt.Stats())
}

func (h *routerAPI) version(w http.ResponseWriter, r *http.Request) {
	v := server.NewVersionInfo(server.RoleRouter, nil)
	v.ClusterShards = h.rt.ClusterShards()
	v.Nodes = h.rt.Nodes()
	server.WriteJSON(w, http.StatusOK, v)
}

func (h *routerAPI) healthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
