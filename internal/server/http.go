package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/traj"
)

// WireTrajectory is the JSON form of a trajectory shared by every
// endpoint: points are [x, y, t] triples, matching the NDJSON layout of
// package dataio.
type WireTrajectory struct {
	ID     int          `json:"id"`
	Label  int          `json:"label,omitempty"`
	Points [][3]float64 `json:"points"`
}

// ToTrajectory converts the wire form to the internal model.
func (w WireTrajectory) ToTrajectory() (*traj.Trajectory, error) {
	pts := make([]traj.Point, len(w.Points))
	for i, p := range w.Points {
		pts[i] = traj.P(p[0], p[1], p[2])
	}
	t := &traj.Trajectory{ID: w.ID, Label: w.Label, Points: pts}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Neighbor is one k-NN or range answer on the wire. Only the matched
// trajectory's identity and distance travel back; clients that need the
// geometry already have the database or can fetch it out of band.
type Neighbor struct {
	ID    int     `json:"id"`
	Label int     `json:"label,omitempty"`
	Dist  float64 `json:"dist"`
}

func toNeighbors(rs []backend.Result) []Neighbor {
	out := make([]Neighbor, len(rs))
	for i, r := range rs {
		out[i] = Neighbor{ID: r.Traj.ID, Label: r.Traj.Label, Dist: r.Dist}
	}
	return out
}

// SearchRequest is the body of POST /v1/search: the embedded Query's
// own wire form (kind, k, radius, limit, max_evals, with_stats) plus
// the query trajectory — or trajectories, for a batch; exactly one of
// the two must be set. The kind travels in the body, so one endpoint
// serves every search variant.
type SearchRequest struct {
	Query
	QueryTraj *WireTrajectory  `json:"query,omitempty"`
	Queries   []WireTrajectory `json:"queries,omitempty"`
}

// WireAnswer is one Answer on the wire; Stats appears only when the
// request set with_stats, in backend.Stats' own snake_case form.
type WireAnswer struct {
	Results   []Neighbor     `json:"results"`
	Stats     *backend.Stats `json:"stats,omitempty"`
	Cached    bool           `json:"cached,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
	// Degraded marks a partial cluster answer (some shard group was
	// unreachable); see Answer.Degraded.
	Degraded bool `json:"degraded,omitempty"`
}

// toWireAnswer converts an Answer to its wire form, attaching the stats
// copy only when the request asked for it.
func toWireAnswer(a Answer, withStats bool) WireAnswer {
	w := WireAnswer{Results: toNeighbors(a.Results), Cached: a.Cached, Truncated: a.Truncated, Degraded: a.Degraded}
	if withStats {
		w.Stats = &a.Stats
	}
	return w
}

// Answer converts the wire form back to an Answer, the inverse of
// toWireAnswer: the cluster router's view of a node's reply. Only
// identity and distance travel, so each result's Traj is a stub holding
// the ID and label alone — all a wire answer needs. Stats stay zero when
// the reply carried none.
func (w WireAnswer) Answer() Answer {
	res := make([]backend.Result, len(w.Results))
	for i, n := range w.Results {
		res[i] = backend.Result{Traj: &traj.Trajectory{ID: n.ID, Label: n.Label}, Dist: n.Dist}
	}
	a := Answer{Results: res, Cached: w.Cached, Truncated: w.Truncated, Degraded: w.Degraded}
	if w.Stats != nil {
		a.Stats = *w.Stats
	}
	return a
}

// SearchResponse is the body of a successful single-query POST
// /v1/search.
type SearchResponse struct {
	WireAnswer
	TookMS float64 `json:"took_ms"`
}

// SearchBatchResponse is the body of a successful batched POST
// /v1/search: one WireAnswer per query, in request order.
type SearchBatchResponse struct {
	Answers []WireAnswer `json:"answers"`
	TookMS  float64      `json:"took_ms"`
}

// InsertRequest is the body of POST /v1/insert; several trajectories may
// be inserted in one call.
type InsertRequest struct {
	Trajectories []WireTrajectory `json:"trajectories"`
}

// InsertResponse reports how many trajectories were added.
type InsertResponse struct {
	Inserted int `json:"inserted"`
	Size     int `json:"size"`
}

// DeleteRequest is the body of POST /v1/delete; several trajectories may
// be removed in one call.
type DeleteRequest struct {
	IDs []int `json:"ids"`
}

// DeleteResponse reports how many of the requested IDs were present and
// removed; Missing lists the ones that were not indexed.
type DeleteResponse struct {
	Deleted int   `json:"deleted"`
	Missing []int `json:"missing,omitempty"`
	Size    int   `json:"size"`
}

// RebuildResponse is the body of a successful POST /v1/rebuild.
type RebuildResponse struct {
	Size   int     `json:"size"`
	Shards int     `json:"shards"`
	TookMS float64 `json:"took_ms"`
}

// SnapshotResponse is the body of a successful POST /v1/snapshot.
type SnapshotResponse struct {
	Dir    string  `json:"dir"`
	Shards int     `json:"shards"`
	Size   int     `json:"size"`
	TookMS float64 `json:"took_ms"`
}

// Error codes of the JSON error envelope. Machine-readable and stable;
// the human-readable message may change freely.
const (
	CodeBadRequest         = "bad_request"
	CodeInvalidQuery       = "invalid_query"
	CodeUnknownMetric      = "unknown_metric"
	CodeMetricNotLoaded    = "metric_not_loaded"
	CodeNotImplemented     = "not_implemented"
	CodeDeadlineExceeded   = "deadline_exceeded"
	CodeCanceled           = "canceled"
	CodeNotFound           = "not_found"
	CodeConflict           = "conflict"
	CodeMethodNotAllowed   = "method_not_allowed"
	CodePreconditionFailed = "precondition_failed"
	CodeNotOwned           = "not_owned"
	CodeUnavailable        = "unavailable"
	CodeInternal           = "internal"
)

// ErrorResponse is the consistent JSON error envelope of every non-2xx
// answer produced under /v1: a human-readable message plus a stable
// machine-readable code.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// HandlerOptions configure the HTTP surface. The zero value serves with
// no per-request timeout.
type HandlerOptions struct {
	// QueryTimeout, when positive, bounds every search request: the
	// request context is wrapped in a deadline that the engine honours
	// cooperatively, and an expiry surfaces as a 504 with code
	// "deadline_exceeded". Updates (insert/delete/rebuild/snapshot) are
	// not bounded — aborting them midway would be worse than finishing.
	QueryTimeout time.Duration
	// Version, when non-nil, is what GET /v1/version reports; nil
	// derives a standalone-role payload from the engine and build info.
	Version *VersionInfo
}

// NewAPIHandler returns the versioned HTTP surface over e:
//
//	POST /v1/search    {"kind": "knn"|"range"|"subknn", "metric": "edwp"|"dtw"|"edr",
//	                    "query": {...} | "queries": [...],
//	                    "k": 10, "radius": 250, "limit": 0, "max_evals": 0,
//	                    "prefilter": false, "with_stats": true}
//	POST /v1/insert    {"trajectories": [{...}, ...]}
//	POST /v1/delete    {"ids": [17, 42]}
//	POST /v1/rebuild   (no body)
//	POST /v1/snapshot  (no body; 412 unless Options.SnapshotDir is set)
//	POST /v1/append    {"id": 7, "label": 1, "points": [[x,y,t], ...]}
//	POST /v1/seal      {"id": 7}
//	POST /v1/watch     {"pattern": {...}, "threshold": 250 | "k": 5}
//	POST /v1/unwatch   {"watch": 3}
//	GET  /v1/events    ?since=N&max=M&wait_ms=T (or ?sse=1 for SSE)
//	GET  /v1/stats
//	GET  /v1/version
//	GET  /v1/healthz
//
// Every non-2xx answer is the JSON envelope {"error": ..., "code": ...}.
// Paths outside /v1 are not routed and answer net/http's plain 404.
func NewAPIHandler(e *Engine, opt HandlerOptions) http.Handler {
	h := &api{e: e, opt: opt}
	mux := http.NewServeMux()

	v1 := map[string]struct {
		method  string
		handler http.HandlerFunc
	}{
		"/v1/search":   {http.MethodPost, SearchHandler(e, opt)},
		"/v1/insert":   {http.MethodPost, h.insert},
		"/v1/delete":   {http.MethodPost, h.delete},
		"/v1/rebuild":  {http.MethodPost, h.rebuild},
		"/v1/snapshot": {http.MethodPost, h.snapshot},
		"/v1/append":   {http.MethodPost, h.append},
		"/v1/seal":     {http.MethodPost, h.seal},
		"/v1/watch":    {http.MethodPost, h.watch},
		"/v1/unwatch":  {http.MethodPost, h.unwatch},
		"/v1/events":   {http.MethodGet, h.events},
		"/v1/stats":    {http.MethodGet, h.stats},
		"/v1/version":  {http.MethodGet, h.version},
		"/v1/healthz":  {http.MethodGet, h.healthz},
	}
	for path, ep := range v1 {
		mux.HandleFunc(ep.method+" "+path, ep.handler)
	}
	// Fallback for everything else under /v1: answer with the envelope,
	// not net/http's plain text, so /v1 clients can always parse the
	// body. The method-less "/v1/" pattern also shadows ServeMux's own
	// 405 handling for the routes above, so wrong-method requests to real
	// endpoints are distinguished here from genuinely unknown paths.
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		if ep, ok := v1[r.URL.Path]; ok {
			w.Header().Set("Allow", ep.method)
			WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("%s requires %s, got %s", r.URL.Path, ep.method, r.Method))
			return
		}
		WriteError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})

	return withRecovery(mux)
}

// withRecovery converts a handler panic into the standard 500 envelope
// instead of killing the connection (and, pre-Go1.8-style deployments,
// the server): one poisoned request must not take the engine down with
// it. http.ErrAbortHandler re-panics — it is the sanctioned way to
// abort a response and net/http handles it quietly.
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			// If the handler already wrote a status line this header is
			// discarded (net/http logs the superfluous WriteHeader); for
			// the common panic-before-write case the client gets the
			// envelope.
			WriteError(w, http.StatusInternalServerError, CodeInternal,
				fmt.Sprintf("internal error handling %s %s: %v", r.Method, r.URL.Path, v))
		}()
		next.ServeHTTP(w, r)
	})
}

// api bundles the engine and options behind the handlers.
type api struct {
	e   *Engine
	opt HandlerOptions
}

// WriteSearchError maps an engine or router call's error onto the
// envelope — searches, and the streaming calls (append, seal, watch).
// An error carrying its own Status and Code — a cluster node's refusal,
// forwarded verbatim — is written as is.
func WriteSearchError(w http.ResponseWriter, err error) {
	var se interface {
		error
		Status() int
		Code() string
	}
	switch {
	case errors.As(err, &se):
		WriteError(w, se.Status(), se.Code(), se.Error())
	case errors.Is(err, ErrUnknownMetric):
		WriteError(w, http.StatusBadRequest, CodeUnknownMetric, err.Error())
	case errors.Is(err, ErrMetricNotLoaded):
		WriteError(w, http.StatusBadRequest, CodeMetricNotLoaded, err.Error())
	case errors.Is(err, ErrNotSupported):
		WriteError(w, http.StatusNotImplemented, CodeNotImplemented, err.Error())
	case errors.Is(err, ErrInvalidQuery):
		WriteError(w, http.StatusBadRequest, CodeInvalidQuery, err.Error())
	case errors.Is(err, ErrSealedID):
		WriteError(w, http.StatusConflict, CodeConflict, err.Error())
	case errors.Is(err, ErrNoTrack):
		WriteError(w, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		// Usually the client went away; the envelope is written for the
		// rare caller still listening.
		WriteError(w, http.StatusServiceUnavailable, CodeCanceled, "query canceled")
	default:
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// Searcher is what POST /v1/search runs against: the engine, or the
// cluster router in front of shard nodes.
type Searcher interface {
	Search(ctx context.Context, q *traj.Trajectory, req Query) (Answer, error)
	SearchBatch(ctx context.Context, qs []*traj.Trajectory, req Query) ([]Answer, error)
}

// SearchHandler serves POST /v1/search over s: a single "query" goes to
// Search, a "queries" batch to SearchBatch. The search runs under the
// request's context (a disconnecting client cancels it) bounded by
// opt.QueryTimeout.
func SearchHandler(s Searcher, opt HandlerOptions) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if !Decode(w, r, &req) {
			return
		}
		if (req.QueryTraj == nil) == (len(req.Queries) == 0) {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				"exactly one of \"query\" and \"queries\" must be set")
			return
		}
		ctx := r.Context()
		if opt.QueryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opt.QueryTimeout)
			defer cancel()
		}
		if req.QueryTraj != nil {
			q, err := req.QueryTraj.ToTrajectory()
			if err != nil {
				WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("query: %v", err))
				return
			}
			t0 := time.Now()
			ans, err := s.Search(ctx, q, req.Query)
			if err != nil {
				WriteSearchError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, SearchResponse{
				WireAnswer: toWireAnswer(ans, req.WithStats),
				TookMS:     msSince(t0),
			})
			return
		}
		qs := make([]*traj.Trajectory, len(req.Queries))
		for i, wq := range req.Queries {
			q, err := wq.ToTrajectory()
			if err != nil {
				WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("query %d: %v", i, err))
				return
			}
			qs[i] = q
		}
		t0 := time.Now()
		answers, err := s.SearchBatch(ctx, qs, req.Query)
		if err != nil {
			WriteSearchError(w, err)
			return
		}
		out := make([]WireAnswer, len(answers))
		for i, a := range answers {
			out[i] = toWireAnswer(a, req.WithStats)
		}
		WriteJSON(w, http.StatusOK, SearchBatchResponse{Answers: out, TookMS: msSince(t0)})
	}
}

// writeIfImmutable answers 501 not_implemented when the engine holds a
// backend without the mutation capability (DTW/EDR), reporting true so
// update handlers return early.
func (h *api) writeIfImmutable(w http.ResponseWriter) bool {
	if err := h.e.CanMutate(); err != nil {
		WriteError(w, http.StatusNotImplemented, CodeNotImplemented, err.Error())
		return true
	}
	return false
}

func (h *api) insert(w http.ResponseWriter, r *http.Request) {
	if h.writeIfImmutable(w) {
		return
	}
	var req InsertRequest
	if !Decode(w, r, &req) {
		return
	}
	inserted := 0
	for i, wt := range req.Trajectories {
		tr, err := wt.ToTrajectory()
		if err == nil {
			err = h.e.Insert(tr)
		}
		if err != nil {
			// Earlier trajectories stay inserted; report how far we got.
			status, code := http.StatusBadRequest, CodeBadRequest
			if errors.Is(err, ErrNotOwned) {
				// A misrouted cluster mutation, not a bad payload.
				status, code = http.StatusMisdirectedRequest, CodeNotOwned
			}
			WriteError(w, status, code,
				fmt.Sprintf("trajectory %d: %v (inserted %d before failure)", i, err, inserted))
			return
		}
		inserted++
	}
	WriteJSON(w, http.StatusOK, InsertResponse{Inserted: inserted, Size: h.e.Size()})
}

func (h *api) delete(w http.ResponseWriter, r *http.Request) {
	if h.writeIfImmutable(w) {
		return
	}
	var req DeleteRequest
	if !Decode(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "ids must be non-empty")
		return
	}
	resp := DeleteResponse{}
	for _, id := range req.IDs {
		if h.e.Delete(id) {
			resp.Deleted++
		} else {
			resp.Missing = append(resp.Missing, id)
		}
	}
	resp.Size = h.e.Size()
	WriteJSON(w, http.StatusOK, resp)
}

func (h *api) rebuild(w http.ResponseWriter, r *http.Request) {
	if h.writeIfImmutable(w) {
		return
	}
	t0 := time.Now()
	if err := h.e.Rebuild(); err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, RebuildResponse{
		Size:   h.e.Size(),
		Shards: h.e.Shards(),
		TookMS: msSince(t0),
	})
}

func (h *api) snapshot(w http.ResponseWriter, r *http.Request) {
	dir := h.e.SnapshotDir()
	if dir == "" {
		WriteError(w, http.StatusPreconditionFailed, CodePreconditionFailed,
			"no snapshot directory configured (start with -snapshot or set Options.SnapshotDir)")
		return
	}
	t0 := time.Now()
	if err := h.e.SaveSnapshot(dir); err != nil {
		if errors.Is(err, ErrNotSupported) {
			WriteError(w, http.StatusNotImplemented, CodeNotImplemented, err.Error())
			return
		}
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, SnapshotResponse{
		Dir:    dir,
		Shards: h.e.Shards(),
		Size:   h.e.Size(),
		TookMS: msSince(t0),
	})
}

func (h *api) stats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, h.e.Stats())
}

func (h *api) version(w http.ResponseWriter, r *http.Request) {
	v := h.opt.Version
	if v == nil {
		vi := NewVersionInfo(RoleStandalone, h.e)
		v = &vi
	}
	WriteJSON(w, http.StatusOK, *v)
}

func (h *api) healthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// maxBodyBytes bounds request bodies; batch inserts of long trajectories
// fit comfortably, runaway clients do not.
const maxBodyBytes = 64 << 20

// Decode reads a JSON request body into dst, rejecting unknown fields
// and bodies over maxBodyBytes; on failure it answers 400 bad_request
// and reports false. It, WriteJSON and WriteError are exported so the
// cluster router speaks exactly the engine's envelope.
func Decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// WriteJSON answers with status code and v as the JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the ErrorResponse envelope.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
