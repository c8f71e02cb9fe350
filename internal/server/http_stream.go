package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trajmatch/internal/stream"
	"trajmatch/internal/traj"
)

// The streaming HTTP surface:
//
//	POST /v1/append   {"id": 7, "label": 1, "points": [[x,y,t], ...]}
//	POST /v1/seal     {"id": 7}
//	POST /v1/watch    {"pattern": {...}, "metric": "edwp",
//	                   "threshold": 250 | "k": 5, "exact": false}
//	POST /v1/unwatch  {"watch": 3}
//	GET  /v1/events   ?since=N&max=M&wait_ms=T   (long-poll JSON)
//	GET  /v1/events   ?sse=1&since=N             (server-sent events)
//
// Append acks carry the offset the delta landed at; watch registrations
// return the watch ID match events carry; the events feed delivers
// at-least-once with monotonic seq numbers — consumers resume by
// passing the last seq they processed as since, and a true "gap" tells
// a lagging consumer it missed events beyond the retained window.

// AppendRequest is the body of POST /v1/append: one or more points
// appended onto live track ID (created on first use with Label).
// Points are [x, y, t] triples like everywhere else on the wire.
type AppendRequest struct {
	ID     int          `json:"id"`
	Label  int          `json:"label,omitempty"`
	Points [][3]float64 `json:"points"`
}

// AppendResponse acknowledges a durable append: the offset the delta
// landed at and the track's resulting point count.
type AppendResponse struct {
	ID     int     `json:"id"`
	Offset int     `json:"offset"`
	Length int     `json:"length"`
	TookMS float64 `json:"took_ms"`
}

// SealRequest is the body of POST /v1/seal.
type SealRequest struct {
	ID int `json:"id"`
}

// SealResponse reports the sealed trajectory and the index size after
// the fold-in.
type SealResponse struct {
	ID     int     `json:"id"`
	Size   int     `json:"size"`
	TookMS float64 `json:"took_ms"`
}

// WatchRequest is the body of POST /v1/watch: a standing query's
// pattern, metric, and exactly one of threshold (emit once per track
// when its prefix distance reaches it) or k (emit whenever a track
// enters or improves within the k best). exact opts out of the sketch
// token gate.
type WatchRequest struct {
	Pattern   WireTrajectory `json:"pattern"`
	Metric    string         `json:"metric,omitempty"`
	Threshold float64        `json:"threshold,omitempty"`
	K         int            `json:"k,omitempty"`
	Exact     bool           `json:"exact,omitempty"`
}

// WatchResponse carries the registered watch's ID.
type WatchResponse struct {
	Watch int `json:"watch"`
}

// UnwatchRequest is the body of POST /v1/unwatch.
type UnwatchRequest struct {
	Watch int `json:"watch"`
}

// UnwatchResponse acknowledges the removal.
type UnwatchResponse struct {
	Removed bool `json:"removed"`
}

// EventsResponse is the long-poll answer of GET /v1/events: the match
// events after the consumer's cursor, the seq to resume from, and
// whether the cursor predates the retained window (the consumer missed
// events it can never replay).
type EventsResponse struct {
	Events    []stream.Event `json:"events"`
	NextSince uint64         `json:"next_since"`
	Gap       bool           `json:"gap,omitempty"`
}

func (h *api) append(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if !Decode(w, r, &req) {
		return
	}
	pts := make([]traj.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = traj.P(p[0], p[1], p[2])
	}
	t0 := time.Now()
	off, err := h.e.Append(req.ID, req.Label, pts)
	if err != nil {
		WriteSearchError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, AppendResponse{
		ID:     req.ID,
		Offset: off,
		Length: off + len(pts),
		TookMS: msSince(t0),
	})
}

func (h *api) seal(w http.ResponseWriter, r *http.Request) {
	var req SealRequest
	if !Decode(w, r, &req) {
		return
	}
	t0 := time.Now()
	if err := h.e.Seal(req.ID); err != nil {
		WriteSearchError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, SealResponse{ID: req.ID, Size: h.e.Size(), TookMS: msSince(t0)})
}

func (h *api) watch(w http.ResponseWriter, r *http.Request) {
	var req WatchRequest
	if !Decode(w, r, &req) {
		return
	}
	pattern, err := req.Pattern.ToTrajectory()
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("pattern: %v", err))
		return
	}
	id, err := h.e.Watch(pattern, req.Metric, req.Threshold, req.K, req.Exact)
	if err != nil {
		WriteSearchError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, WatchResponse{Watch: id})
}

func (h *api) unwatch(w http.ResponseWriter, r *http.Request) {
	var req UnwatchRequest
	if !Decode(w, r, &req) {
		return
	}
	if !h.e.Unwatch(req.Watch) {
		WriteError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("%v: %d", ErrUnknownWatch, req.Watch))
		return
	}
	WriteJSON(w, http.StatusOK, UnwatchResponse{Removed: true})
}

// events serves GET /v1/events. Default is one JSON page: the events
// after ?since (capped at ?max), waiting up to ?wait_ms for the first
// one (long-poll). With ?sse=1 — or Accept: text/event-stream — the
// response is a server-sent-event stream that keeps delivering until
// the client disconnects, each frame's SSE id carrying the seq to
// resume from.
func (h *api) events(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	since, err := parseUintParam(qv.Get("since"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("since: %v", err))
		return
	}
	if qv.Get("sse") == "1" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		h.eventsSSE(w, r, since)
		return
	}
	max64, err := parseUintParam(qv.Get("max"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("max: %v", err))
		return
	}
	waitMS, err := parseUintParam(qv.Get("wait_ms"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("wait_ms: %v", err))
		return
	}
	var deadline <-chan time.Time
	if waitMS > 0 {
		t := time.NewTimer(time.Duration(waitMS) * time.Millisecond)
		defer t.Stop()
		deadline = t.C
	}
	var evs []stream.Event
	var gap bool
	for {
		// Arm before reading: a publish between the read and the select
		// closes the channel we already hold, so no wakeup is lost.
		ch := h.e.EventsWait()
		evs, gap = h.e.Events(since, int(max64))
		if len(evs) > 0 || waitMS == 0 {
			break
		}
		select {
		case <-ch:
		case <-deadline:
			waitMS = 0 // one final read, then answer empty
		case <-r.Context().Done():
			waitMS = 0
		}
	}
	next := since
	if len(evs) > 0 {
		next = evs[len(evs)-1].Seq
	}
	WriteJSON(w, http.StatusOK, EventsResponse{Events: evs, NextSince: next, Gap: gap})
}

// eventsSSE streams match events as server-sent events until the client
// disconnects. Frames use the standard fields — id is the seq (browsers
// resend it as Last-Event-ID), event is "match" (or "gap" once when the
// cursor predates the retained window), data the Event JSON.
func (h *api) eventsSSE(w http.ResponseWriter, r *http.Request, since uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusNotImplemented, CodeNotImplemented,
			"response writer does not support streaming")
		return
	}
	if hv := r.Header.Get("Last-Event-ID"); hv != "" {
		if v, err := parseUintParam(hv); err == nil {
			since = v
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		ch := h.e.EventsWait()
		evs, gap := h.e.Events(since, 0)
		if gap {
			fmt.Fprintf(w, "event: gap\ndata: {\"resumed_at\": %d}\n\n", evs[0].Seq)
		}
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: match\ndata: %s\n\n", ev.Seq, data)
			since = ev.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func parseUintParam(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 63)
}
