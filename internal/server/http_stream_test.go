// HTTP surface tests for the streaming endpoints: the README's
// append → watch → events pipeline, long-poll wakeups, the SSE feed,
// and every documented error status.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"trajmatch/internal/traj"
)

// TestHTTPStreamPipeline drives the full lifecycle over the wire: a
// standing query registers, appends create and grow a live track, the
// match event is already readable when the append responds (one
// round-trip), search sees the live track, sealing folds it in, and
// the error statuses fire where documented.
func TestHTTPStreamPipeline(t *testing.T) {
	e := newTestEngine(t, 30, Options{Shards: 2, Prefilter: true})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	src := testDB(30, 99)[4] // disjoint from the seeded corpus
	pattern := traj.New(-1, append([]traj.Point(nil), src.Points[1:4]...))
	wp := wire(pattern)

	var wresp WatchResponse
	if r := postJSON(t, srv, "/v1/watch", WatchRequest{Pattern: wp, Threshold: 1e-9}, &wresp); r.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", r.StatusCode)
	}
	if wresp.Watch == 0 {
		t.Fatal("watch response carries no ID")
	}

	// Append the whole source track in two deltas; by the time the
	// second append's response arrives the match event must be
	// readable with a plain no-wait poll.
	wt := wire(src)
	var aresp AppendResponse
	if r := postJSON(t, srv, "/v1/append", AppendRequest{ID: 7500, Label: 2, Points: wt.Points[:2]}, &aresp); r.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", r.StatusCode)
	}
	if aresp.Offset != 0 || aresp.Length != 2 {
		t.Fatalf("append ack %+v, want offset 0 length 2", aresp)
	}
	if r := postJSON(t, srv, "/v1/append", AppendRequest{ID: 7500, Points: wt.Points[2:]}, &aresp); r.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", r.StatusCode)
	}
	if aresp.Offset != 2 || aresp.Length != len(wt.Points) {
		t.Fatalf("append ack %+v, want offset 2 length %d", aresp, len(wt.Points))
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	var eresp EventsResponse
	decodeBody(t, resp, &eresp)
	if len(eresp.Events) != 1 || eresp.Gap {
		t.Fatalf("events after matching append: %+v", eresp)
	}
	ev := eresp.Events[0]
	if ev.Watch != wresp.Watch || ev.Track != 7500 || ev.Seq != 1 || ev.Rank != -1 {
		t.Fatalf("match event %+v", ev)
	}
	if eresp.NextSince != ev.Seq {
		t.Fatalf("next_since %d, want %d", eresp.NextSince, ev.Seq)
	}
	// Resuming from the cursor returns nothing new.
	resp, err = srv.Client().Get(srv.URL + "/v1/events?since=1")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &eresp)
	if len(eresp.Events) != 0 || eresp.NextSince != 1 {
		t.Fatalf("resumed poll %+v", eresp)
	}

	// The live track serves immediately.
	q := wire(src)
	q.ID = 9_400_000
	var sresp SearchResponse
	if r := postJSON(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 1}, QueryTraj: &q}, &sresp); r.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", r.StatusCode)
	}
	if len(sresp.Results) != 1 || sresp.Results[0].ID != 7500 || sresp.Results[0].Dist != 0 {
		t.Fatalf("live track not served: %+v", sresp.Results)
	}

	var seal SealResponse
	if r := postJSON(t, srv, "/v1/seal", SealRequest{ID: 7500}, &seal); r.StatusCode != http.StatusOK {
		t.Fatalf("seal status %d", r.StatusCode)
	}
	if seal.Size != 31 {
		t.Fatalf("post-seal size %d, want 31", seal.Size)
	}
	if tr := e.Lookup(7500); tr == nil || tr.Label != 2 || len(tr.Points) != len(src.Points) {
		t.Fatalf("sealed track wrong: %+v", tr)
	}

	// Error statuses: append onto the sealed ID conflicts, sealing an
	// unknown track is 404, bad deltas are 400, unknown watches 404.
	if r := postRaw(t, srv, "/v1/append", AppendRequest{ID: 7500, Points: wt.Points[:1]}); r.StatusCode != http.StatusConflict {
		t.Fatalf("append onto sealed ID: status %d, want 409", r.StatusCode)
	} else if decodeError(t, r).Code != CodeConflict {
		t.Fatal("conflict error code missing")
	}
	if r := postRaw(t, srv, "/v1/seal", SealRequest{ID: 7500}); r.StatusCode != http.StatusNotFound {
		t.Fatalf("re-seal: status %d, want 404", r.StatusCode)
	}
	if r := postRaw(t, srv, "/v1/append", AppendRequest{ID: 7501}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty append: status %d, want 400", r.StatusCode)
	}
	if r := postRaw(t, srv, "/v1/watch", WatchRequest{Pattern: wp}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("watch with neither threshold nor k: status %d, want 400", r.StatusCode)
	}

	var un UnwatchResponse
	if r := postJSON(t, srv, "/v1/unwatch", UnwatchRequest{Watch: wresp.Watch}, &un); r.StatusCode != http.StatusOK || !un.Removed {
		t.Fatalf("unwatch: status %d removed %v", r.StatusCode, un.Removed)
	}
	if r := postRaw(t, srv, "/v1/unwatch", UnwatchRequest{Watch: wresp.Watch}); r.StatusCode != http.StatusNotFound {
		t.Fatalf("re-unwatch: status %d, want 404", r.StatusCode)
	}
	if r, err := srv.Client().Get(srv.URL + "/v1/events?since=oops"); err != nil || r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %v / %d", err, r.StatusCode)
	}
}

func decodeBody(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestHTTPEventsLongPoll: a poll with wait_ms parked before the match
// exists is woken by the append and answers within the wait window —
// and an expired wait answers empty with the cursor unchanged.
func TestHTTPEventsLongPoll(t *testing.T) {
	e := newTestEngine(t, 30, Options{Shards: 2, Prefilter: true})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/events?wait_ms=30")
	if err != nil {
		t.Fatal(err)
	}
	var empty EventsResponse
	decodeBody(t, resp, &empty)
	if len(empty.Events) != 0 || empty.NextSince != 0 {
		t.Fatalf("expired wait: %+v", empty)
	}

	src := testDB(30, 7)[6]
	pattern := traj.New(-1, append([]traj.Point(nil), src.Points[0:3]...))
	if _, err := e.Watch(pattern, "", 1e-9, 0, false); err != nil {
		t.Fatal(err)
	}

	type pollResult struct {
		resp EventsResponse
		err  error
	}
	done := make(chan pollResult, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "/v1/events?wait_ms=10000")
		if err != nil {
			done <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var er EventsResponse
		done <- pollResult{resp: er, err: json.NewDecoder(resp.Body).Decode(&er)}
	}()

	time.Sleep(50 * time.Millisecond) // let the poll park
	if _, err := e.Append(7600, 0, src.Points); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("long poll: %v", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke up after the matching append")
	}
}

// TestHTTPEventsSSE: the SSE variant streams the match frame with its
// seq as the SSE id, honours Last-Event-ID resumption, and ends when
// the client goes away.
func TestHTTPEventsSSE(t *testing.T) {
	e := newTestEngine(t, 30, Options{Shards: 2, Prefilter: true})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	src := testDB(30, 7)[8]
	pattern := traj.New(-1, append([]traj.Point(nil), src.Points[0:3]...))
	wid, err := e.Watch(pattern, "", 1e-9, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(7700, 0, src.Points); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events?sse=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var id, event, data string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
		}
		if data != "" {
			break
		}
	}
	if sc.Err() != nil {
		t.Fatalf("sse read: %v", sc.Err())
	}
	if id != "1" || event != "match" {
		t.Fatalf("sse frame id=%q event=%q", id, event)
	}
	if !strings.Contains(data, `"track":7700`) || !strings.Contains(data, `"watch":`+strconv.Itoa(wid)) {
		t.Fatalf("sse data %q", data)
	}
	cancel() // disconnect; the handler must return, Close() must not hang
}

// TestAppendRejectsOutOfRange: an append carrying coordinates beyond
// traj.MaxCoord is refused like an insert of them would be — 400
// invalid_query, no live track — so the live-track scan never evaluates
// a distance that overflows to +Inf, and the next search still answers
// decodable JSON.
func TestAppendRejectsOutOfRange(t *testing.T) {
	e := newTestEngine(t, 30, Options{})
	srv := httptest.NewServer(NewAPIHandler(e, HandlerOptions{}))
	defer srv.Close()

	for _, pts := range [][][3]float64{
		{{1e300, 1e300, 0}, {-1e300, 1e300, 1}},
		{{0, 0, 0}, {2 * traj.MaxCoord, 0, 1}},
	} {
		resp := postRaw(t, srv, "/v1/append", AppendRequest{ID: 9999, Points: pts})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("append %v: status %d, want 400", pts, resp.StatusCode)
		}
		if env := decodeError(t, resp); env.Code != CodeInvalidQuery {
			t.Fatalf("append %v: code %q, want %q", pts, env.Code, CodeInvalidQuery)
		}
	}
	if e.buffer.Has(9999) || e.Stats().Stream.LiveTracks != 0 {
		t.Fatal("a refused append created a live track")
	}

	wq := wire(testDB(30, 7)[3])
	resp := postRaw(t, srv, "/v1/search", SearchRequest{Query: Query{Kind: KindKNN, K: 50}, QueryTraj: &wq})
	var got SearchResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("search body does not decode: %v", err)
	}
	if len(got.Results) != e.Size() {
		t.Fatalf("%d results, want every one of %d members", len(got.Results), e.Size())
	}
}
