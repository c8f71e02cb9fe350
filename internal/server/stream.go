package server

import (
	"errors"
	"fmt"
	"math"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/sketch"
	"trajmatch/internal/stream"
	"trajmatch/internal/traj"
	"trajmatch/internal/wal"
)

// This file wires the live-ingest subsystem (internal/stream) into the
// engine: the append path, the seal path (manual and background), the
// standing-query surface (Watch/Unwatch/Events), and the live-track
// stage of every search.
//
// The streaming lifecycle in one paragraph: POST /v1/append extends a
// live track in the mutable buffer through the engine's one mutation
// step (mutate) — WAL-logged first when a log is attached, so an acked
// point survives a crash — and the track is immediately searchable:
// every search, after merging its sealed-shard answers, runs the flat
// scan over the live tracks with the same bounded kernel and merges by
// (distance, ID). Each append also advances the track's incremental
// fingerprint (sketch.Stream) and feeds the continuous-query matcher:
// watches whose pattern shares no grid cell with the track are skipped
// outright (the token gate; counter WatchGateSkips), colliding watches
// run the exact prefix kernel, and a crossing emits an Event with a
// monotonic sequence number on the long-poll/SSE feed. Sealing — an
// explicit POST /v1/seal or the background idle sealer — folds the
// finished track into every metric's sealed shard via the normal
// insert machinery and drops it from the buffer.

// Streaming errors. WriteSearchError answers ErrSealedID with 409 and
// ErrNoTrack with 404.
var (
	// ErrSealedID rejects an append onto, or an insert of, an ID that
	// already exists as a sealed (indexed) trajectory.
	ErrSealedID = errors.New("id already sealed")
	// ErrLiveID rejects an insert of an ID a live track holds.
	ErrLiveID = errors.New("id is a live track")
	// ErrNoTrack rejects a seal of an ID with no live track.
	ErrNoTrack = errors.New("no live track with this id")
	// ErrUnknownWatch rejects an unwatch of an unregistered watch ID.
	ErrUnknownWatch = errors.New("no watch with this id")
)

// initStream builds the live-ingest state: the track buffer (bumping
// the engine generation on every mutation so cached answers stay
// coherent), the watch registry and the event log. Called from
// attachWAL so it precedes WAL replay — replayed append records land in
// the buffer.
func (e *Engine) initStream() {
	e.buffer = stream.NewBuffer(e.gen.bump, e.sketchParams)
	e.watches = stream.NewRegistry()
	e.events = stream.NewEventLog(stream.DefaultEventBuffer)
}

// validateDelta checks an append delta point by point with
// traj.ValidatePoint, the check traj.Validate applies to a whole
// trajectory, minus the two-point minimum (a delta may be a single
// point; the two-point floor applies to searchability and sealing, not
// ingestion). lastT is the track's current final timestamp, NaN for a
// new track.
func validateDelta(pts []traj.Point, lastT float64) error {
	if len(pts) == 0 {
		return fmt.Errorf("%w: empty append", ErrInvalidQuery)
	}
	prevT := lastT
	for i, p := range pts {
		if err := traj.ValidatePoint(p, prevT); err != nil {
			return fmt.Errorf("%w: %v at point %d", ErrInvalidQuery, err, i)
		}
		prevT = p.T
	}
	return nil
}

// Append extends live track id by pts, creating the track (with the
// given label) on first use, and returns the offset the delta landed at
// — the track's point count before the append. An ID already sealed
// answers ErrSealedID. With a WAL attached the delta is logged before
// it is applied and acknowledged only once durable per the sync policy.
// The appended points are visible to the very next search
// (read-your-writes) once the track holds two points, and the
// continuous-query matcher runs before Append returns, so a watcher's
// match event is published within the append round-trip.
func (e *Engine) Append(id, label int, pts []traj.Point) (int, error) {
	// Streaming is single-node for now: a shard node serving a partition
	// rejects live ingest outright (the router has no append fan-out yet)
	// rather than accept tracks whose eventual seal could land on a
	// foreign shard.
	if e.place.partitioned() {
		return 0, fmt.Errorf("server: streaming ingest on a partitioned shard node: %w", backend.ErrNotSupported)
	}
	var offset int
	err := e.mutate(&e.appends, func() (wal.Record, error) {
		if e.Lookup(id) != nil {
			return wal.Record{}, fmt.Errorf("server: trajectory %d: %w", id, ErrSealedID)
		}
		lastT := math.NaN()
		if snap, ok := e.buffer.Get(id); ok {
			label = snap.Label // the first append's label wins
			lastT = snap.Points[len(snap.Points)-1].T
		}
		if err := validateDelta(pts, lastT); err != nil {
			return wal.Record{}, err
		}
		offset = e.buffer.Len(id)
		return wal.AppendPoints(id, label, offset, pts), nil
	}, func() error {
		e.applyAppend(id, label, pts)
		return nil
	})
	return offset, err
}

// applyAppend is the in-memory half of an append, shared by the live
// path and WAL replay: extend the buffer track and run the
// continuous-query matcher under the shard lock (on replay the registry
// is empty, so the matcher is a no-op).
func (e *Engine) applyAppend(id, label int, pts []traj.Point) {
	e.buffer.Append(id, label, pts, time.Now(), e.watchEval)
}

// Seal folds live track id into every metric's sealed shard — the
// track must form a valid trajectory (two points minimum) — and drops
// it from the buffer. An ID with no live track answers ErrNoTrack.
// Requires mutable backends, like Insert.
func (e *Engine) Seal(id int) error {
	if err := e.requireMutable(); err != nil {
		return err
	}
	return e.mutate(&e.seals, func() (wal.Record, error) {
		snap, ok := e.buffer.Get(id)
		if !ok {
			return wal.Record{}, fmt.Errorf("server: trajectory %d: %w", id, ErrNoTrack)
		}
		if err := traj.New(snap.ID, snap.Points).Validate(); err != nil {
			return wal.Record{}, fmt.Errorf("%w: seal %d: %v", ErrInvalidQuery, id, err)
		}
		return wal.Seal(id), nil
	}, func() error { return e.applySeal(id) })
}

// applySeal is the in-memory half of a seal, shared by the live path
// and WAL replay: remove the track from the buffer and insert its
// trajectory into every metric's owning shard and the sketch.
func (e *Engine) applySeal(id int) error {
	snap, ok := e.buffer.Remove(id)
	if !ok {
		return nil
	}
	tr := traj.New(snap.ID, snap.Points)
	tr.Label = snap.Label
	return e.applyInsert(tr)
}

// sealIdle seals every live track whose last append is at least d old
// and that forms a valid trajectory, returning how many sealed. Tracks
// still below two points are left for more appends (or deletion).
func (e *Engine) sealIdle(d time.Duration) int {
	n := 0
	for _, id := range e.buffer.IdleBefore(time.Now().Add(-d)) {
		if e.Seal(id) == nil {
			n++
		}
	}
	return n
}

// startSealer arms the background sealer when Options.SealAfter asks
// for one; stopSealer (Close) tears it down.
func (e *Engine) startSealer() {
	if e.opt.SealAfter <= 0 {
		return
	}
	// A quarter of SealAfter: an idle track folds at most 25 % late.
	interval := e.opt.SealAfter / 4
	if interval <= 0 {
		interval = time.Second
	}
	e.sealStop = make(chan struct{})
	e.sealWG.Add(1)
	go func() {
		defer e.sealWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.sealStop:
				return
			case <-t.C:
				e.sealIdle(e.opt.SealAfter)
			}
		}
	}()
}

func (e *Engine) stopSealer() {
	if e.sealStop == nil {
		return
	}
	e.sealOnce.Do(func() { close(e.sealStop) })
	e.sealWG.Wait()
}

// Watch registers a standing query: pattern is matched against every
// growing track under the named metric (empty means the default), with
// exactly one of threshold (> 0: emit an event, once per track, when
// the track's prefix distance reaches it) or k (> 0: emit an event
// whenever a track enters or improves within the watch's k best). exact
// opts out of the sketch token gate — every append evaluates the exact
// kernel. Returns the watch ID events carry. Matching is evaluated on
// appends after registration; tracks already matching are caught up on
// their next append.
func (e *Engine) Watch(pattern *traj.Trajectory, metric string, threshold float64, k int, exact bool) (int, error) {
	if e.place.partitioned() {
		return 0, fmt.Errorf("server: standing queries on a partitioned shard node: %w", backend.ErrNotSupported)
	}
	if pattern == nil {
		return 0, fmt.Errorf("%w: nil watch pattern", ErrInvalidQuery)
	}
	if err := pattern.Validate(); err != nil {
		return 0, fmt.Errorf("%w: watch pattern: %v", ErrInvalidQuery, err)
	}
	if (threshold > 0) == (k > 0) {
		return 0, fmt.Errorf("%w: exactly one of threshold and k must be positive", ErrInvalidQuery)
	}
	if threshold > 0 && math.IsInf(threshold, 1) {
		return 0, fmt.Errorf("%w: threshold must be finite", ErrInvalidQuery)
	}
	ms, err := e.resolveMetric(metric)
	if err != nil {
		return 0, err
	}
	be := ms.shards[0].be
	if _, ok := be.(backend.SubDistancer); !ok {
		if _, ok := be.(backend.Distancer); !ok {
			return 0, fmt.Errorf("server: metric %q: watch %w", ms.name, backend.ErrNotSupported)
		}
	}
	var tokens []uint64
	if e.sketchParams != nil && !exact {
		tokens, err = sketch.PatternTokens(*e.sketchParams, pattern)
		if err != nil {
			return 0, fmt.Errorf("server: %w", err)
		}
	}
	w := &stream.Watch{Pattern: pattern, Metric: ms.name, Threshold: threshold, K: k, Exact: exact}
	return e.watches.Add(w, tokens), nil
}

// Unwatch unregisters a watch, clearing its per-track gating state.
func (e *Engine) Unwatch(id int) bool {
	if !e.watches.Remove(id) {
		return false
	}
	e.buffer.ForgetWatch(id)
	return true
}

// Events returns up to max match events with sequence numbers > since,
// plus whether the consumer's cursor predates the retained window (it
// missed events it can never replay and should resync).
func (e *Engine) Events(since uint64, max int) ([]stream.Event, bool) {
	return e.events.After(since, max)
}

// EventsWait returns a channel closed at the next published event —
// the long-poll primitive behind GET /v1/events.
func (e *Engine) EventsWait() <-chan struct{} {
	return e.events.WaitCh()
}

// watchEval is the continuous-query matcher, run under the buffer's
// lock on every append (its position inside the lock is what
// orders one track's events by append). Three stages: catch up on
// watches registered since the track's previous append, open gates the
// delta's fresh tokens collide with, then run the exact kernel for the
// gated, unlatched watches only — the token gate is where the sketch
// prefilter pays for itself, counted in watchGateSkips.
func (e *Engine) watchEval(t *stream.Track, fresh []uint64) {
	reg := e.watches
	if max := reg.MaxID(); max > t.LastWatchID() {
		for _, w := range reg.After(t.LastWatchID()) {
			if w.Exact || t.Sketch() == nil {
				t.SetGated(w.ID)
				continue
			}
			for _, tok := range reg.Tokens(w.ID) {
				if t.Sketch().HasToken(tok) {
					t.SetGated(w.ID)
					break
				}
			}
		}
		t.SetLastWatchID(max)
	}
	for _, id := range reg.Collide(fresh) {
		t.SetGated(id)
	}
	gated := t.GatedIDs()
	if skipped := reg.Count() - len(gated); skipped > 0 {
		e.watchGateSkips.Add(uint64(skipped))
	}
	if len(gated) == 0 || t.Len() < 2 {
		return
	}
	trackTr := traj.New(t.ID(), t.Points())
	trackTr.Label = t.Label()
	for _, wid := range gated {
		w := reg.Get(wid)
		if w == nil {
			t.ForgetWatch(wid)
			continue
		}
		if w.Threshold > 0 && t.Matched(wid) {
			continue // threshold watches latch: one event per (watch, track)
		}
		ms := e.byName[w.Metric]
		if ms == nil {
			continue
		}
		limit := w.Threshold
		if w.K > 0 {
			limit = w.KthBound()
		}
		// Prefer the sub-trajectory kernel (EDwPsub): the pattern should
		// match anywhere inside the growing track, which also makes the
		// distance non-increasing as the track grows. Metrics without a
		// sub-trajectory form match whole-track.
		var d float64
		var abandoned bool
		be := ms.shards[0].be
		e.watchEvals.Add(1)
		if sd, ok := be.(backend.SubDistancer); ok {
			d, abandoned = sd.SubDistanceBetween(w.Pattern, trackTr, limit, nil)
		} else if dd, ok := be.(backend.Distancer); ok {
			d, abandoned = dd.DistanceBetween(w.Pattern, trackTr, limit, nil)
		} else {
			continue
		}
		if abandoned || d > limit {
			continue
		}
		if w.K > 0 {
			if changed, rank := w.Offer(t.ID(), d); changed {
				e.events.Publish(stream.Event{
					Watch: wid, Track: t.ID(), Metric: w.Metric,
					Dist: d, PrefixLen: t.Len(), Rank: rank,
				})
			}
			continue
		}
		t.SetMatched(wid)
		e.events.Publish(stream.Event{
			Watch: wid, Track: t.ID(), Metric: w.Metric,
			Dist: d, PrefixLen: t.Len(), Rank: -1,
		})
	}
}

// liveAugment is the live-track stage of a search: after the sealed
// shards answered, run the flat scan (backend.ScanKNN) over every live
// track with at least two points, under the same bounded kernel
// (capability backend.Distancer / SubDistancer), and merge the result
// with the sealed answer by (distance, ID). Live tracks carry no lower
// bound, so they are visited in ID order; the scan's limit starts at
// the query's planned seed (Query.plan: a range query's radius)
// tightened by the sealed k-th best and tightens further on the live
// tracks' own k-th best. With the strict-abandon kernel contract and
// the scan's ID tie-break, the merged answer is the same deterministic
// function of the combined corpus as a sealed-only answer.
func (e *Engine) liveAugment(ms *metricSet, q *traj.Trajectory, req Query, res []backend.Result, ctl *backend.Ctl, st *backend.Stats) ([]backend.Result, bool, error) {
	var live []*traj.Trajectory
	for _, sn := range e.buffer.Snapshot() {
		if len(sn.Points) >= 2 { // searchable from two points
			tr := traj.New(sn.ID, sn.Points)
			tr.Label = sn.Label
			live = append(live, tr)
		}
	}
	if len(live) == 0 {
		return res, false, nil
	}
	be := ms.shards[0].be
	var dist func(q, t *traj.Trajectory, limit float64, ctl *backend.Ctl) (float64, bool)
	if req.Kind == KindSubKNN {
		sd, ok := be.(backend.SubDistancer)
		if !ok {
			return res, false, fmt.Errorf("metric %q: live sub-trajectory search %w", ms.name, backend.ErrNotSupported)
		}
		dist = sd.SubDistanceBetween
	} else {
		dd, ok := be.(backend.Distancer)
		if !ok {
			return res, false, fmt.Errorf("metric %q: live search %w", ms.name, backend.ErrNotSupported)
		}
		dist = dd.DistanceBetween
	}
	cands := make([]backend.Cand, len(live))
	for i, tr := range live {
		cands[i] = backend.Cand{T: tr}
	}
	k, limit := req.plan()
	if len(res) >= k && res[len(res)-1].Dist < limit {
		limit = res[len(res)-1].Dist
	}
	found, truncated, err := backend.ScanKNN(cands, k, backend.NewSharedBound(limit), ctl, st, func(tr *traj.Trajectory, limit float64) (float64, bool) {
		return dist(q, tr, limit, ctl)
	})
	if err != nil {
		return nil, false, err
	}
	if len(found) > 0 {
		res = mergeResults([][]backend.Result{res, found}, k)
	}
	return res, truncated, nil
}

// relogLiveTracks appends each live track's full state (an offset-0
// append record) to the WAL. SaveSnapshot calls it under mutMu right
// after taking the barrier: the records land in the post-barrier
// segment, so truncating the pre-barrier segments — which hold the
// tracks' original append records, while the shard streams hold only
// sealed state — loses nothing.
func (e *Engine) relogLiveTracks() error {
	for _, sn := range e.buffer.Snapshot() {
		if _, err := e.wal.Append(wal.AppendPoints(sn.ID, sn.Label, 0, sn.Points)); err != nil {
			return err
		}
	}
	return nil
}

// LiveTracks returns the number of live (unsealed) tracks.
func (e *Engine) LiveTracks() int { return e.buffer.Count() }

// LiveTrack returns a snapshot of live track id.
func (e *Engine) LiveTrack(id int) (stream.Snap, bool) { return e.buffer.Get(id) }

// StreamStats is the live-ingest slice of GET /v1/stats.
type StreamStats struct {
	// LiveTracks and LivePoints size the mutable buffer.
	LiveTracks int `json:"live_tracks"`
	LivePoints int `json:"live_points"`
	// Appends and Seals count acknowledged operations.
	Appends uint64 `json:"appends"`
	Seals   uint64 `json:"seals"`
	// Watches is the registered standing-query count; EventSeq the
	// newest published event sequence number.
	Watches  int    `json:"watches"`
	EventSeq uint64 `json:"event_seq"`
	// WatchEvals counts exact kernel evaluations the matcher ran;
	// WatchGateSkips the (append, watch) pairs the token gate skipped
	// without any exact work — the streaming prefilter saving.
	WatchEvals     uint64 `json:"watch_evals"`
	WatchGateSkips uint64 `json:"watch_gate_skips"`
}

func (e *Engine) streamStats() *StreamStats {
	return &StreamStats{
		LiveTracks:     e.buffer.Count(),
		LivePoints:     e.buffer.Points(),
		Appends:        e.appends.Load(),
		Seals:          e.seals.Load(),
		Watches:        e.watches.Count(),
		EventSeq:       e.events.LastSeq(),
		WatchEvals:     e.watchEvals.Load(),
		WatchGateSkips: e.watchGateSkips.Load(),
	}
}
