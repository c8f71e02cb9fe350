// Package stream is the live-ingest layer in front of the sealed
// engine: the mutable buffer that growing trajectories accumulate in
// (Buffer), the standing-query registry that appends are matched
// against (Registry), and the sequence-numbered event feed that
// delivers the matches (EventLog).
//
// The division of labour with internal/server: this package owns the
// data structures and their concurrency story; the engine owns policy —
// WAL logging, when to seal, which exact kernel a watch runs, how live
// tracks merge into search answers. Nothing here knows about metrics,
// the WAL, or HTTP.
//
// The buffer is one map under one lock. The engine already serialises
// every track-changing write (append, remove) on its own mutation lock,
// so the buffer lock only orders those writers against query-side
// readers and against ForgetWatch. A live track's points are
// append-only: the backing array of an earlier snapshot is never
// rewritten, so a []traj.Point slice captured under the lock stays
// valid outside it — the property the engine's live-track scan and the
// watch matcher rely on to evaluate exact kernels without holding the
// buffer lock for reads.
package stream

import (
	"sort"
	"sync"
	"time"

	"trajmatch/internal/sketch"
	"trajmatch/internal/traj"
)

// Track is one live (unsealed) trajectory plus its incremental
// fingerprint and its standing-query bookkeeping. All state is guarded
// by the buffer's lock; the engine's eval callback runs under that
// lock, so Track methods must only be called from inside an Append
// callback.
type Track struct {
	id    int
	label int
	pts   []traj.Point // append-only
	sk    *sketch.Stream

	gated       map[int]struct{} // watch IDs whose token gate this track has passed
	matched     map[int]struct{} // watch IDs already latched as matched
	lastWatchID int              // newest watch ID this track has been gated against
	lastAppend  time.Time
}

// ID returns the track's trajectory ID.
func (t *Track) ID() int { return t.id }

// Label returns the label carried by the track's first append.
func (t *Track) Label() int { return t.label }

// Points returns the track's current points. The returned slice is a
// stable snapshot: appends extend a fresh array, never this one.
func (t *Track) Points() []traj.Point { return t.pts }

// Len returns the track's current point count.
func (t *Track) Len() int { return len(t.pts) }

// Sketch returns the track's incremental fingerprint, nil when the
// buffer was built without sketch parameters.
func (t *Track) Sketch() *sketch.Stream { return t.sk }

// SetGated latches the token gate of watch w open for this track.
func (t *Track) SetGated(w int) { t.gated[w] = struct{}{} }

// GatedIDs returns, ascending, the IDs of every watch whose token gate
// this track has passed — the matcher's deterministic evaluation order.
func (t *Track) GatedIDs() []int {
	if len(t.gated) == 0 {
		return nil
	}
	out := make([]int, 0, len(t.gated))
	for w := range t.gated {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Matched reports whether watch w has already latched a match on this
// track (matches are emitted once per (watch, track) pair).
func (t *Track) Matched(w int) bool {
	_, ok := t.matched[w]
	return ok
}

// SetMatched latches watch w as matched on this track.
func (t *Track) SetMatched(w int) { t.matched[w] = struct{}{} }

// LastWatchID returns the newest watch ID this track has been gated
// against; watches registered later must be caught up on the next
// append.
func (t *Track) LastWatchID() int { return t.lastWatchID }

// SetLastWatchID records the catch-up high-water mark.
func (t *Track) SetLastWatchID(w int) { t.lastWatchID = w }

// ForgetWatch drops all gating state for an unregistered watch.
func (t *Track) ForgetWatch(w int) {
	delete(t.gated, w)
	delete(t.matched, w)
}

// Snap is a consistent read-only view of one track, valid after the
// buffer lock is released (the points slice is append-only).
type Snap struct {
	ID     int
	Label  int
	Points []traj.Point
}

func (t *Track) snap() Snap { return Snap{ID: t.id, Label: t.label, Points: t.pts} }

// Buffer holds the live tracks. Safe for concurrent use.
type Buffer struct {
	onChange func() // called under the lock after every mutation
	params   *sketch.Params

	mu     sync.RWMutex
	tracks map[int]*Track
}

// NewBuffer builds an empty buffer. onChange, if non-nil, is invoked
// under the buffer lock after every mutation — the engine hooks its
// generation bump in so result caches invalidate exactly as they do for
// sealed mutations. params, if non-nil, gives every track an
// incremental sketch.Stream for the continuous-query token gate; nil
// disables gating (every watch evaluates exactly).
func NewBuffer(onChange func(), params *sketch.Params) *Buffer {
	return &Buffer{onChange: onChange, params: params, tracks: make(map[int]*Track)}
}

// Len returns the current point count of track id, 0 when absent.
func (b *Buffer) Len(id int) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if t := b.tracks[id]; t != nil {
		return len(t.pts)
	}
	return 0
}

// Has reports whether a live track with the given ID exists.
func (b *Buffer) Has(id int) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.tracks[id]
	return ok
}

// Append extends track id (creating it on first use with the given
// label) by pts, and returns the offset the delta landed at (the point
// count before the append). fresh receives the distinct fingerprint
// tokens the delta introduced. eval, if non-nil, runs under the buffer
// lock after the state update — the engine's continuous-query hook; its
// position inside the lock is what gives watch events their per-track
// append ordering.
func (b *Buffer) Append(id, label int, pts []traj.Point, now time.Time, eval func(t *Track, fresh []uint64)) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tracks[id]
	if t == nil {
		t = &Track{id: id, label: label, gated: make(map[int]struct{}), matched: make(map[int]struct{})}
		if b.params != nil {
			// Params were validated when the engine resolved them.
			t.sk, _ = sketch.NewStream(*b.params)
		}
		b.tracks[id] = t
	}
	offset := len(t.pts)
	t.pts = append(t.pts, pts...)
	var fresh []uint64
	if t.sk != nil {
		fresh = t.sk.Extend(pts)
	}
	t.lastAppend = now
	if b.onChange != nil {
		b.onChange()
	}
	if eval != nil {
		eval(t, fresh)
	}
	return offset
}

// Get returns a stable snapshot of track id.
func (b *Buffer) Get(id int) (Snap, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if t := b.tracks[id]; t != nil {
		return t.snap(), true
	}
	return Snap{}, false
}

// Remove deletes track id (seal folded it into the engine, or an
// explicit delete dropped it) and returns its final snapshot.
func (b *Buffer) Remove(id int) (Snap, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tracks[id]
	if t == nil {
		return Snap{}, false
	}
	delete(b.tracks, id)
	if b.onChange != nil {
		b.onChange()
	}
	return t.snap(), true
}

// Snapshot returns a stable view of every live track, ordered by ID.
func (b *Buffer) Snapshot() []Snap {
	b.mu.RLock()
	out := make([]Snap, 0, len(b.tracks))
	for _, t := range b.tracks {
		out = append(out, t.snap())
	}
	b.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Count returns the number of live tracks.
func (b *Buffer) Count() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.tracks)
}

// Points returns the total number of buffered points.
func (b *Buffer) Points() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, t := range b.tracks {
		n += len(t.pts)
	}
	return n
}

// IdleBefore returns, ascending, the IDs of tracks whose last append
// predates cutoff — the background sealer's candidate list.
func (b *Buffer) IdleBefore(cutoff time.Time) []int {
	var out []int
	b.mu.RLock()
	for id, t := range b.tracks {
		if t.lastAppend.Before(cutoff) {
			out = append(out, id)
		}
	}
	b.mu.RUnlock()
	sort.Ints(out)
	return out
}

// ForgetWatch drops watch w's gating state from every track (the watch
// was unregistered).
func (b *Buffer) ForgetWatch(w int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, t := range b.tracks {
		t.ForgetWatch(w)
	}
}
