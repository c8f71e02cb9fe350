package stream

import (
	"math"
	"sort"
	"sync"

	"trajmatch/internal/traj"
)

// Watch is one standing query: a pattern trajectory to match growing
// tracks against, the metric to match under, and either a distance
// threshold (Threshold > 0: a track matches when its prefix distance
// reaches the threshold) or a top-k budget (K > 0: a track matches when
// it enters the watch's current k best). Exactly one of the two is set.
//
// The immutable fields are fixed at registration. The top-k state
// (best) is guarded by mu — the engine's matcher updates it append by
// append. It is the one (distance, ID)-ordered answer set that is not a
// backend.KBest: a growing track is offered again on every append and
// must replace its own earlier entry, and removed on delete, which an
// insert-only k-best set cannot express.
type Watch struct {
	ID        int
	Pattern   *traj.Trajectory
	Metric    string
	Threshold float64
	K         int
	// Exact opts the watch out of the token gate: every append to every
	// track runs the exact kernel. The escape hatch for callers that
	// want guaranteed-no-prefilter semantics at full cost.
	Exact bool

	tokens []uint64

	mu   sync.Mutex
	best []Best // sorted by (Dist, Track), len <= K
}

// Best is one entry of a top-k watch's current answer set.
type Best struct {
	Track int
	Dist  float64
}

// KthBound returns the pruning limit a top-k watch's next evaluation
// may use: the current k-th best distance once the set is full, +Inf
// before. Threshold watches bound by their threshold instead.
func (w *Watch) KthBound() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.K > 0 && len(w.best) == w.K {
		return w.best[len(w.best)-1].Dist
	}
	return math.Inf(1)
}

// Offer folds an evaluated (track, dist) into a top-k watch's answer
// set, replacing the track's previous entry if the new distance is
// better (a growing track's sub-trajectory distance only improves).
// It reports whether the set changed — the "emit an event" signal —
// and the track's resulting rank.
func (w *Watch) Offer(track int, dist float64) (changed bool, rank int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, b := range w.best {
		if b.Track == track {
			if dist >= b.Dist {
				return false, i
			}
			w.best = append(w.best[:i], w.best[i+1:]...)
			break
		}
	}
	i := sort.Search(len(w.best), func(i int) bool {
		if w.best[i].Dist != dist {
			return w.best[i].Dist > dist
		}
		return w.best[i].Track > track
	})
	if i >= w.K {
		return false, -1
	}
	w.best = append(w.best, Best{})
	copy(w.best[i+1:], w.best[i:])
	w.best[i] = Best{Track: track, Dist: dist}
	if len(w.best) > w.K {
		w.best = w.best[:w.K]
	}
	return true, i
}

// Drop removes a track from a top-k watch's answer set (the track was
// deleted).
func (w *Watch) Drop(track int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, b := range w.best {
		if b.Track == track {
			w.best = append(w.best[:i], w.best[i+1:]...)
			return
		}
	}
}

// Registry holds the registered watches and the inverted token index
// that gates them: a watch becomes a candidate for a track only once
// the track visits a grid cell the pattern visits. Watch IDs are
// assigned monotonically, which is what lets tracks catch up on watches
// registered after their last append (After). Safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	next    int
	watches map[int]*Watch
	ordered []*Watch         // by ID ascending
	byToken map[uint64][]int // pattern token -> watch IDs (ascending)
	exact   map[int]struct{} // watches that bypass the gate
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		watches: make(map[int]*Watch),
		byToken: make(map[uint64][]int),
		exact:   make(map[int]struct{}),
	}
}

// Add registers w, assigning and returning its ID. tokens is the
// pattern's distinct fingerprint token set (sketch.PatternTokens); nil
// disables the gate for this watch (it joins the exact set), which is
// also what Exact forces.
func (r *Registry) Add(w *Watch, tokens []uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	w.ID = r.next
	w.tokens = tokens
	r.watches[w.ID] = w
	r.ordered = append(r.ordered, w)
	if w.Exact || len(tokens) == 0 {
		r.exact[w.ID] = struct{}{}
		return w.ID
	}
	for _, tok := range tokens {
		r.byToken[tok] = append(r.byToken[tok], w.ID)
	}
	return w.ID
}

// Remove unregisters watch id, reporting whether it existed. The
// caller clears per-track gating state via Buffer.ForgetWatch.
func (r *Registry) Remove(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.watches[id]
	if !ok {
		return false
	}
	delete(r.watches, id)
	delete(r.exact, id)
	for i, o := range r.ordered {
		if o.ID == id {
			r.ordered = append(r.ordered[:i], r.ordered[i+1:]...)
			break
		}
	}
	for _, tok := range w.tokens {
		ids := r.byToken[tok]
		for i, wid := range ids {
			if wid == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(r.byToken, tok)
		} else {
			r.byToken[tok] = ids
		}
	}
	return true
}

// Get returns watch id, or nil.
func (r *Registry) Get(id int) *Watch {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.watches[id]
}

// Count returns the number of registered watches.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.watches)
}

// MaxID returns the newest assigned watch ID (0 when none ever was) —
// the catch-up high-water mark tracks record.
func (r *Registry) MaxID() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.next
}

// Collide returns, ascending and deduplicated, the IDs of gated
// watches whose pattern shares at least one token with fresh — the
// newly-opened gates an append must consider. Exact watches are not
// reported here; they are always candidates (Exacts).
func (r *Registry) Collide(fresh []uint64) []int {
	if len(fresh) == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var hit map[int]struct{}
	for _, tok := range fresh {
		for _, id := range r.byToken[tok] {
			if hit == nil {
				hit = make(map[int]struct{})
			}
			hit[id] = struct{}{}
		}
	}
	if hit == nil {
		return nil
	}
	out := make([]int, 0, len(hit))
	for id := range hit {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// After returns the watches with ID > since, ascending — what a track
// that last gated at watch since must catch up against.
func (r *Registry) After(since int) []*Watch {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i := sort.Search(len(r.ordered), func(i int) bool { return r.ordered[i].ID > since })
	if i == len(r.ordered) {
		return nil
	}
	return append([]*Watch(nil), r.ordered[i:]...)
}

// Tokens returns watch id's pattern token set (nil for exact watches).
func (r *Registry) Tokens(id int) []uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if w := r.watches[id]; w != nil {
		return w.tokens
	}
	return nil
}
