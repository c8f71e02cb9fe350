package server

import (
	"fmt"

	"trajmatch/internal/backend"
	"trajmatch/internal/sketch"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// The candidate prefilter is engine-owned: one sketch.Index per shard,
// shared across every loaded metric set, because candidacy is a function
// of geometry alone while the metric only decides how candidates are
// verified. Queries opt in per request (Query.Prefilter); the fan-out
// then asks the shard's sketch for a candidate set and hands it to the
// backend's CandidateSearcher capability for exact, bound-ordered
// verification — answers are exact over the admitted set, and the only
// approximation is recall (a true neighbour the sketch never admitted).
// Like the shard placement, the sketch parameters are whole-corpus
// state: CellSize is derived from the full database before sharding, so
// every shard tokenizes identically and a snapshot reload can rebuild
// the exact same prefilter from the manifest's recorded parameters.

// resolveSketchParams fixes the whole-corpus sketch parameters: derive
// CellSize from the full database when unset, fill defaults, validate.
func resolveSketchParams(db []*traj.Trajectory, p sketch.Params) (sketch.Params, error) {
	if p.CellSize == 0 {
		p.CellSize = sketch.DeriveCellSize(db)
	}
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("server: prefilter: %w", err)
	}
	return p, nil
}

// buildSketches builds every local shard's sketch index, once per boot
// and after WAL replay, from the shard's members under the resolved
// params. Only TrajTree shards accept mutations, so when the engine
// loads them they hold the post-replay corpus; an engine without them
// cannot have replayed a record (replayRecord refuses every one), so
// db, hash-placed, still is its corpus.
func (e *Engine) buildSketches(db []*traj.Trajectory) error {
	var groups [][]*traj.Trajectory
	if ms := e.byName[trajtree.MetricName]; ms != nil {
		for _, s := range ms.shards {
			groups = append(groups, s.all())
		}
	} else {
		groups = partitionOwned(db, e.place, func(t *traj.Trajectory) int { return t.ID })
	}
	sketches := make([]*sketch.Index, len(groups))
	for i, g := range groups {
		ix, err := sketch.Build(g, *e.sketchParams)
		if err != nil {
			return fmt.Errorf("server: prefilter shard %d: %w", i, err)
		}
		sketches[i] = ix
	}
	e.sketches = sketches
	return nil
}

// PrefilterEnabled reports whether the engine was booted with the
// candidate prefilter (Options.Prefilter or a snapshot recording one).
func (e *Engine) PrefilterEnabled() bool { return e.sketches != nil }

// SketchParams returns the resolved prefilter parameters (the zero
// value when the prefilter is disabled).
func (e *Engine) SketchParams() sketch.Params {
	if e.sketchParams == nil {
		return sketch.Params{}
	}
	return *e.sketchParams
}

// prefilterWant is how many candidates the engine requests per shard:
// 8·k or 1/24 of the shard, whichever is larger (and floored below by
// the params' MinCands, inside Candidates). The slack over k is what
// keeps recall high — the sketch only has to rank a true neighbour into
// the admitted set by signature and cell overlap, not into the top k —
// and the size-proportional floor keeps recall from collapsing as the
// corpus grows while still capping the verified population at ~4% of
// the shard (the verifiers' own lower bounds then cut actual kernel
// evaluations well below that).
func prefilterWant(k, size int) int {
	w := 8 * k
	if f := size / 24; f > w {
		w = f
	}
	return w
}

// prefilterShard answers one shard's slice of a prefiltered k-NN query:
// sketch candidates first, then exact verification restricted to them,
// under the same shared bound and Ctl as a full search. The stats
// record both the verification work and what the prefilter saved
// (PrefilterSkipped members never touched by any bound or kernel).
func (e *Engine) prefilterShard(s *shard, ix *sketch.Index, q *traj.Trajectory, req Query,
	bound *backend.SharedBound, ctl *backend.Ctl) ([]backend.Result, backend.Stats, bool, error) {
	// One size read serves both the request and the skipped count, so a
	// write landing between them cannot make the two describe different
	// shard states.
	size := s.size()
	ids, _ := ix.Candidates(q, prefilterWant(req.K, size))
	res, st, truncated, err := s.searchKNNIn(q, ids, req.K, bound, ctl)
	st.PrefilterCandidates += len(ids)
	if skipped := size - len(ids); skipped > 0 {
		st.PrefilterSkipped += skipped
	}
	return res, st, truncated, err
}
