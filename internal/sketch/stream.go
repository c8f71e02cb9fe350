package sketch

import "trajmatch/internal/traj"

// Stream tokenizes a live track incrementally: each Extend walks only
// the newly appended segments (the cellWalk cursor carries the
// duplicate-collapse and predecessor state across calls) and reports the
// cells entered for the first time. At every prefix the stream's token
// set equals what Index's tokenizer computes from scratch over the same
// points — the property the continuous-query gate relies on and
// stream_test proves — at O(new segments) cost per append instead of
// O(track length).
//
// A Stream is not safe for concurrent use; callers serialise access
// (the stream buffer holds its per-shard lock across Extend).
type Stream struct {
	walk cellWalk
	seen map[uint64]struct{} // distinct fine-cell tokens
}

// NewStream returns an empty stream; Params must Validate (CellSize
// resolved). Equal params produce streams whose tokens are comparable
// with an equal-params Index.
func NewStream(p Params) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Stream{
		walk: cellWalk{cell: p.CellSize},
		seen: make(map[uint64]struct{}),
	}, nil
}

// Extend feeds the appended points through the walk and returns the
// distinct cell tokens seen for the first time, in first-visit order —
// the delta the continuous-query gate probes against its inverted
// watch index. Points must be the contiguous continuation of what was
// fed before; the first call takes the track's opening points.
func (s *Stream) Extend(pts []traj.Point) []uint64 {
	var fresh []uint64
	s.walk.feed(pts, func(t uint64) {
		if _, ok := s.seen[t]; !ok {
			s.seen[t] = struct{}{}
			fresh = append(fresh, t)
		}
	})
	return fresh
}

// HasToken reports whether the track has ever entered the cell behind
// tok. The token set grows monotonically, which is what makes the
// collision gate sticky: once a watcher collides it stays a candidate.
func (s *Stream) HasToken(tok uint64) bool {
	_, ok := s.seen[tok]
	return ok
}

// PatternTokens returns the distinct cell tokens of tr under p, in
// first-visit order — how the watch registry fingerprints a standing
// query's pattern so appends can be gated by token collision.
func PatternTokens(p Params, tr *traj.Trajectory) ([]uint64, error) {
	s, err := NewStream(p)
	if err != nil {
		return nil, err
	}
	return s.Extend(tr.Points), nil
}
