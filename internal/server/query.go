package server

import (
	"errors"
	"fmt"
	"math"

	"trajmatch/internal/backend"
)

// ErrInvalidQuery wraps every request-validation failure of
// Engine.Search/SearchBatch, so callers (the HTTP layer in particular)
// can distinguish a malformed query from an execution failure with
// errors.Is.
var ErrInvalidQuery = errors.New("invalid query")

// QueryKind selects which search a Query runs. The values are the wire
// strings of the /v1/search endpoint.
type QueryKind string

const (
	// KindKNN is exact k-nearest-neighbour search under EDwPavg (or
	// cumulative EDwP per the index options): the K closest indexed
	// trajectories.
	KindKNN QueryKind = "knn"
	// KindRange returns every indexed trajectory within Radius.
	KindRange QueryKind = "range"
	// KindSubKNN is sub-trajectory search (EDwPsub, Eq. 6): the K indexed
	// trajectories containing the contiguous sub-trajectory best matching
	// the whole query. Answered by the k-NN descent ranking by EDwPsub,
	// fanned across the shards under one shared bound — the query side of
	// the tree's lower bounds holds for EDwPsub too.
	KindSubKNN QueryKind = "subknn"
)

// Query is the single request type of the engine's search API: one
// struct carries the query kind and every knob, so new parameters extend
// a field set instead of multiplying method variants. The zero value is
// not valid — Kind is mandatory.
type Query struct {
	// Kind selects the search; see the QueryKind constants.
	Kind QueryKind `json:"kind"`

	// Metric selects which loaded backend answers the query: "edwp",
	// "dtw", "edr", or any future registered backend the engine was
	// booted with. Empty means the engine's default metric — its first
	// in boot order, "edwp" in every standard boot. An unregistered name
	// fails with ErrUnknownMetric; a registered one the engine did not
	// load fails with ErrMetricNotLoaded.
	Metric string `json:"metric,omitempty"`

	// K is the answer-set size for KindKNN and KindSubKNN; ignored by
	// KindRange.
	K int `json:"k,omitempty"`

	// Radius is the KindRange search radius; ignored by the k-NN kinds.
	Radius float64 `json:"radius,omitempty"`

	// Limit, when positive and finite, seeds KindKNN and KindSubKNN with
	// an external upper bound: candidates above it are pruned from the
	// first evaluation, and the answer may hold fewer than K results. It
	// must be admissible — a known upper bound on the true K-th best
	// distance — or true neighbours can be cut off. 0 (or +Inf) means
	// unbounded. Ignored by KindRange, whose Radius already is the bound.
	Limit float64 `json:"limit,omitempty"`

	// MaxEvals, when positive, caps the exact distance evaluations the
	// query may spend across its whole shard fan-out. A query that
	// exhausts the budget stops early and returns its best-effort answer
	// with Answer.Truncated set — no longer exact, but bounded in cost.
	// With more than one shard searched concurrently the shards draw on
	// one shared budget, so which evaluations it buys, and with them the
	// truncated answer, depends on the schedule: two runs may differ.
	// 0 means unlimited.
	MaxEvals int `json:"max_evals,omitempty"`

	// Prefilter routes a KindKNN query through the sketch candidate
	// prefilter: each shard's sketch admits a small candidate set and
	// the backend verifies it exactly under the shared bound. The
	// answer is exact over the admitted candidates; the approximation
	// is recall — a true neighbour the sketch never admitted is absent.
	// Requires an engine booted with Options.Prefilter and a backend
	// implementing the CandidateSearcher capability (ErrNotSupported
	// otherwise); invalid on the other kinds. Prefiltered answers
	// bypass the result cache, whose key promises the exact k-NN.
	Prefilter bool `json:"prefilter,omitempty"`

	// WithStats asks for the per-query kernel instrumentation in
	// Answer.Stats. The engine's cumulative counters accumulate either
	// way; this only controls the per-answer copy.
	WithStats bool `json:"with_stats,omitempty"`
}

// Validate rejects malformed queries with ErrInvalidQuery-wrapped errors.
// Engine.Search and the cluster router both call it before any work.
func (q Query) Validate() error {
	switch q.Kind {
	case KindKNN, KindSubKNN:
		if q.K <= 0 {
			return fmt.Errorf("%w: k must be positive for kind %q", ErrInvalidQuery, q.Kind)
		}
		if q.Limit < 0 || math.IsNaN(q.Limit) {
			return fmt.Errorf("%w: limit must be non-negative", ErrInvalidQuery)
		}
	case KindRange:
		if q.Radius < 0 || math.IsNaN(q.Radius) {
			return fmt.Errorf("%w: radius must be non-negative", ErrInvalidQuery)
		}
	case "":
		return fmt.Errorf("%w: missing kind (one of %q, %q, %q)", ErrInvalidQuery, KindKNN, KindRange, KindSubKNN)
	default:
		return fmt.Errorf("%w: unknown kind %q (one of %q, %q, %q)", ErrInvalidQuery, q.Kind, KindKNN, KindRange, KindSubKNN)
	}
	if q.MaxEvals < 0 {
		return fmt.Errorf("%w: max_evals must be non-negative", ErrInvalidQuery)
	}
	if q.Prefilter && q.Kind != KindKNN {
		return fmt.Errorf("%w: prefilter applies to kind %q only", ErrInvalidQuery, KindKNN)
	}
	return nil
}

// seedLimit returns the bound the fan-out is seeded with: +Inf unless a
// positive finite Limit was given.
func (q Query) seedLimit() float64 {
	if q.Limit > 0 && !math.IsInf(q.Limit, 1) {
		return q.Limit
	}
	return math.Inf(1)
}

// plan returns the answer-set cap and the seed bound the fan-out runs
// the query with. A range query is the k-NN search with no cap on k,
// seeded at its radius: the answer set never fills, so the limit stays
// at the radius. The radius does not go through seedLimit, where 0 means
// unbounded.
func (q Query) plan() (k int, seed float64) {
	if q.Kind == KindRange {
		return math.MaxInt, q.Radius
	}
	return q.K, q.seedLimit()
}

// cacheable reports whether the answer may be served from / stored into
// the LRU cache: only plain exact k-NN — a Limit can shrink the answer
// set, a MaxEvals budget can truncate it, and a prefiltered answer can
// miss a neighbour the sketch never admitted, so none of them match the
// cache key's "exact KNN(q, k)" meaning.
func (q Query) cacheable() bool {
	return q.Kind == KindKNN && q.seedLimit() == math.Inf(1) && q.MaxEvals == 0 && !q.Prefilter
}

// Answer is the result of one executed Query.
type Answer struct {
	// Results is the answer set, sorted by (distance, ID).
	Results []backend.Result
	// Stats is this query's kernel instrumentation, populated only when
	// the Query set WithStats (and zero for cache hits — the index was
	// never touched).
	Stats backend.Stats
	// Cached reports that the answer came from the LRU result cache.
	Cached bool
	// Truncated reports that the MaxEvals budget ran out: Results holds
	// the neighbours confirmed so far and is no longer guaranteed exact.
	// Unlike an exact answer it is not a function of the corpus and the
	// query alone: under a concurrent multi-shard fan-out it depends on
	// which shard spent the shared budget first.
	Truncated bool
	// Degraded reports a partial cluster answer: at least one shard
	// group's nodes were all unreachable, so Results covers the reachable
	// shards only. Always false for single-process engines — only the
	// cluster router (internal/cluster) sets it.
	Degraded bool
}
