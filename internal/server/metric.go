package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"trajmatch/internal/backend"
	"trajmatch/internal/metrics"
	"trajmatch/internal/traj"
)

// ErrUnknownMetric reports a Query.Metric outside metrics.Names — almost
// certainly a typo. The HTTP layer answers 400 with code
// "unknown_metric" listing the known names.
var ErrUnknownMetric = errors.New("unknown metric")

// ErrMetricNotLoaded reports a Query.Metric that is known but was not
// booted into this engine (trajserve -metrics selects the set). The
// HTTP layer answers 400 with code "metric_not_loaded" listing the
// loaded names.
var ErrMetricNotLoaded = errors.New("metric not loaded")

// ErrNotSupported re-exports backend.ErrNotSupported: the loaded backend
// lacks the capability the operation needs (mutation on a static DTW/EDR
// index, sub-trajectory search on a metric without one). The HTTP layer
// answers 501 with code "not_implemented".
var ErrNotSupported = backend.ErrNotSupported

// metricSet is one metric's slice of the engine: the hash-partitioned
// shards of one Backend implementation plus the metric's traffic and
// kernel counters (Engine.Stats sums them over the sets). Every loaded
// set shards the same corpus with the same placement function, so ID
// routing is metric-independent.
type metricSet struct {
	name   string
	shards []*shard

	// queries and cacheHits are atomics so a cache hit costs two adds
	// and no lock.
	queries   atomic.Uint64
	cacheHits atomic.Uint64

	mu   sync.Mutex
	work backend.Stats // summed over the set's uncached queries
}

// add folds one query's (or one batch's) work counters into the set.
func (ms *metricSet) add(st backend.Stats) {
	ms.mu.Lock()
	ms.work.Add(st)
	ms.mu.Unlock()
}

// stats returns the set's counters.
func (ms *metricSet) stats() backend.Stats {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.work
}

// capabilities reports which optional interfaces the set's backend
// implements, for the stats endpoint's capability matrix. All shards of
// a set share one implementation, so shard 0 speaks for the set.
// prefilterEnabled says whether the engine carries sketch indexes —
// "prefilter" is advertised only when both sides of the capability are
// present (an engine-owned sketch and a backend that can verify within
// a candidate set).
func (ms *metricSet) capabilities(prefilterEnabled bool) []string {
	caps := []string{"knn", "range"}
	be := ms.shards[0].be
	if _, ok := be.(backend.SubSearcher); ok {
		caps = append(caps, "subknn")
	}
	if _, ok := be.(backend.Mutable); ok {
		caps = append(caps, "mutate")
	}
	if _, ok := treeOf(be); ok {
		caps = append(caps, "persist")
	}
	if _, ok := be.(backend.CandidateSearcher); ok && prefilterEnabled {
		caps = append(caps, "prefilter")
	}
	return caps
}

// mutable reports whether the set's backend supports in-place updates.
func (ms *metricSet) mutable() bool {
	_, ok := ms.shards[0].be.(backend.Mutable)
	return ok
}

// resolveMetric routes a Query.Metric to its loaded metric set. An
// empty name means the engine's default metric — the first in boot
// order, which is EDwP in every standard boot (NewEngineFromDB, the
// default -metrics list). Unknown and known-but-unloaded names fail
// with the two distinct error values the HTTP layer maps to their
// codes.
func (e *Engine) resolveMetric(name string) (*metricSet, error) {
	if name == "" {
		return e.sets[0], nil
	}
	if ms, ok := e.byName[name]; ok {
		return ms, nil
	}
	if metrics.Known(name) {
		return nil, fmt.Errorf("%w: %q (loaded: %s)", ErrMetricNotLoaded, name, strings.Join(e.Metrics(), ", "))
	}
	return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownMetric, name, strings.Join(metrics.Names(), ", "))
}

// Metrics returns the loaded metric names in boot order; the first is
// the default an empty Query.Metric resolves to.
func (e *Engine) Metrics() []string {
	out := make([]string, len(e.sets))
	for i, ms := range e.sets {
		out[i] = ms.name
	}
	return out
}

// buildMetricSets hash-partitions db once and builds every spec's shards
// over the same partition, shard-parallel per set. Placement is a pure
// function of (ID, global shard count), shared by all sets, so Lookup
// and Delete route identically whatever the metric; a partitioned
// placement silently drops foreign trajectories, leaving each local
// shard holding exactly what the matching global shard of a full engine
// would hold. A spec named in loaded (a snapshot's persisted shards,
// already holding db under the same placement) adopts those shards
// instead of building.
func buildMetricSets(db []*traj.Trajectory, specs []backend.Spec, place placement, opt Options, loaded map[string][]*shard) ([]*metricSet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("server: no metric backends specified")
	}
	groups := partitionOwned(db, place, func(t *traj.Trajectory) int { return t.ID })
	sets := make([]*metricSet, 0, len(specs))
	seen := map[string]bool{}
	for _, spec := range specs {
		if seen[spec.Name] {
			return nil, fmt.Errorf("server: duplicate metric %q", spec.Name)
		}
		seen[spec.Name] = true
		shards, ok := loaded[spec.Name]
		if !ok {
			if spec.Name == "" || spec.Build == nil {
				return nil, fmt.Errorf("server: invalid backend spec %+v", spec)
			}
			var err error
			if shards, err = buildSpecShards(groups, spec, opt); err != nil {
				return nil, err
			}
		}
		sets = append(sets, &metricSet{name: spec.Name, shards: shards})
	}
	return sets, nil
}
