// Package metrics is the single entry point for metric names: the one
// list of known names (Names, Known) and the resolution of a name into a
// buildable backend spec (Spec) — shared by the serving stack (trajserve
// -metrics edwp,dtw,edr) and the offline eval harness, so the index a
// figure benchmarks is byte-for-byte the index the server answers with.
//
// Adding a metric needs no engine change. Build the index — a lower
// bound plus an early-abandoning kernel through backend.NewFlat, or a
// full backend.Backend — then add its name to names and a case to Spec
// here (fixing any whole-database parameters in the spec's closure
// before sharding). The optional capabilities — backend.SubSearcher,
// backend.Mutable, backend.CandidateSearcher (the sketch-prefilter
// verification hook) — are interface opt-ins on the index type; the
// engine discovers them by assertion, so a new metric gains
// sub-trajectory search, mutation or prefiltered k-NN the moment it
// implements the interface.
package metrics

import (
	"fmt"
	"slices"
	"strings"

	"trajmatch/internal/backend"
	"trajmatch/internal/dtwindex"
	"trajmatch/internal/edrindex"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// names is every metric this build knows, sorted.
var names = []string{dtwindex.MetricName, edrindex.MetricName, trajtree.MetricName}

// Names returns the sorted metric names this build knows.
func Names() []string { return slices.Clone(names) }

// Known reports whether name is a metric this build knows. The serving
// stack uses it to tell a mistyped metric ("unknown_metric") from a
// known one that was not booted ("metric_not_loaded").
func Known(name string) bool {
	_, ok := slices.BinarySearch(names, name)
	return ok
}

// Config carries the per-metric build parameters a deployment fixes
// once for the whole corpus.
type Config struct {
	// Tree configures the EDwP TrajTree build.
	Tree trajtree.Options
	// EDREps is the EDR matching threshold ε; 0 derives it from the
	// database (edrindex.DefaultEps — half the median segment length).
	EDREps float64
}

// Spec resolves one known metric name to its buildable spec. The
// db is the full corpus the engine will shard: whole-database parameters
// (EDR's ε) are derived from it here, before any partitioning, so every
// shard agrees on them.
func Spec(name string, db []*traj.Trajectory, cfg Config) (backend.Spec, error) {
	switch name {
	case trajtree.MetricName:
		return trajtree.BackendSpec(cfg.Tree), nil
	case dtwindex.MetricName:
		return dtwindex.BackendSpec(), nil
	case edrindex.MetricName:
		eps := cfg.EDREps
		if eps <= 0 {
			eps = edrindex.DefaultEps(db)
		}
		return edrindex.BackendSpec(eps), nil
	default:
		return backend.Spec{}, fmt.Errorf("unknown metric %q (registered: %s)",
			name, strings.Join(names, ", "))
	}
}

// Specs resolves a list of metric names in order (the first becomes the
// engine's default metric).
func Specs(names []string, db []*traj.Trajectory, cfg Config) ([]backend.Spec, error) {
	specs := make([]backend.Spec, 0, len(names))
	for _, n := range names {
		s, err := Spec(n, db, cfg)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}
