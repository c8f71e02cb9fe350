package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"trajmatch"
	"trajmatch/internal/core"
)

// dataSeed generates every trajectory the benchmark uses — corpus, queries,
// tracks — and seeds the index build, whatever -seed is. The data is part
// of the benchmark's definition, like a data file would be: across corpus
// seeds the same workload's k-NN p50 ranges from 19.8 to 24.4 ms (the tree
// comes out better or worse) and its subknn p50 from 12.1 to 19.8 ms, which
// is more than any regression bound. -seed decides what a run does with the
// data: the order of requests and tracks and the Zipf draws.
const dataSeed = 1

// genTaxi generates n synthetic city trips from dataSeed+offset; distinct
// offsets give disjoint sets.
func genTaxi(n int, offset int64) []*trajmatch.Trajectory {
	cfg := trajmatch.DefaultTaxiConfig(n)
	cfg.Seed = dataSeed + offset
	return trajmatch.GenerateTaxi(cfg)
}

// indexOptions are the build options every workload uses.
func indexOptions() trajmatch.IndexOptions {
	return trajmatch.IndexOptions{Parallel: true, Seed: dataSeed}
}

// shuffled returns a seeded permutation of v.
func shuffled[T any](v []T, seed int64) []T {
	out := append([]T(nil), v...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// searchSequence is the fixed request sequence of cold-search and
// cluster-hop: knn, range and subknn requests over distinct queries in a
// seeded shuffle. Without subknn the remaining requests keep their
// relative order, so cluster-hop sends cold-search's requests.
func searchSequence(sz sizes, seed int64, withSub bool) []request {
	qs := genTaxi(sz.knn+sz.rng+sz.sub, querySeedOffset)
	reqs := make([]request, 0, len(qs))
	for i, q := range qs {
		kind := "knn"
		if i >= sz.knn+sz.rng {
			kind = "subknn"
		} else if i >= sz.knn {
			kind = "range"
		}
		reqs = append(reqs, searchRequest(kind, q))
	}
	reqs = shuffled(reqs, seed)
	if withSub {
		return reqs
	}
	kept := reqs[:0]
	for _, rq := range reqs {
		if rq.kind != "subknn" {
			kept = append(kept, rq)
		}
	}
	return kept
}

// bruteDistances evaluates the full EDwP of q against every trajectory of
// db with no index and no early abandoning: the oracle answers are
// compared with.
func bruteDistances(q *trajmatch.Trajectory, db []*trajmatch.Trajectory) []float64 {
	d := make([]float64, len(db))
	for i, t := range db {
		d[i] = core.AvgDistance(q, t)
	}
	return d
}

// ranked returns db's indices ordered by (distance, ID), the order every
// answer list uses.
func ranked(d []float64, db []*trajmatch.Trajectory) []int {
	order := make([]int, len(db))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if d[i] != d[j] {
			return d[i] < d[j]
		}
		return db[i].ID < db[j].ID
	})
	return order
}

// expected returns the brute-force answer of a knn or range request.
func expected(kind string, d []float64, db []*trajmatch.Trajectory) []neighbor {
	var out []neighbor
	for _, i := range ranked(d, db) {
		if (kind == "range" && d[i] > rangeRadius) || (kind != "range" && len(out) == knnK) {
			break
		}
		out = append(out, neighbor{ID: db[i].ID, Dist: d[i]})
	}
	return out
}

func sameNeighbors(got, want []neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9*math.Max(1, want[i].Dist) {
			return false
		}
	}
	return true
}

// checkAgainstBrute compares a seeded sample of the answered knn and
// range requests (sz.check of each; a prefiltered request is not exact
// and is skipped) with a brute-force scan of db, on all cores. It returns
// the distances it computed, keyed by request index, for the traced run's
// kernel sampling.
func (r *run) checkAgainstBrute(reqs []request, ans *answers, db []*trajmatch.Trajectory) map[int][]float64 {
	left := map[string]int{"knn": r.sz.check, "range": r.sz.check}
	var sample []int
	for _, idx := range rand.New(rand.NewSource(r.cfg.seed + 1)).Perm(len(reqs)) {
		if _, ok := ans.results(idx); ok && left[reqs[idx].kind] > 0 {
			left[reqs[idx].kind]--
			sample = append(sample, idx)
		}
	}
	sort.Ints(sample)
	dists := make([][]float64, len(sample))
	var wg sync.WaitGroup
	for i, idx := range sample {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			dists[i] = bruteDistances(reqs[idx].q, db)
		}(i, idx)
	}
	wg.Wait()
	out := make(map[int][]float64, len(sample))
	for i, idx := range sample {
		got, _ := ans.results(idx)
		want := expected(reqs[idx].kind, dists[i], db)
		r.expect(sameNeighbors(got, want), "%s request %d: answer %v differs from brute force %v", reqs[idx].kind, idx, got, want)
		out[idx] = dists[i]
	}
	r.checked = len(sample) > 0
	return out
}
