package eval

import (
	"fmt"
	"math/rand"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/baseline"
	"trajmatch/internal/edrindex"
	"trajmatch/internal/metrics"
	"trajmatch/internal/stats"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// Series is one labelled curve of an experiment figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Scale sizes an experiment run. The paper's full scale (42k trips, 100
// repetitions) is reachable by raising these knobs; the defaults keep every
// figure reproducible in seconds on a laptop while preserving the reported
// shapes.
type Scale struct {
	// TaxiN is the trip count for the Beijing-style experiments.
	TaxiN int
	// ASLInstances is the per-class recording count for Fig. 5(a).
	ASLInstances int
	// Queries is the number of query trajectories averaged per point.
	Queries int
	// Folds is the cross-validation fold count for classification.
	Folds int
	// Seed drives all randomness.
	Seed int64
}

// DefaultScale returns the laptop-scale configuration.
func DefaultScale() Scale {
	return Scale{TaxiN: 300, ASLInstances: 10, Queries: 5, Folds: 5, Seed: 1}
}

// epsFor returns the matching threshold the threshold-based metrics use on
// a database: following common practice (and the EDR paper), a quarter of
// the median segment length... scaled to the data rather than hand-tuned.
func epsFor(db []*traj.Trajectory) float64 {
	if m := traj.MedianSegmentLength(db); m > 0 {
		return m * 0.5
	}
	return 1
}

// robustnessMetrics is the comparison set of Figs. 5(b)–(i): EDwP, EDR,
// EDR-I (EDR over interpolated data, handled by the caller via resampling),
// LCSS and MA.
func robustnessMetrics(eps float64) []baseline.Metric {
	return []baseline.Metric{
		baseline.EDwP{},
		baseline.EDR{Eps: eps},
		baseline.LCSS{Eps: eps},
		baseline.DefaultMA(eps),
	}
}

// Fig5a runs the classification experiment: accuracy of each metric as the
// number of ASL classes grows. classCounts defaults to the paper's
// 5..25 sweep when nil.
func Fig5a(sc Scale, classCounts []int) []Series {
	if classCounts == nil {
		classCounts = []int{5, 10, 15, 20, 25}
	}
	cfg := synth.DefaultASL()
	cfg.Instances = sc.ASLInstances
	cfg.Seed = sc.Seed
	full := synth.ASL(cfg)
	eps := epsFor(full)
	metrics := []baseline.Metric{
		baseline.EDwP{},
		baseline.EDR{Eps: eps},
		baseline.LCSS{Eps: eps},
		baseline.DISSIM{},
		baseline.DefaultMA(eps),
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	out := make([]Series, len(metrics))
	for mi, m := range metrics {
		out[mi].Name = m.Name()
		for _, c := range classCounts {
			set := synth.PickClasses(cfg.NumClasses, c, rand.New(rand.NewSource(sc.Seed+int64(c))))
			db := synth.Classes(full, set)
			acc := Classification(db, m, sc.Folds, rng)
			out[mi].X = append(out[mi].X, float64(c))
			out[mi].Y = append(out[mi].Y, acc)
		}
	}
	return out
}

// NoiseKind selects which Section V-C injection a robustness sweep uses.
type NoiseKind int

// Noise kinds for RobustnessVsK / RobustnessVsN.
const (
	NoiseInter NoiseKind = iota
	NoiseIntra
	NoisePhase
	NoisePerturb
)

// makeNoisy returns the (d1, d2) pair for a noise kind at level pct.
func makeNoisy(db []*traj.Trajectory, kind NoiseKind, pct float64, seed int64) (d1, d2 []*traj.Trajectory) {
	switch kind {
	case NoiseInter:
		return db, synth.Inter(db, pct, seed)
	case NoiseIntra:
		return db, synth.Intra(db, pct, seed)
	case NoisePhase:
		return synth.Phase(db, pct, seed)
	case NoisePerturb:
		r := synth.PerturbRadius(db, 30)
		return db, synth.Perturb(db, pct, r, seed)
	}
	return db, db
}

// RobustnessVsK reproduces the left plot of each Fig. 5 robustness pair:
// Spearman correlation against k at a fixed noise level, for EDwP, EDR,
// EDR-I, LCSS and MA.
func RobustnessVsK(sc Scale, kind NoiseKind, pct float64, ks []int) []Series {
	if ks == nil {
		ks = []int{5, 10, 20, 30, 40, 50}
	}
	db := synth.Taxi(synth.DefaultTaxi(sc.TaxiN))
	d1, d2 := makeNoisy(db, kind, pct, sc.Seed)
	return robustnessSweep(sc, d1, d2, ks, nil)
}

// RobustnessVsN reproduces the right plot of each pair: correlation against
// the noise percentage at k = 10.
func RobustnessVsN(sc Scale, kind NoiseKind, pcts []float64) []Series {
	if pcts == nil {
		pcts = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	}
	db := synth.Taxi(synth.DefaultTaxi(sc.TaxiN))
	var out []Series
	for pi, pct := range pcts {
		d1, d2 := makeNoisy(db, kind, pct, sc.Seed)
		point := robustnessSweep(sc, d1, d2, []int{10}, nil)
		if pi == 0 {
			out = make([]Series, len(point))
			for i := range point {
				out[i].Name = point[i].Name
			}
		}
		for i := range point {
			out[i].X = append(out[i].X, pct*100)
			out[i].Y = append(out[i].Y, point[i].Y[0])
		}
	}
	return out
}

// robustnessSweep computes mean rank robustness per metric per k. EDR-I is
// realised by uniformly re-interpolating both databases before running EDR.
func robustnessSweep(sc Scale, d1, d2 []*traj.Trajectory, ks []int, queries []int) []Series {
	if queries == nil {
		rng := rand.New(rand.NewSource(sc.Seed + 17))
		queries = make([]int, sc.Queries)
		for i := range queries {
			queries[i] = rng.Intn(len(d1))
		}
	}
	eps := epsFor(d1)
	metrics := robustnessMetrics(eps)
	// EDR-I: global uniform re-interpolation (Section V-C), so that two
	// samplings of the same shape produce near-identical point sequences.
	spacing := traj.MedianSegmentLength(d1)
	i1 := traj.ResampleUniformAll(d1, spacing)
	i2 := traj.ResampleUniformAll(d2, spacing)

	out := make([]Series, 0, len(metrics)+1)
	for _, m := range metrics {
		s := Series{Name: m.Name()}
		for _, k := range ks {
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, MeanRankRobustness(d1, d2, m, queries, k))
		}
		out = append(out, s)
	}
	edrI := Series{Name: "EDR-I"}
	m := baseline.EDR{Eps: eps}
	for _, k := range ks {
		edrI.X = append(edrI.X, float64(k))
		edrI.Y = append(edrI.Y, MeanRankRobustness(i1, i2, m, queries, k))
	}
	out = append(out, edrI)
	return out
}

// QueryVsK reproduces Fig. 5(j): mean k-NN seconds of every competitor
// against k, over sc.Queries database trips cloned as queries. ks
// defaults to the paper's 5..50 sweep when nil.
func QueryVsK(sc Scale, ks []int) ([]Series, error) {
	if ks == nil {
		ks = []int{5, 10, 20, 30, 40, 50}
	}
	db := synth.Taxi(synth.DefaultTaxi(sc.TaxiN))
	queries := sampleQueries(db, sc.Queries, rand.New(rand.NewSource(sc.Seed+41)))
	return queryCompetitors(db, queries, ks, competitorOptions(sc))
}

// QueryVsDBSize reproduces Fig. 6(a): mean 10-NN seconds of every
// competitor against database size. sizes defaults to a quarter, a half
// and all of sc.TaxiN when nil.
func QueryVsDBSize(sc Scale, sizes []int) ([]Series, error) {
	if sizes == nil {
		sizes = []int{sc.TaxiN / 4, sc.TaxiN / 2, sc.TaxiN}
	}
	var out []Series
	for _, n := range sizes {
		db := synth.Taxi(synth.DefaultTaxi(n))
		queries := sampleQueries(db, sc.Queries, rand.New(rand.NewSource(sc.Seed+43)))
		point, err := queryCompetitors(db, queries, []int{10}, competitorOptions(sc))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = make([]Series, len(point))
			for i := range point {
				out[i].Name = point[i].Name
			}
		}
		for i := range point {
			out[i].X = append(out[i].X, float64(n))
			out[i].Y = append(out[i].Y, point[i].Y[0])
		}
	}
	return out, nil
}

// competitorOptions is the TrajTree configuration of the query-latency
// figures.
func competitorOptions(sc Scale) trajtree.Options {
	return trajtree.Options{Seed: sc.Seed, PivotCandidates: 32, Parallel: true}
}

// queryCompetitors measures Figs. 5(j)/6(a): mean k-NN latency (seconds)
// of TrajTree, EDwP sequential scan, the EDR index and an MA sequential
// scan, against k (with xs = ks) or against database size. Following
// Section V-D, the EDR competitor runs over the uniformly interpolated
// database (EDR-I), since that is the configuration whose robustness is
// closest to EDwP's.
//
// The indexed competitors are built through package metrics
// (metrics.Spec) — the same entry point trajserve boots from — so the
// index a figure benchmarks is byte-for-byte the index the serving
// stack answers with.
func queryCompetitors(db []*traj.Trajectory, queries []*traj.Trajectory, ks []int, opt trajtree.Options) ([]Series, error) {
	treeSpec, err := metrics.Spec(trajtree.MetricName, db, metrics.Config{Tree: opt})
	if err != nil {
		return nil, err
	}
	treeBe, err := treeSpec.Build(db)
	if err != nil {
		return nil, err
	}
	tree := treeBe.(*trajtree.Tree) // the EDwP scan competitor reads its members
	eps := epsFor(db)
	// The paper interpolates the EDR competitor's data to (near) the
	// maximum observed sampling density — the costly preprocessing
	// Section II warns about, and the reason indexed EDR loses to TrajTree
	// in Fig. 5(j) despite EDR's cheaper per-pair DP.
	spacing := traj.PercentileSegmentLength(db, 0.01)
	interp := traj.ResampleUniformAll(db, spacing)
	edrSpec, err := metrics.Spec(edrindex.MetricName, interp, metrics.Config{EDREps: eps})
	if err != nil {
		return nil, err
	}
	edrIx, err := edrSpec.Build(interp)
	if err != nil {
		return nil, err
	}
	iq := make(map[*traj.Trajectory]*traj.Trajectory, len(queries))
	for _, q := range queries {
		iq[q] = traj.ResampleUniform(q, spacing)
	}
	ma := baseline.DefaultMA(eps)

	series := []Series{
		{Name: "TrajTree"},
		{Name: "EDwP Sequential Scan"},
		{Name: "EDR"},
		{Name: "MA"},
	}
	for _, k := range ks {
		var tTree, tScan, tEDR, tMA time.Duration
		for _, q := range queries {
			t0 := time.Now()
			tree.SearchKNN(q, k, nil, nil)
			tTree += time.Since(t0)

			t0 = time.Now()
			ScanKNN(tree, q, k)
			tScan += time.Since(t0)

			t0 = time.Now()
			edrIx.SearchKNN(iq[q], k, nil, nil)
			tEDR += time.Since(t0)

			t0 = time.Now()
			maScan(db, ma, q, k)
			tMA += time.Since(t0)
		}
		n := float64(len(queries))
		for i, d := range []time.Duration{tTree, tScan, tEDR, tMA} {
			series[i].X = append(series[i].X, float64(k))
			series[i].Y = append(series[i].Y, d.Seconds()/n)
		}
	}
	return series, nil
}

// ScanKNN is the "EDwP Sequential Scan" competitor of Figs. 5(j) and
// 6(a): every member of tree in ID order through backend.ScanKNN, with no
// lower bound to order or prune the scan, each evaluation bounded by the
// running k-th best under the tree's own distance.
func ScanKNN(tree *trajtree.Tree, q *traj.Trajectory, k int) ([]backend.Result, backend.Stats) {
	members := tree.All()
	cands := make([]backend.Cand, len(members))
	for i, m := range members {
		cands[i] = backend.Cand{T: m}
	}
	backend.SortCands(cands)
	var st backend.Stats
	res, _, _ := backend.ScanKNN(cands, k, nil, nil, &st, func(t *traj.Trajectory, limit float64) (float64, bool) {
		return tree.DistanceBetween(q, t, limit, nil)
	})
	return res, st
}

// maScan is a serial sequential scan, matching the single-threaded
// execution of the other competitors in this comparison. Note that this
// re-implementation of MA runs one assignment DP per direction, where the
// authors' implementation evaluates five auxiliary quadratic functions —
// their Fig. 5(j) MA curve therefore sits higher relative to the rest.
func maScan(db []*traj.Trajectory, m baseline.MA, q *traj.Trajectory, k int) {
	ds := make([]float64, len(db))
	for i := range db {
		ds[i] = m.Dist(q, db[i])
	}
	_ = ds
}

// UBFactorVsVPs reproduces Fig. 6(c): the UB-Factor (Eq. 15) of the
// VP-based upper bound over the whole database as the number of vantage
// points grows, against the random-selection baseline.
func UBFactorVsVPs(sc Scale, vpCounts []int) []Series {
	if vpCounts == nil {
		vpCounts = []int{10, 20, 40, 80, 160}
	}
	db := synth.Taxi(synth.DefaultTaxi(sc.TaxiN))
	rng := rand.New(rand.NewSource(sc.Seed + 23))
	queries := sampleQueries(db, sc.Queries, rng)
	vpSeries := Series{Name: "TrajTree VPs"}
	rndSeries := Series{Name: "Random"}
	for _, nv := range vpCounts {
		vp, rnd := ubFactors(db, newVPTable(db, nv, rand.New(rand.NewSource(sc.Seed))), queries, 10, rng)
		vpSeries.X = append(vpSeries.X, float64(nv))
		vpSeries.Y = append(vpSeries.Y, vp)
		rndSeries.X = append(rndSeries.X, float64(nv))
		rndSeries.Y = append(rndSeries.Y, rnd)
	}
	return []Series{vpSeries, rndSeries}
}

// UBFactorVsK reproduces Fig. 6(d): UB-Factor against k at a fixed VP
// count, with the random baseline.
func UBFactorVsK(sc Scale, ks []int, numVPs int) []Series {
	if ks == nil {
		ks = []int{5, 10, 25, 50, 100}
	}
	db := synth.Taxi(synth.DefaultTaxi(sc.TaxiN))
	rng := rand.New(rand.NewSource(sc.Seed + 29))
	queries := sampleQueries(db, sc.Queries, rng)
	tab := newVPTable(db, numVPs, rand.New(rand.NewSource(sc.Seed)))
	vpSeries := Series{Name: "TrajTree VPs"}
	rndSeries := Series{Name: "Random"}
	for _, k := range ks {
		vp, rnd := ubFactors(db, tab, queries, k, rng)
		vpSeries.X = append(vpSeries.X, float64(k))
		vpSeries.Y = append(vpSeries.Y, vp)
		rndSeries.X = append(rndSeries.X, float64(k))
		rndSeries.Y = append(rndSeries.Y, rnd)
	}
	return []Series{vpSeries, rndSeries}
}

// ubFactors returns the mean UB-Factor (Eq. 15) under EDwP over queries
// at k of tab's upper bound and of the random baseline.
func ubFactors(db []*traj.Trajectory, tab vpTable, queries []*traj.Trajectory, k int, rng *rand.Rand) (vp, random float64) {
	m := baseline.EDwP{}
	var ubf, rnd []float64
	for _, q := range queries {
		if kth := KthNNDistance(db, m, q, k); kth > 0 {
			ubf = append(ubf, tab.upperBound(db, m, q, k)/kth)
		}
		rnd = append(rnd, RandomUBFactor(db, m, q, k, rng))
	}
	return stats.Mean(ubf), stats.Mean(rnd)
}

// BuildTimes reproduces Figs. 6(e)–(f): index construction seconds against
// database size (thetas nil) or against θ (sizes nil).
func BuildTimes(sc Scale, sizes []int, thetas []float64) ([]Series, error) {
	switch {
	case thetas == nil:
		if sizes == nil {
			sizes = []int{100, 200, 400, 800}
		}
		s := Series{Name: "TrajTree build"}
		for _, n := range sizes {
			db := synth.Taxi(synth.DefaultTaxi(n))
			t0 := time.Now()
			if _, err := trajtree.New(db, trajtree.Options{Seed: sc.Seed, PivotCandidates: 32}); err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, time.Since(t0).Seconds())
		}
		return []Series{s}, nil
	default:
		db := synth.Taxi(synth.DefaultTaxi(sc.TaxiN))
		s := Series{Name: "TrajTree build"}
		for _, th := range thetas {
			t0 := time.Now()
			if _, err := trajtree.New(db, trajtree.Options{Theta: th, Seed: sc.Seed, PivotCandidates: 32}); err != nil {
				return nil, err
			}
			s.X = append(s.X, th)
			s.Y = append(s.Y, time.Since(t0).Seconds())
		}
		return []Series{s}, nil
	}
}

// QueryVsTheta reproduces Fig. 6(b): mean query latency against θ.
func QueryVsTheta(sc Scale, thetas []float64, k int) ([]Series, error) {
	if thetas == nil {
		thetas = []float64{0.2, 0.4, 0.6, 0.8, 0.95}
	}
	db := synth.Taxi(synth.DefaultTaxi(sc.TaxiN))
	rng := rand.New(rand.NewSource(sc.Seed + 31))
	queries := sampleQueries(db, sc.Queries, rng)
	s := Series{Name: "TrajTree query"}
	for _, th := range thetas {
		tree, err := trajtree.New(db, trajtree.Options{Theta: th, Seed: sc.Seed, PivotCandidates: 32})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, q := range queries {
			tree.SearchKNN(q, k, nil, nil)
		}
		s.X = append(s.X, th)
		s.Y = append(s.Y, time.Since(t0).Seconds()/float64(len(queries)))
	}
	return []Series{s}, nil
}

// sampleQueries clones n random database trajectories with fresh IDs.
func sampleQueries(db []*traj.Trajectory, n int, rng *rand.Rand) []*traj.Trajectory {
	out := make([]*traj.Trajectory, n)
	for i := range out {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 1_000_000 + i
		out[i] = q
	}
	return out
}

// FormatSeries renders series as an aligned text table, one row per X.
func FormatSeries(title, xlabel string, series []Series) string {
	if len(series) == 0 {
		return title + ": (no data)\n"
	}
	out := title + "\n"
	out += fmt.Sprintf("%-10s", xlabel)
	for _, s := range series {
		out += fmt.Sprintf("%14s", s.Name)
	}
	out += "\n"
	for i := range series[0].X {
		out += fmt.Sprintf("%-10.4g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				out += fmt.Sprintf("%14.6g", s.Y[i])
			} else {
				out += fmt.Sprintf("%14s", "-")
			}
		}
		out += "\n"
	}
	return out
}
