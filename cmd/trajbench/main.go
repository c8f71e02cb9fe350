// Command trajbench regenerates the paper's evaluation artifacts: every
// figure of Section V as a printed series table, at a configurable scale.
//
// Usage:
//
//	trajbench -exp all                 # every figure at the default scale
//	trajbench -exp 5a,5b,6c            # selected figures
//	trajbench -exp 5j -taxi 2000 -q 20 # larger run for the timing figures
//
// Absolute numbers depend on this machine; the reproduction targets are the
// shapes the paper reports.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"trajmatch"
	"trajmatch/internal/eval"
	"trajmatch/internal/trajtree"
)

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiment ids: 5a,5b,...,6f or all")
		taxiN   = flag.Int("taxi", 300, "taxi database size")
		aslInst = flag.Int("asl", 10, "ASL instances per class")
		queries = flag.Int("q", 5, "queries averaged per data point")
		folds   = flag.Int("folds", 5, "cross-validation folds")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	sc := eval.Scale{TaxiN: *taxiN, ASLInstances: *aslInst, Queries: *queries, Folds: *folds, Seed: *seed}
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(id string) bool { return all || want[id] }

	if run("table1") {
		printTable1()
	}
	if run("5a") {
		print5a(sc)
	}
	noise := []struct {
		idK, idN, title string
		kind            eval.NoiseKind
		pct             float64
	}{
		{"5b", "5c", "inter-trajectory sampling variance", eval.NoiseInter, 0.05},
		{"5d", "5e", "intra-trajectory sampling variance", eval.NoiseIntra, 0.05},
		{"5f", "5g", "phase variation", eval.NoisePhase, 0.05},
		{"5h", "5i", "threshold dependency (perturbation)", eval.NoisePerturb, 0.10},
	}
	for _, nz := range noise {
		if run(nz.idK) {
			ss := eval.RobustnessVsK(sc, nz.kind, nz.pct, nil)
			fmt.Print(eval.FormatSeries(
				fmt.Sprintf("Fig. %s — Spearman correlation vs k, %s (n=%.0f%%)", nz.idK, nz.title, nz.pct*100),
				"k", ss))
			fmt.Println()
		}
		if run(nz.idN) {
			ss := eval.RobustnessVsN(sc, nz.kind, nil)
			fmt.Print(eval.FormatSeries(
				fmt.Sprintf("Fig. %s — Spearman correlation vs noise %%, %s (k=10)", nz.idN, nz.title),
				"noise%", ss))
			fmt.Println()
		}
	}
	if run("5j") {
		print5j(sc)
	}
	if run("6a") {
		print6a(sc)
	}
	if run("6b") {
		ss, err := eval.QueryVsTheta(sc, nil, 10)
		exitOn(err)
		fmt.Print(eval.FormatSeries("Fig. 6b — query seconds vs θ (k=10)", "theta", ss))
		fmt.Println()
	}
	if run("6c") {
		ss := eval.UBFactorVsVPs(sc, nil)
		fmt.Print(eval.FormatSeries("Fig. 6c — UB-Factor vs number of VPs (k=10)", "VPs", ss))
		fmt.Println()
	}
	if run("6d") {
		ss := eval.UBFactorVsK(sc, nil, 80)
		fmt.Print(eval.FormatSeries("Fig. 6d — UB-Factor vs k (80 VPs)", "k", ss))
		fmt.Println()
	}
	if run("6e") {
		ss, err := eval.BuildTimes(sc, nil, nil)
		exitOn(err)
		fmt.Print(eval.FormatSeries("Fig. 6e — build seconds vs database size", "n", ss))
		fmt.Println()
	}
	if run("6f") {
		ss, err := eval.BuildTimes(sc, nil, []float64{0.2, 0.4, 0.6, 0.8, 0.95})
		exitOn(err)
		fmt.Print(eval.FormatSeries("Fig. 6f — build seconds vs θ", "theta", ss))
		fmt.Println()
	}
}

// printTable1 prints the Tables I/II robustness matrix by running the same
// equivalent-vs-control scenarios the test suite asserts (tablei_test.go).
func printTable1() {
	type scen struct {
		name           string
		a1, a2, b1, b2 *trajmatch.Trajectory
	}
	mk := func(xy ...[]float64) []*trajmatch.Trajectory {
		out := make([]*trajmatch.Trajectory, len(xy))
		for i, c := range xy {
			out[i] = trajmatch.FromXY(i+1, c...)
		}
		return out
	}
	// Dwell time shift: same contour, one trajectory pauses.
	dwell := mk(
		[]float64{-20, 0, -10, 0, 0, 0, 0, 0, 0, 0, 10, 0, 20, 0},
		[]float64{-20, 0, -10, 0, 0, 0, 10, 0, 20, 0},
		[]float64{-20, 0, -10, 0, 0, 0, 0, 0, 0, 0, 10, 0, 20, 0},
		[]float64{-20, 10, -10, 10, 0, 10, 0, 10, 0, 10, 10, 10, 20, 10},
	)
	// Inter-sampling: sparse vs dense same contour; control within ε.
	inter := mk(
		[]float64{0, 0, 0, 33, 0, 66, 0, 100},
		[]float64{0, 0, 0, 10, 0, 20, 0, 30, 0, 40, 0, 50, 0, 60, 0, 70, 0, 80, 0, 90, 0, 100},
		[]float64{0, 0, 0, 10, 0, 20, 0, 30, 0, 40, 0, 50, 0, 60, 0, 70, 0, 80, 0, 90, 0, 100},
		[]float64{1.5, 0, 1.5, 10, 1.5, 20, 1.5, 30, 1.5, 40, 1.5, 50, 1.5, 60, 1.5, 70, 1.5, 80, 1.5, 90, 1.5, 100},
	)
	// Phase: offset sampling of the same contour; control parallel far away.
	phase := mk(
		[]float64{0, 0, 0, 10, 0, 20, 0, 30, 0, 40, 0, 50, 0, 60, 0, 70, 0, 80, 0, 90, 0, 100},
		[]float64{0, 4.9, 0, 14.9, 0, 24.9, 0, 34.9, 0, 44.9, 0, 54.9, 0, 64.9, 0, 74.9, 0, 84.9, 0, 94.9, 0, 104.9},
		[]float64{0, 0, 0, 10, 0, 20, 0, 30, 0, 40, 0, 50, 0, 60, 0, 70, 0, 80, 0, 90, 0, 100},
		[]float64{25, 0, 25, 10, 25, 20, 25, 30, 25, 40, 25, 50, 25, 60, 25, 70, 25, 80, 25, 90, 25, 100},
	)
	scens := []scen{
		{"time shifts", dwell[0], dwell[1], dwell[2], dwell[3]},
		{"inter-sampling", inter[0], inter[1], inter[2], inter[3]},
		{"phase", phase[0], phase[1], phase[2], phase[3]},
	}
	metrics := trajmatch.Metrics(2.0)
	fmt.Println("Table I/II — robust = equivalent pair scored closer than control pair")
	fmt.Printf("%-8s", "metric")
	for _, s := range scens {
		fmt.Printf("%16s", s.name)
	}
	fmt.Println()
	for _, m := range metrics {
		fmt.Printf("%-8s", m.Name())
		for _, s := range scens {
			verdict := "✗"
			if m.Dist(s.a1, s.a2) < m.Dist(s.b1, s.b2) {
				verdict = "✓"
			}
			fmt.Printf("%16s", verdict)
		}
		fmt.Println()
	}
	fmt.Println()
}

func print5a(sc eval.Scale) {
	ss := eval.Fig5a(sc, nil)
	fmt.Print(eval.FormatSeries("Fig. 5a — classification accuracy vs number of classes (ASL-style)", "classes", ss))
	fmt.Println()
}

func print5j(sc eval.Scale) {
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(sc.TaxiN))
	rng := rand.New(rand.NewSource(sc.Seed + 41))
	queries := make([]*trajmatch.Trajectory, sc.Queries)
	for i := range queries {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 1_000_000 + i
		queries[i] = q
	}
	ss, err := eval.QueryCompetitors(db, queries, []int{5, 10, 20, 30, 40, 50},
		trajtree.Options{Seed: sc.Seed, PivotCandidates: 32, Parallel: true})
	exitOn(err)
	fmt.Print(eval.FormatSeries("Fig. 5j — mean query seconds vs k", "k", ss))
	fmt.Println()
}

func print6a(sc eval.Scale) {
	sizes := []int{sc.TaxiN / 4, sc.TaxiN / 2, sc.TaxiN}
	series := make([]eval.Series, 0, 4)
	for si, n := range sizes {
		db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(n))
		rng := rand.New(rand.NewSource(sc.Seed + 43))
		queries := make([]*trajmatch.Trajectory, sc.Queries)
		for i := range queries {
			q := db[rng.Intn(len(db))].Clone()
			q.ID = 1_000_000 + i
			queries[i] = q
		}
		ss, err := eval.QueryCompetitors(db, queries, []int{10},
			trajtree.Options{Seed: sc.Seed, PivotCandidates: 32, Parallel: true})
		exitOn(err)
		if si == 0 {
			for _, s := range ss {
				series = append(series, eval.Series{Name: s.Name})
			}
		}
		for i, s := range ss {
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, s.Y[0])
		}
	}
	fmt.Print(eval.FormatSeries("Fig. 6a — mean query seconds vs database size (k=10)", "n", series))
	fmt.Println()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "trajbench: %v\n", err)
		os.Exit(1)
	}
}
