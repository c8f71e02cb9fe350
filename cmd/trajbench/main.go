// Command trajbench regenerates the paper's evaluation artifacts: Tables
// I/II and every figure of Section V as a printed table, at a configurable
// scale. It is the repository's one figure path; the experiments
// themselves live in internal/eval.
//
// Usage:
//
//	trajbench -exp all                 # every table and figure at the default scale
//	trajbench -exp 5a,5b,6c            # selected figures
//	trajbench -exp 5j -taxi 2000 -q 20 # larger run for the timing figures
//
// Absolute numbers depend on this machine; the reproduction targets are the
// shapes the paper reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"trajmatch/internal/eval"
)

// experiment is one table of the evaluation: its -exp id and the function
// that computes and renders it.
type experiment struct {
	id    string
	table func(eval.Scale) (string, error)
}

// figure renders the series a figure function computes under title, with
// xlabel naming the X column.
func figure(title, xlabel string, series func(eval.Scale) ([]eval.Series, error)) func(eval.Scale) (string, error) {
	return func(sc eval.Scale) (string, error) {
		ss, err := series(sc)
		if err != nil {
			return "", err
		}
		return eval.FormatSeries(title, xlabel, ss), nil
	}
}

// experiments lists every table and figure in the paper's order.
func experiments() []experiment {
	exps := []experiment{
		{"table1", func(eval.Scale) (string, error) { return eval.TableI(), nil }},
		{"5a", figure("Fig. 5a — classification accuracy vs number of classes (ASL-style)", "classes",
			func(sc eval.Scale) ([]eval.Series, error) { return eval.Fig5a(sc, nil), nil })},
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
		exps = append(exps,
			experiment{nz.idK, figure(
				fmt.Sprintf("Fig. %s — Spearman correlation vs k, %s (n=%.0f%%)", nz.idK, nz.title, nz.pct*100), "k",
				func(sc eval.Scale) ([]eval.Series, error) { return eval.RobustnessVsK(sc, nz.kind, nz.pct, nil), nil })},
			experiment{nz.idN, figure(
				fmt.Sprintf("Fig. %s — Spearman correlation vs noise %%, %s (k=10)", nz.idN, nz.title), "noise%",
				func(sc eval.Scale) ([]eval.Series, error) { return eval.RobustnessVsN(sc, nz.kind, nil), nil })})
	}
	return append(exps,
		experiment{"5j", figure("Fig. 5j — mean query seconds vs k", "k",
			func(sc eval.Scale) ([]eval.Series, error) { return eval.QueryVsK(sc, nil) })},
		experiment{"6a", figure("Fig. 6a — mean query seconds vs database size (k=10)", "n",
			func(sc eval.Scale) ([]eval.Series, error) { return eval.QueryVsDBSize(sc, nil) })},
		experiment{"6b", figure("Fig. 6b — query seconds vs θ (k=10)", "theta",
			func(sc eval.Scale) ([]eval.Series, error) { return eval.QueryVsTheta(sc, nil, 10) })},
		experiment{"6c", figure("Fig. 6c — UB-Factor vs number of VPs (k=10)", "VPs",
			func(sc eval.Scale) ([]eval.Series, error) { return eval.UBFactorVsVPs(sc, nil), nil })},
		experiment{"6d", figure("Fig. 6d — UB-Factor vs k (80 VPs)", "k",
			func(sc eval.Scale) ([]eval.Series, error) { return eval.UBFactorVsK(sc, nil, 80), nil })},
		experiment{"6e", figure("Fig. 6e — build seconds vs database size", "n",
			func(sc eval.Scale) ([]eval.Series, error) { return eval.BuildTimes(sc, nil, nil) })},
		experiment{"6f", figure("Fig. 6f — build seconds vs θ", "theta",
			func(sc eval.Scale) ([]eval.Series, error) {
				return eval.BuildTimes(sc, nil, []float64{0.2, 0.4, 0.6, 0.8, 0.95})
			})},
	)
}

// run prints the experiments named by the comma-separated ids ("all" for
// every one) to w in the paper's order. An id that names no experiment is
// an error, reported before anything runs.
func run(w io.Writer, sc eval.Scale, ids string) error {
	exps := experiments()
	known := []string{"all"}
	for _, e := range exps {
		known = append(known, e.id)
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(known, id) {
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ","))
		}
		selected[id] = true
	}
	for _, e := range exps {
		if !selected["all"] && !selected[e.id] {
			continue
		}
		out, err := e.table(sc)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if _, err := fmt.Fprintln(w, out); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	def := eval.DefaultScale()
	var (
		exps    = flag.String("exp", "all", "comma-separated experiment ids: table1,5a,5b,...,6f or all")
		taxiN   = flag.Int("taxi", def.TaxiN, "taxi database size")
		aslInst = flag.Int("asl", def.ASLInstances, "ASL instances per class")
		queries = flag.Int("q", def.Queries, "queries averaged per data point")
		folds   = flag.Int("folds", def.Folds, "cross-validation folds")
		seed    = flag.Int64("seed", def.Seed, "random seed")
	)
	flag.Parse()
	sc := eval.Scale{TaxiN: *taxiN, ASLInstances: *aslInst, Queries: *queries, Folds: *folds, Seed: *seed}
	if err := run(os.Stdout, sc, *exps); err != nil {
		fmt.Fprintf(os.Stderr, "trajbench: %v\n", err)
		os.Exit(1)
	}
}
