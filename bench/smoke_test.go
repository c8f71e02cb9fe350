package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// result is the contract's last output line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at smoke-test scale and decodes its last line
// and the names on the not_exercised line before it.
func runTiny(t *testing.T, workload string, trace bool) (result, map[string]string) {
	t.Helper()
	cfg := config{
		workload: workload, seed: 3, seconds: 0.4, trace: trace, repeat: 1,
		tiny: true, workDir: t.TempDir(), specPath: "../BENCHMARK.json",
	}
	var out bytes.Buffer
	if err := runMain(cfg, &out); err != nil {
		t.Fatalf("%s (trace %v): %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s (trace %v): correct=%v failed=%d attempted=%d\n%s", workload, trace, res.Correct, res.Failed, res.Attempted, out.String())
	}
	standIn := map[string]string{}
	marked, ok := strings.CutPrefix(lines[len(lines)-2], "not_exercised ")
	if !ok || json.Unmarshal([]byte(marked), &standIn) != nil {
		t.Fatalf("%s: no not_exercised line before the result: %s", workload, lines[len(lines)-2])
	}
	return res, standIn
}

// checkMetrics asserts that res holds exactly the named metrics, each with
// the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, label string, res result, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", label, m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", label, len(res.Metrics), len(want))
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale, so
// `go test ./...` guards the benchmark: it must keep building against the
// product's API, pass its own correctness checks, and print exactly the
// metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.workloadNames()) != len(workloads) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark implements %d", sp.workloadNames(), len(workloads))
	}
	for _, name := range sp.workloadNames() {
		res, standIn := runTiny(t, name, false)
		checkMetrics(t, name, res, sp.EndToEnd)
		for _, m := range sp.EndToEnd {
			if res.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is zero", name, m.Name)
			}
		}
		for _, m := range append([]string{"setup_s", "peak_rss_mb"}, exercises[name]...) {
			if from, ok := standIn[m]; ok {
				t.Errorf("%s exercises %s but printed a copy of %s", name, m, from)
			}
		}
		if want := len(sp.EndToEnd) - 2 - len(exercises[name]); len(standIn) != want {
			t.Errorf("%s marks %d cells as not exercised, want %d: %v", name, len(standIn), want, standIn)
		}
		traced, _ := runTiny(t, name, true)
		checkMetrics(t, name+" traced", traced, sp.PerLayer)
	}
}

// exactCounts are the per-layer metrics that repeat exactly between two
// runs with the same seed: work counts of a fixed request set served by
// one client. README.md marks them; BENCHMARK.json's schema has no field
// for it.
var exactCounts = []string{
	"core.distcalls_per_query", "core.abandons_per_query", "core.full_evals_per_query",
	"trajtree.lb_calls_per_query", "trajtree.nodes_visited_per_query", "trajtree.nodes_pruned_per_query",
	"trajtree.touched_share", "trajtree.evals_per_result",
}

func TestColdSearchCountsRepeatExactly(t *testing.T) {
	a, _ := runTiny(t, "cold-search", true)
	b, _ := runTiny(t, "cold-search", true)
	for _, name := range exactCounts {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v with the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}
