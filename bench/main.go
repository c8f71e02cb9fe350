// Command bench is the repository's one benchmark: four workloads that
// drive the system the way its users do — /v1/* requests over loopback
// listeners in front of trajmatch.NewAPIHandler and
// NewClusterRouterHandler — and report the end-to-end metrics named in
// BENCHMARK.json. A separate traced run (-trace 1) of the same workload
// measures every layer from outside: spans around the client request and
// the handlers, plus timed replays of the same queries against
// Engine.Search, the TrajTree, the EDwP kernel, the sketch index and the
// WAL. See README.md in this directory for the metric glossary.
//
// Usage (from the repository root):
//
//	go run ./bench -workload cold-search -seed 1
//	go run ./bench -workload all -seed 1 -seconds 15
//	go run ./bench -workload cold-search -seed 1 -trace 1
//	go run ./bench -workload hot-search -seed 1 -repeat 2
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is the
// human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings. The driver passes -workload,
// -seed, -seconds and -trace; tiny, workDir and specPath have no flag and
// change only in the smoke test.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	repeat   int
	tiny     bool   // smoke-test scale: a 300-trajectory corpus and tens of requests
	workDir  string // WAL, snapshot and span files go here
	specPath string // the benchmark definition the output is checked against
}

func main() {
	cfg := config{workDir: ".bench_build", specPath: "BENCHMARK.json"}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name from BENCHMARK.json, or \"all\"")
	flag.Int64Var(&cfg.seed, "seed", 1, "orders the requests, the tracks and the reader's queries and draws the Zipf sequence; the data itself is fixed (dataSeed in corpus.go)")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds of an untraced run, shared by the workload's phases")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.IntVar(&cfg.repeat, "repeat", 1, "sets to run back to back; 2 prints each metric's difference against its bound")
	flag.Parse()
	cfg.trace = trace != 0
	if err := runMain(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runMain runs the selected workloads and writes the report to w. It is
// the whole command minus flag parsing, so the smoke test can call it.
func runMain(cfg config, w io.Writer) error {
	sp, err := loadSpec(cfg.specPath)
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = sp.workloadNames()
	}
	for _, name := range names {
		if workloads[name] == nil {
			return fmt.Errorf("unknown workload %q (one of %s, all)", name, strings.Join(sp.workloadNames(), ", "))
		}
	}
	if cfg.seconds <= 0 || cfg.repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	for _, name := range names {
		cfg.workload = name
		var sets []*run
		for i := 0; i < cfg.repeat; i++ {
			r, err := runWorkload(cfg, sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			r.report(w, sp)
			sets = append(sets, r)
		}
		if len(sets) > 1 {
			reportRepeat(w, sp, sets[0], sets[len(sets)-1])
		}
		if err := sets[len(sets)-1].printResult(w, sp); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runWorkload sets one workload up, measures it and tears it down.
func runWorkload(cfg config, sp *spec) (r *run, err error) {
	r = newRun(cfg)
	defer func() {
		if cerr := r.close(); err == nil {
			err = cerr
		}
	}()
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	if err := workloads[cfg.workload](r); err != nil {
		return nil, err
	}
	if !r.checked {
		return nil, fmt.Errorf("the correctness check did not run")
	}
	if cfg.trace {
		r.finishTrace(sp)
		if err := r.writeSpans(); err != nil {
			return nil, err
		}
	} else {
		r.set("peak_rss_mb", peakRSSMB())
		if err := r.fillStandIns(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// workloads maps each BENCHMARK.json workload name to its function.
var workloads = map[string]func(*run) error{
	"cold-search":  coldSearch,
	"hot-search":   hotSearch,
	"ingest-mixed": ingestMixed,
	"cluster-hop":  clusterHop,
}

// spec is BENCHMARK.json: the single place metric names, units,
// directions and bounds are written down. The benchmark refuses to print
// a result whose metric set differs from it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	out := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		out[i] = w.Name
	}
	return out
}

// metricsFor returns the metric list a run of the given kind must print.
func (sp *spec) metricsFor(trace bool) []metricSpec {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// environment is the machine description every report carries.
type environment struct {
	Machine    string `json:"machine"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	host, _ := os.Hostname() // a missing hostname only blanks the label
	env := environment{
		Machine:    fmt.Sprintf("%s %s/%s", host, runtime.GOOS, runtime.GOARCH),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// detail is what the report keeps about one metric beyond its value.
type detail struct {
	N       int       // samples behind the value
	PerPass []float64 // the statistic pass by pass, or part by part
	Q1, Q3  float64   // quartiles of the samples the value is taken from
	P95     float64   // 95th percentile of every sample of every pass: reported, not gated
	StandIn string    // the metric this one repeats, if the workload does not exercise it
}

// report writes the human-readable part: environment, every metric with
// its unit, sample count, per-pass values and quartiles, and — on a
// traced run — each layer's share of client.request time.
func (r *run) report(w io.Writer, sp *spec) {
	env, _ := json.Marshal(readEnvironment())
	kind := "end-to-end (tracing off)"
	if r.cfg.trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# %s seed=%d %s\n# env %s\n", r.cfg.workload, r.cfg.seed, kind, env)
	for _, ms := range sp.metricsFor(r.cfg.trace) {
		v, ok := r.metrics[ms.Name]
		if !ok {
			continue // printResult reports the omission as an error
		}
		d := r.details[ms.Name]
		line := fmt.Sprintf("%-34s %14.6g %-6s", ms.Name, v, ms.Unit)
		if d.N > 0 {
			line += fmt.Sprintf(" n=%d", d.N)
		}
		if len(d.PerPass) > 0 {
			line += fmt.Sprintf(" passes=%.6g", d.PerPass)
		}
		if d.Q3 != 0 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", d.Q1, d.Q3)
		}
		if d.P95 != 0 {
			line += fmt.Sprintf(" p95_of_all=%.6g", d.P95)
		}
		if d.StandIn != "" {
			line += fmt.Sprintf(" (not exercised here: repeats %s)", d.StandIn)
		}
		fmt.Fprintln(w, line)
	}
	for _, s := range r.shares {
		fmt.Fprintf(w, "share of client.request, %s:", s.Class)
		layers := make([]string, 0, len(s.Share))
		for l := range s.Share {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, " %s=%.3f", l, s.Share[l])
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	fmt.Fprintf(w, "failed_share %g (%d of %d)\n", float64(r.failed.Load())/float64(max(r.attempted.Load(), 1)), r.failed.Load(), r.attempted.Load())
}

// reportRepeat prints, per metric, how far the second set landed from
// the first as a share of the first, against the metric's bound.
func reportRepeat(w io.Writer, sp *spec, a, b *run) {
	fmt.Fprintf(w, "# %s: second set against first\n", a.cfg.workload)
	for _, ms := range sp.metricsFor(a.cfg.trace) {
		va, vb := a.metrics[ms.Name], b.metrics[ms.Name]
		if va == 0 || b.details[ms.Name].StandIn != "" {
			continue // nothing to compare, or a copy of a metric compared under its own name
		}
		worse := (vb - va) / va
		if ms.Better == "higher" {
			worse = -worse
		}
		verdict := "within"
		if ms.Bound > 0 && worse > ms.Bound {
			verdict = "OUTSIDE"
		}
		fmt.Fprintf(w, "%-34s first=%.6g second=%.6g worse_by=%+.4f bound=%.2f %s\n", ms.Name, va, vb, worse, ms.Bound, verdict)
	}
}

// printResult writes the contract's last line, after checking that the
// run produced exactly the metrics BENCHMARK.json names.
func (r *run) printResult(w io.Writer, sp *spec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]value{}}
	out.Correct = out.Failed == 0
	want := sp.metricsFor(r.cfg.trace)
	for _, ms := range want {
		v, ok := r.metrics[ms.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", ms.Name)
		}
		out.Metrics[ms.Name] = value{v, ms.Unit}
	}
	if len(r.metrics) != len(want) {
		for name := range r.metrics {
			if _, ok := out.Metrics[name]; !ok {
				return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
			}
		}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	// The contract fixes the keys of the last line, so the cells that
	// repeat another metric are named on the line before it.
	standIn := map[string]string{}
	for name, d := range r.details {
		if d.StandIn != "" {
			standIn[name] = d.StandIn
		}
	}
	b, err := json.Marshal(standIn)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "not_exercised %s\n", b); err != nil {
		return err
	}
	if b, err = json.Marshal(out); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// exercises lists the end-to-end metrics each workload measures, besides
// setup_s and peak_rss_mb, which all do. The driver's contract wants every
// run to print every end-to-end metric, never zero, but a cluster router
// has no /v1/append and a read workload writes nothing. A cell not listed
// here repeats a value of the same unit that the workload did measure (see
// standIns); the report and the not_exercised line before the result name
// those cells, and a metric is read only on the workloads listed for it.
var exercises = map[string][]string{
	"cold-search":  {"search_p50_ms", "search_qps", "range_p50_ms", "subknn_p50_ms"},
	"hot-search":   {"search_p50_ms", "search_qps", "prefilter_p50_ms", "prefilter_recall_at_10"},
	"ingest-mixed": {"search_p50_ms", "search_qps", "append_p50_ms", "ingest_points_per_s", "recover_s"},
	"cluster-hop":  {"search_p50_ms", "search_qps", "range_p50_ms"},
}

// standIns names the measured metric each unexercised cell repeats.
var standIns = map[string]string{
	"range_p50_ms":        "search_p50_ms",
	"subknn_p50_ms":       "search_p50_ms",
	"prefilter_p50_ms":    "search_p50_ms",
	"append_p50_ms":       "search_p50_ms",
	"ingest_points_per_s": "search_qps",
	"recover_s":           "setup_s",
}

// fillStandIns fails if the workload did not measure a metric it
// exercises, then fills the cells it does not.
func (r *run) fillStandIns() error {
	for _, name := range exercises[r.cfg.workload] {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("%s was not measured", name)
		}
	}
	for name, from := range standIns {
		if _, ok := r.metrics[name]; !ok {
			r.metrics[name] = r.metrics[from]
			r.details[name] = detail{StandIn: from}
		}
	}
	// Recall of a workload that sends no prefiltered query: every answer
	// it gives is exact.
	if _, ok := r.metrics["prefilter_recall_at_10"]; !ok {
		r.metrics["prefilter_recall_at_10"] = 1
		r.details["prefilter_recall_at_10"] = detail{StandIn: "exact answers"}
	}
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func (r *run) spanPath() string {
	if r.cfg.traceOut != "" {
		return r.cfg.traceOut
	}
	return filepath.Join(r.cfg.workDir, fmt.Sprintf("trace-%s-%d.json", r.cfg.workload, r.cfg.seed))
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
