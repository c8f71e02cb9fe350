// Command trajload is a closed-loop load generator for trajserve: N
// workers each keep exactly one /v1/search request in flight against a
// target (standalone, shard node or cluster router — the wire format is
// identical), drawing query trajectories from a synthetic pool and
// mixing k-NN and range kinds per -mix. When the run ends it reports
// throughput and client-observed latency percentiles (p50/p95/p99) as
// JSON; pointing it at each deployment shape in turn compares them.
//
// Closed-loop means the offered load adapts to the server: a worker
// issues its next query only when the previous answer lands, so the
// measured latencies are uncontaminated by client-side queueing and
// -workers is the concurrency, not a rate.
//
// With -selfcheck the command needs no running server: it builds an
// in-process engine over the synthetic corpus, serves it over a
// loopback listener, and loads that — the CI smoke mode (-selfcheck
// -duration 2s) that exercises the whole path in seconds.
//
// Usage:
//
//	trajload -addr http://localhost:8080 -duration 30s -workers 8 -k 10 -mix 0.8 -o load.json
//	trajload -selfcheck -duration 2s -n 500
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"trajmatch"
)

func main() {
	var (
		addr      = flag.String("addr", "", "target base URL (e.g. http://localhost:8080); empty requires -selfcheck")
		duration  = flag.Duration("duration", 10*time.Second, "measurement window")
		workers   = flag.Int("workers", 4, "closed-loop workers (concurrency)")
		k         = flag.Int("k", 10, "k of the k-NN queries")
		radius    = flag.Float64("radius", 500, "radius of the range queries, corpus units")
		mix       = flag.Float64("mix", 0.8, "fraction of queries that are k-NN (the rest are range)")
		metric    = flag.String("metric", "", "Query.Metric to send (empty = server default)")
		queries   = flag.Int("queries", 200, "size of the synthetic query pool")
		n         = flag.Int("n", 1000, "corpus size of the -selfcheck in-process engine")
		shardsF   = flag.Int("shards", 4, "shard count of the -selfcheck engine")
		seed      = flag.Int64("seed", 1, "query-pool (and -selfcheck corpus) seed")
		out       = flag.String("o", "", "write the JSON report here (default stdout)")
		selfcheck = flag.Bool("selfcheck", false, "build and load an in-process engine instead of a remote target")
	)
	flag.Parse()

	if *mix < 0 || *mix > 1 {
		fatalf("-mix must be in [0,1]")
	}
	if *workers < 1 {
		fatalf("-workers must be positive")
	}

	// The query pool is synthetic taxi traffic offset from the corpus
	// seed, so -selfcheck queries are not corpus members verbatim.
	qcfg := trajmatch.DefaultTaxiConfig(*queries)
	qcfg.Seed = *seed + 7919
	pool := trajmatch.GenerateTaxi(qcfg)

	target := *addr
	client := &http.Client{}
	if *selfcheck {
		if *addr != "" {
			fatalf("-selfcheck and -addr are mutually exclusive")
		}
		cfg := trajmatch.DefaultTaxiConfig(*n)
		cfg.Seed = *seed
		db := trajmatch.GenerateTaxi(cfg)
		engine, err := trajmatch.NewEngine(db, trajmatch.IndexOptions{Parallel: true, Seed: *seed},
			trajmatch.EngineOptions{Shards: *shardsF})
		if err != nil {
			fatalf("selfcheck engine: %v", err)
		}
		srv := httptest.NewServer(trajmatch.NewAPIHandler(engine, trajmatch.HandlerOptions{}))
		defer srv.Close()
		target = srv.URL
		client = srv.Client()
		fmt.Fprintf(os.Stderr, "trajload: selfcheck engine up: %d trajectories in %d shards at %s\n",
			engine.Size(), engine.Shards(), target)
	}
	if target == "" {
		fatalf("-addr is required (or -selfcheck)")
	}

	report, err := run(loadConfig{
		target:  target,
		client:  client,
		pool:    pool,
		d:       *duration,
		workers: *workers,
		k:       *k,
		radius:  *radius,
		mix:     *mix,
		metric:  *metric,
		seed:    *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatalf("write report: %v", err)
	}
	if report.Errors > 0 && report.Requests == 0 {
		fatalf("every request failed (last: %s)", report.LastError)
	}
}

type loadConfig struct {
	target  string
	client  *http.Client
	pool    []*trajmatch.Trajectory
	d       time.Duration
	workers int
	k       int
	radius  float64
	mix     float64
	metric  string
	seed    int64
}

// Percentiles is one latency distribution in milliseconds.
type Percentiles struct {
	Count  int     `json:"count"`
	P50    float64 `json:"p50_ms"`
	P95    float64 `json:"p95_ms"`
	P99    float64 `json:"p99_ms"`
	Mean   float64 `json:"mean_ms"`
	Max    float64 `json:"max_ms"`
	Errors int     `json:"errors,omitempty"`
}

// Report is trajload's JSON output.
type Report struct {
	Target      string                 `json:"target"`
	GoVersion   string                 `json:"go_version"`
	Workers     int                    `json:"workers"`
	DurationSec float64                `json:"duration_sec"`
	MixKNN      float64                `json:"mix_knn"`
	K           int                    `json:"k"`
	Radius      float64                `json:"radius"`
	Requests    int                    `json:"requests"`
	Errors      int                    `json:"errors"`
	QPS         float64                `json:"qps"`
	Latency     Percentiles            `json:"latency"`
	PerKind     map[string]Percentiles `json:"per_kind"`
	LastError   string                 `json:"last_error,omitempty"`
}

// sample is one completed request: its kind, latency and disposition.
type sample struct {
	kind string
	lat  time.Duration
	err  bool
}

func run(cfg loadConfig) (Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.d)
	defer cancel()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		all     []sample
		lastErr string
	)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*104729))
			var local []sample
			var localErr string
			for ctx.Err() == nil {
				q := cfg.pool[rng.Intn(len(cfg.pool))]
				kind, body := buildRequest(cfg, q, rng)
				t0 := time.Now()
				err := postSearch(ctx, cfg.client, cfg.target, body)
				lat := time.Since(t0)
				if ctx.Err() != nil && err != nil {
					break // the deadline cut this request off; don't count it
				}
				s := sample{kind: kind, lat: lat, err: err != nil}
				if err != nil {
					localErr = err.Error()
				}
				local = append(local, s)
			}
			mu.Lock()
			all = append(all, local...)
			if localErr != "" {
				lastErr = localErr
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	rep := Report{
		Target:      cfg.target,
		GoVersion:   runtime.Version(),
		Workers:     cfg.workers,
		DurationSec: cfg.d.Seconds(),
		MixKNN:      cfg.mix,
		K:           cfg.k,
		Radius:      cfg.radius,
		PerKind:     map[string]Percentiles{},
		LastError:   lastErr,
	}
	byKind := map[string][]sample{}
	for _, s := range all {
		if s.err {
			rep.Errors++
		} else {
			rep.Requests++
		}
		byKind[s.kind] = append(byKind[s.kind], s)
	}
	rep.QPS = float64(rep.Requests) / cfg.d.Seconds()
	rep.Latency = percentiles(all)
	for kind, ss := range byKind {
		rep.PerKind[kind] = percentiles(ss)
	}
	return rep, nil
}

// buildRequest draws the next query: kind by mix, body ready to POST.
func buildRequest(cfg loadConfig, q *trajmatch.Trajectory, rng *rand.Rand) (string, []byte) {
	req := map[string]any{
		"query": wireTraj(q),
	}
	if cfg.metric != "" {
		req["metric"] = cfg.metric
	}
	kind := "knn"
	if rng.Float64() >= cfg.mix {
		kind = "range"
		req["kind"] = "range"
		req["radius"] = cfg.radius
	} else {
		req["kind"] = "knn"
		req["k"] = cfg.k
	}
	body, _ := json.Marshal(req)
	return kind, body
}

func wireTraj(t *trajmatch.Trajectory) map[string]any {
	pts := make([][3]float64, len(t.Points))
	for i, p := range t.Points {
		pts[i] = [3]float64{p.X, p.Y, p.T}
	}
	return map[string]any{"id": t.ID, "points": pts}
}

func postSearch(ctx context.Context, client *http.Client, target string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return nil
}

// percentiles summarises the successful samples' latencies.
func percentiles(ss []sample) Percentiles {
	var lats []time.Duration
	errs := 0
	for _, s := range ss {
		if s.err {
			errs++
			continue
		}
		lats = append(lats, s.lat)
	}
	p := Percentiles{Count: len(lats), Errors: errs}
	if len(lats) == 0 {
		return p
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	p.P50 = ms(at(0.50))
	p.P95 = ms(at(0.95))
	p.P99 = ms(at(0.99))
	p.Mean = ms(sum / time.Duration(len(lats)))
	p.Max = ms(lats[len(lats)-1])
	return p
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trajload: "+format+"\n", args...)
	os.Exit(1)
}
