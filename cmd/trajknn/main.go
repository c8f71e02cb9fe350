// Command trajknn builds a sharded engine over a trajectory file and
// answers k-nearest-neighbour queries under EDwP through the unified
// Search API, printing the answers with query statistics. Queries are
// database trajectories named by -query, or every trajectory in a
// separate -queryfile. With -sub the query matches against the
// best-fitting contiguous sub-trajectory of each candidate (EDwPsub)
// instead of whole trajectories; with -timeout each query runs under a
// deadline honoured down to the EDwP dynamic program.
//
// Usage:
//
//	trajgen -kind taxi -n 2000 -o db.csv
//	trajknn -db db.csv -query 17 -k 10
//	trajknn -db db.csv -queryfile probes.csv -k 5 -verify
//	trajknn -db db.csv -query 17 -k 5 -sub -timeout 2s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"trajmatch"
)

func main() {
	var (
		dbPath    = flag.String("db", "", "database file (csv or ndjson by extension)")
		queryID   = flag.Int("query", -1, "ID of a database trajectory to use as the query")
		queryFile = flag.String("queryfile", "", "file of query trajectories")
		k         = flag.Int("k", 10, "number of neighbours")
		theta     = flag.Float64("theta", 0.8, "TrajTree θ (diversity drop threshold)")
		shards    = flag.Int("shards", 1, "number of hash-partitioned index shards")
		verify    = flag.Bool("verify", false, "cross-check against a sequential scan")
		cumula    = flag.Bool("cumulative", false, "use cumulative EDwP instead of EDwPavg")
		sub       = flag.Bool("sub", false, "sub-trajectory search (EDwPsub) instead of whole-trajectory k-NN")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (0 disables)")
	)
	flag.Parse()
	if *dbPath == "" {
		fatalf("-db is required")
	}

	db := readFile(*dbPath)
	t0 := time.Now()
	engine, err := trajmatch.NewEngine(db, trajmatch.IndexOptions{
		Theta:      *theta,
		Cumulative: *cumula,
		Parallel:   true,
		Seed:       1,
	}, trajmatch.EngineOptions{CacheSize: -1, Shards: *shards})
	if err != nil {
		fatalf("build: %v", err)
	}
	fmt.Printf("indexed %d trajectories in %d shards in %v\n",
		engine.Size(), engine.Shards(), time.Since(t0).Round(time.Millisecond))

	var queries []*trajmatch.Trajectory
	switch {
	case *queryFile != "":
		queries = readFile(*queryFile)
		for i, q := range queries {
			q.ID = 1_000_000 + i // avoid colliding with database IDs
		}
	case *queryID >= 0:
		q := engine.Lookup(*queryID)
		if q == nil {
			fatalf("trajectory %d not in database", *queryID)
		}
		queries = []*trajmatch.Trajectory{q}
	default:
		fatalf("give -query or -queryfile")
	}

	req := trajmatch.Query{Kind: trajmatch.QueryKNN, K: *k, WithStats: true}
	if *sub {
		req.Kind = trajmatch.QuerySubKNN
	}
	for _, q := range queries {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		t0 := time.Now()
		ans, err := engine.Search(ctx, q, req)
		elapsed := time.Since(t0)
		cancel()
		if err != nil {
			fatalf("query %d: %v (after %v)", q.ID, err, elapsed.Round(time.Microsecond))
		}
		st := ans.Stats
		fmt.Printf("query %d (%d points): %d results in %v "+
			"(dist calls %d, abandons %d of which screened %d, bounds %d, visited %d, pruned %d)\n",
			q.ID, q.NumPoints(), len(ans.Results), elapsed.Round(time.Microsecond),
			st.DistanceCalls, st.EarlyAbandons, st.ScreenRejects, st.LowerBoundCalls, st.NodesVisited, st.NodesPruned)
		for rank, r := range ans.Results {
			fmt.Printf("  %2d. trajectory %-6d dist %.6g\n", rank+1, r.Traj.ID, r.Dist)
		}
		if *verify {
			want := bruteKNN(db, q, *k, *cumula, *sub)
			ok := len(want) == len(ans.Results)
			for i := 0; ok && i < len(ans.Results); i++ {
				if diff := ans.Results[i].Dist - want[i]; diff > 1e-9 || diff < -1e-9 {
					ok = false
				}
			}
			if ok {
				fmt.Println("  verified against sequential scan ✓")
			} else {
				fmt.Println("  MISMATCH against sequential scan ✗")
				os.Exit(1)
			}
		}
	}
}

// bruteKNN returns the k smallest distances of the configured metric by
// sequential scan, the reference the indexed answers must reproduce.
func bruteKNN(db []*trajmatch.Trajectory, q *trajmatch.Trajectory, k int, cumulative, sub bool) []float64 {
	ds := make([]float64, 0, len(db))
	for _, tr := range db {
		var d float64
		switch {
		case sub:
			d = trajmatch.EDwPSub(q, tr)
		case cumulative:
			d = trajmatch.EDwP(q, tr)
		default:
			d = trajmatch.EDwPAvg(q, tr)
		}
		ds = append(ds, d)
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

func readFile(path string) []*trajmatch.Trajectory {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var db []*trajmatch.Trajectory
	if strings.HasSuffix(path, ".ndjson") || strings.HasSuffix(path, ".jsonl") {
		db, err = trajmatch.ReadNDJSON(f)
	} else {
		db, err = trajmatch.ReadCSV(f)
	}
	if err != nil {
		fatalf("parse %s: %v", path, err)
	}
	return db
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "trajknn: "+format+"\n", args...)
	os.Exit(1)
}
