// taxi_knn: the paper's headline retrieval scenario. Build a sharded
// engine over a city of taxi trips, then compare indexed k-NN through
// the unified Search API against a sequential scan and the EDR index —
// Figs. 5(j)/6(a) in miniature — and demonstrate incremental updates.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"trajmatch"
)

func main() {
	const n = 1500
	fmt.Printf("generating %d taxi trips...\n", n)
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(n))
	ctx := context.Background()

	t0 := time.Now()
	engine, err := trajmatch.NewEngine(db[:n-100],
		trajmatch.IndexOptions{Parallel: true, Seed: 1},
		trajmatch.EngineOptions{CacheSize: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine built over %d trips in %v\n", engine.Size(), time.Since(t0).Round(time.Millisecond))

	// Incremental inserts: the last 100 trips arrive after the bulk load.
	t0 = time.Now()
	for _, tr := range db[n-100:] {
		if err := engine.Insert(tr); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("inserted 100 more trips in %v (index now %d)\n",
		time.Since(t0).Round(time.Millisecond), engine.Size())

	query := db[7].Clone()
	query.ID = 1_000_000

	const k = 10
	t0 = time.Now()
	ans, err := engine.Search(ctx, query, trajmatch.Query{Kind: trajmatch.QueryKNN, K: k, WithStats: true})
	if err != nil {
		log.Fatal(err)
	}
	tIndexed := time.Since(t0)

	t0 = time.Now()
	scanned := bruteScan(db, query, k)
	tScan := time.Since(t0)

	// The EDR competitor follows the paper's setup: EDR needs uniform
	// sampling to be competitive in quality, so it runs over the
	// interpolated database (EDR-I) — and pays for the extra points.
	spacing := trajmatch.MedianSegmentLength(db) / 2
	interp := trajmatch.ResampleAll(db, spacing)
	edrIx := trajmatch.NewEDRIndex(interp, 60)
	iq := trajmatch.Resample(query, spacing)
	t0 = time.Now()
	edrIx.SearchKNN(iq, k, nil, nil)
	tEDR := time.Since(t0)

	fmt.Printf("\n%d-NN latency: TrajTree %v | EDwP scan %v | EDR-I index %v\n",
		k, tIndexed.Round(time.Microsecond), tScan.Round(time.Microsecond), tEDR.Round(time.Microsecond))
	fmt.Printf("TrajTree computed %d exact distances (%.1f%% of the database), pruned %d nodes\n",
		ans.Stats.DistanceCalls, 100*float64(ans.Stats.DistanceCalls)/float64(engine.Size()), ans.Stats.NodesPruned)

	fmt.Println("\nresults (indexed vs sequential scan):")
	for i, r := range ans.Results {
		match := "✓"
		if r.Dist != scanned[i] {
			match = "✗"
		}
		fmt.Printf("  %2d. trip %-5d dist %.5f %s\n", i+1, r.Traj.ID, r.Dist, match)
	}

	// Deleting the best match re-ranks the answers.
	best := ans.Results[0].Traj.ID
	engine.Delete(best)
	after, err := engine.Search(ctx, query, trajmatch.Query{Kind: trajmatch.QueryKNN, K: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter deleting trip %d, nearest is now trip %d (dist %.5f)\n",
		best, after.Results[0].Traj.ID, after.Results[0].Dist)
}

// bruteScan is the "EDwP Sequential Scan" competitor: the k smallest
// EDwPavg distances over the whole database, no index.
func bruteScan(db []*trajmatch.Trajectory, q *trajmatch.Trajectory, k int) []float64 {
	ds := make([]float64, len(db))
	for i, tr := range db {
		ds[i] = trajmatch.EDwPAvg(q, tr)
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}
