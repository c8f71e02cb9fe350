// pipeline: the end-to-end data-engineering flow a production deployment
// would run — ingest a raw GPS point stream, split it into trips (the
// paper's Beijing preprocessing), validate, bulk-load a TrajTree, persist
// the index to disk, reload it in a fresh process, and serve queries.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"trajmatch"
)

func main() {
	// 1. Simulate a raw device stream: several trips of one cab over a
	//    day, concatenated, with parking gaps between them.
	stream := rawStream()
	fmt.Printf("raw stream: %d points\n", len(stream))

	// 2. Trip splitting: 15-minute gap / 15-minute stationary rule.
	trips := trajmatch.SplitTrips(stream, 15*60, 15*60, 0)
	fmt.Printf("split into %d trips\n", len(trips))

	// 3. Validate and keep the clean ones.
	var clean []*trajmatch.Trajectory
	for _, tr := range trips {
		if err := tr.Validate(); err != nil {
			fmt.Printf("  dropping trip %d: %v\n", tr.ID, err)
			continue
		}
		clean = append(clean, tr)
	}

	// 4. Mix with a synthetic fleet and bulk-load the index.
	fleet := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(400))
	for _, tr := range clean {
		tr.ID += 1_000 // keep IDs disjoint from the fleet's
		fleet = append(fleet, tr)
	}
	idx, err := trajmatch.NewIndex(fleet, trajmatch.IndexOptions{Parallel: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d trips\n", idx.Size())

	// 5. Persist.
	path := filepath.Join(os.TempDir(), "trajtree.arena")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.Save(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(path)
	fmt.Printf("saved index to %s (%d KiB)\n", path, info.Size()/1024)

	// 6. Reload (as a fresh process would) and query.
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	defer os.Remove(path)
	loaded, err := trajmatch.LoadIndex(g)
	if err != nil {
		log.Fatal(err)
	}
	// Serve the reloaded index through the concurrent engine and its
	// unified Search API, the way a fresh process would.
	engine := trajmatch.NewEngineFromIndex(loaded, trajmatch.EngineOptions{})
	ctx := context.Background()
	query := clean[0]
	ans, err := engine.Search(ctx, query, trajmatch.Query{Kind: trajmatch.QueryKNN, K: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n5-NN of ingested trip %d after reload:\n", query.ID)
	for i, r := range ans.Results {
		fmt.Printf("  %d. trip %-5d EDwPavg %.4f\n", i+1, r.Traj.ID, r.Dist)
	}

	// 7. Range query: everything within 1.5× the nearest non-self match.
	radius := ans.Results[1].Dist * 1.5
	within, err := engine.Search(ctx, query, trajmatch.Query{Kind: trajmatch.QueryRange, Radius: radius})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d trips within radius %.2f of trip %d\n", len(within.Results), radius, query.ID)
}

// rawStream synthesises a day of one cab: three trips with parking gaps.
func rawStream() []trajmatch.STPoint {
	rng := rand.New(rand.NewSource(11))
	var pts []trajmatch.STPoint
	t := 6.0 * 3600 // 06:00
	x, y := 2000.0, 2000.0
	for trip := 0; trip < 3; trip++ {
		for i := 0; i < 40; i++ {
			x += rng.NormFloat64() * 120
			y += rng.NormFloat64() * 120
			t += 30 + rng.Float64()*30
			pts = append(pts, trajmatch.P(x, y, t))
		}
		t += 3600 // one hour parked
	}
	return pts
}
