package trajtree

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/traj"
)

func TestSharedBoundTightensMonotonically(t *testing.T) {
	b := backend.NewSharedBound(math.Inf(1))
	if !math.IsInf(b.Load(), 1) {
		t.Fatalf("fresh bound %v, want +Inf", b.Load())
	}
	b.Tighten(5)
	b.Tighten(9) // looser: ignored
	if b.Load() != 5 {
		t.Fatalf("bound %v after Tighten(5), Tighten(9); want 5", b.Load())
	}
	b.Tighten(2)
	if b.Load() != 2 {
		t.Fatalf("bound %v after Tighten(2); want 2", b.Load())
	}

	// Concurrent tightening converges to the minimum offered value.
	b = backend.NewSharedBound(math.Inf(1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 100; i > 0; i-- {
				b.Tighten(float64(g*100 + i))
			}
		}(g)
	}
	wg.Wait()
	if b.Load() != 1 {
		t.Fatalf("concurrent tighten converged to %v, want 1", b.Load())
	}
}

// TestSeededBoundPrunesAboveLimit seeds SearchKNN with a finite
// admissible bound and checks two things: every returned distance is
// within the bound, and the results agree with the plain search's
// results filtered to the bound — the seed prunes work, never answers.
func TestSeededBoundPrunesAboveLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	db := testDB(rng, 120)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	prunedSomething := false
	for it := 0; it < 15; it++ {
		q := db[rng.Intn(len(db))].Clone()
		q.ID = 11_000_000 + it
		k := 4 + rng.Intn(6)
		full, _, _, _ := tree.SearchKNN(q, k, nil, nil)
		// Seed with the median answer distance: a valid upper bound on
		// the k/2-th best, so querying for k/2 neighbours must return
		// exactly the first k/2 of the full answer.
		half := len(full) / 2
		if half == 0 {
			continue
		}
		limit := full[half-1].Dist
		got, st, _, _ := tree.SearchKNN(q, half, backend.NewSharedBound(limit), nil)
		sameResults(t, "SearchKNN(seeded)", got, full[:half])
		for _, r := range got {
			if r.Dist > limit {
				t.Fatalf("result %v exceeds seed bound %v", r.Dist, limit)
			}
		}
		if st.EarlyAbandons > 0 || st.NodesPruned > 0 {
			prunedSomething = true
		}
	}
	if !prunedSomething {
		t.Error("a finite seed bound never pruned anything across the workload")
	}

	// A seed equal to the k-th best distance is admissible, and at an
	// exact tie nothing may be pruned at it: with four clones of member 0
	// and the query on its geometry, five members tie at zero, and a zero
	// seed must still return the three smallest IDs.
	dup := cloneAll(db)
	for i := 0; i < 4; i++ {
		c := db[0].Clone()
		c.ID = 20_000 + i
		dup = append(dup, c)
	}
	tied, err := New(dup, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := db[0].Clone()
	q.ID = 11_100_000
	got, _, _, _ := tied.SearchKNN(q, 3, backend.NewSharedBound(0), nil)
	sameResults(t, "SearchKNN(seeded at an exact tie)", got, referenceKNN(dup, q, 3, false))
}

// TestSharedBoundPartitionsMatchSingleTree is the trajtree-level fan-out
// property behind the sharded engine: partition one corpus into disjoint
// trees, run SearchKNN over all partitions with one shared bound, merge
// with a k-bounded heap, and compare with the single tree over the whole
// corpus. Run both sequentially and with goroutines (the latter matters
// under -race).
func TestSharedBoundPartitionsMatchSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	db := testDB(rng, 150)
	whole, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 4, 7} {
		groups := make([][]*traj.Trajectory, parts)
		for i, tr := range db {
			groups[i%parts] = append(groups[i%parts], tr)
		}
		trees := make([]*Tree, parts)
		for i := range groups {
			if trees[i], err = New(groups[i], testOptions()); err != nil {
				t.Fatal(err)
			}
		}
		for it := 0; it < 12; it++ {
			q := db[rng.Intn(len(db))].Clone()
			q.ID = 12_000_000 + it
			k := 1 + rng.Intn(9)
			want, _, _, _ := whole.SearchKNN(q, k, nil, nil)

			for _, concurrent := range []bool{false, true} {
				bound := backend.NewSharedBound(math.Inf(1))
				per := make([][]Result, parts)
				if concurrent {
					var wg sync.WaitGroup
					for i := range trees {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							per[i], _, _, _ = trees[i].SearchKNN(q, k, bound, nil)
						}(i)
					}
					wg.Wait()
				} else {
					for i := range trees {
						per[i], _, _, _ = trees[i].SearchKNN(q, k, bound, nil)
					}
				}
				merged := backend.NewKBest(k)
				for _, rs := range per {
					for _, r := range rs {
						merged.Offer(r.Traj, r.Dist)
					}
				}
				sameResults(t, "merged partitions", merged.Results(), want)
			}
		}
	}
}

// TestSeededAtKthKeepsTies seeds the shared bound at exactly the k-th
// distance of the unseeded search and requires the unseeded answer, for
// k-NN and sub k-NN, on a corpus of exact ties at positive distances
// whose member screens are tight. Each query is a straight line; the
// corpus holds copies of it shifted sideways by h, on both sides, so a
// whole group ties at distance 4·h·len (raw) and k cuts the group. On
// such a pair both tiers of the two-sided screen equal the distance
// itself, up to the rounding of a different sum: a member whose screen
// lands an ulp above the limit must still reach the kernel and the ID
// tie-break.
func TestSeededAtKthKeepsTies(t *testing.T) {
	rng := rand.New(rand.NewSource(119))
	var db, queries []*traj.Trajectory
	id := 0
	for qi := 0; qi < 24; qi++ {
		x0, y0 := rng.Float64()*1000, rng.Float64()*1000
		step := 0.1 + rng.Float64()*7
		n := 3 + rng.Intn(6)
		line := func(id int, dy float64) *traj.Trajectory {
			pts := make([]traj.Point, n)
			for i := range pts {
				pts[i] = traj.P(x0+step*float64(i)+0.37*float64(i*i%3), y0+dy, float64(i))
			}
			return traj.New(id, pts)
		}
		queries = append(queries, line(9_000_000+qi, 0))
		h := 0.01 + rng.Float64()*3
		for c := 0; c < 6; c++ {
			dy := h
			if c%2 == 1 {
				dy = -h
			}
			db = append(db, line(id, dy))
			id++
		}
		db = append(db, line(id, 4*h))
		id++
	}
	for _, cumulative := range []bool{false, true} {
		opt := testOptions()
		opt.Cumulative = cumulative
		tree, err := New(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			for _, k := range []int{2, 3, 5} {
				label := fmt.Sprintf("cumulative=%v query %d k=%d", cumulative, qi, k)
				want, _, _, err := tree.SearchKNN(q, k, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, _, _, err := tree.SearchKNN(q, k, backend.NewSharedBound(want[k-1].Dist), nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, label+" knn seeded at the k-th distance", got, want)
				want, _, _, err = tree.SearchSub(q, k, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, _, _, err = tree.SearchSub(q, k, backend.NewSharedBound(want[k-1].Dist), nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, label+" subknn seeded at the k-th distance", got, want)
			}
		}
	}
}
