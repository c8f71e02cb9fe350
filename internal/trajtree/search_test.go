package trajtree

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/traj"
)

// SearchSub must agree with a brute-force EDwPsub ranking — searched as
// one tree and fanned out over 2 and 4 disjoint trees sharing one bound,
// unseeded and seeded with an admissible limit — while, now that it is
// the indexed descent, evaluating fewer members than the scan it was.
func TestSearchSubMatchesBruteScan(t *testing.T) {
	db := testDB(rand.New(rand.NewSource(5)), 90)
	for _, parts := range []int{1, 2, 4} {
		groups := make([][]*traj.Trajectory, parts)
		for i, tr := range cloneAll(db) {
			groups[i%parts] = append(groups[i%parts], tr)
		}
		trees := make([]*Tree, parts)
		for i := range trees {
			var err error
			if trees[i], err = New(groups[i], Options{Seed: 1, LeafSize: 5}); err != nil {
				t.Fatal(err)
			}
		}
		for it := 0; it < 8; it++ {
			full := db[(it*7)%len(db)]
			// Query with a fragment of a database trajectory so sub-matching
			// has something real to find.
			n := len(full.Points)
			lo, hi := n/4, n/4+max(2, n/3)
			if hi > n {
				hi = n
			}
			q := traj.New(800_000+it, append([]traj.Point(nil), full.Points[lo:hi]...))
			k := 1 + it%5

			type pair struct {
				id int
				d  float64
			}
			ref := make([]pair, 0, len(db))
			for _, tr := range db {
				ref = append(ref, pair{tr.ID, core.SubDistance(q, tr)})
			}
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].d != ref[j].d {
					return ref[i].d < ref[j].d
				}
				return ref[i].id < ref[j].id
			})

			for _, seed := range []float64{math.Inf(1), 1.5*ref[k-1].d + 1} {
				bound := backend.NewSharedBound(seed)
				merged := backend.NewKBest(k)
				calls := 0
				for _, tree := range trees {
					got, st, trunc, err := tree.SearchSub(q, k, bound, nil)
					if err != nil || trunc {
						t.Fatalf("parts=%d it=%d: SearchSub trunc=%v err=%v", parts, it, trunc, err)
					}
					calls += st.DistanceCalls
					for _, r := range got {
						merged.Offer(r.Traj, r.Dist)
					}
				}
				if calls >= len(db) {
					t.Fatalf("parts=%d it=%d: %d distance calls over %d members: the descent pruned nothing", parts, it, calls, len(db))
				}
				got := merged.Results()
				if len(got) != k {
					t.Fatalf("parts=%d it=%d: %d results, want %d", parts, it, len(got), k)
				}
				for i, r := range got {
					if diff := math.Abs(r.Dist - ref[i].d); diff > 1e-9 {
						t.Fatalf("parts=%d it=%d seed=%v rank %d: dist %v, brute %v (T%d vs T%d)",
							parts, it, seed, i, r.Dist, ref[i].d, r.Traj.ID, ref[i].id)
					}
				}
			}
		}
	}
}

// A cancelled context surfaces as the context's error from every search
// path, pre-fired or fired mid-search.
func TestSearchCancelledContext(t *testing.T) {
	db := testDB(rand.New(rand.NewSource(9)), 120)
	tree, err := New(db, Options{Seed: 1, LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := db[11].Clone()
	q.ID = 900_001

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl := NewCtl(ctx, 0)
	defer ctl.Release()

	if _, _, _, err := tree.SearchKNN(q, 5, nil, ctl); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchKNN on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, _, err := tree.SearchRange(q, 50, ctl); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchRange on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, _, err := tree.SearchSub(q, 5, nil, ctl); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchSub on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// An exhausted evaluation budget truncates the search instead of
// erroring, and the budget is respected exactly.
func TestSearchBudgetTruncates(t *testing.T) {
	db := testDB(rand.New(rand.NewSource(13)), 140)
	tree, err := New(db, Options{Seed: 1, LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := db[17].Clone()
	q.ID = 900_002

	want, full, _, _ := tree.SearchKNN(q, 10, nil, nil)
	budget := full.DistanceCalls / 2
	if budget == 0 {
		t.Fatalf("full search made no distance calls")
	}

	ctl := NewCtl(context.Background(), budget)
	defer ctl.Release()
	res, st, trunc, err := tree.SearchKNN(q, 10, nil, ctl)
	if err != nil {
		t.Fatalf("budgeted search errored: %v", err)
	}
	if !trunc {
		t.Fatalf("budget %d of %d evals did not truncate", budget, full.DistanceCalls)
	}
	if st.DistanceCalls > budget {
		t.Fatalf("made %d distance calls, budget %d", st.DistanceCalls, budget)
	}
	if len(res) == 0 {
		t.Fatalf("truncated search returned no best-effort results")
	}

	// A budget covering the full search changes nothing and reports no
	// truncation.
	ctl2 := NewCtl(context.Background(), full.DistanceCalls)
	defer ctl2.Release()
	res2, st2, trunc2, err := tree.SearchKNN(q, 10, nil, ctl2)
	if err != nil || trunc2 {
		t.Fatalf("exact-budget search trunc=%v err=%v", trunc2, err)
	}
	sameResults(t, "exact-budget", res2, want)
	if st2.DistanceCalls != full.DistanceCalls {
		t.Fatalf("exact-budget made %d calls, want %d", st2.DistanceCalls, full.DistanceCalls)
	}
}
