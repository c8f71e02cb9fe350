package backend_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"trajmatch/internal/backend"
	"trajmatch/internal/dtwindex"
	"trajmatch/internal/edrindex"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

func taxiDB(n int) []*traj.Trajectory {
	cfg := synth.DefaultTaxi(n)
	cfg.CitySize = 3000
	return synth.Taxi(cfg)
}

type flatCase struct {
	name string
	ix   *backend.Flat
}

// flatIndexes builds every Flat metric over db.
func flatIndexes(db []*traj.Trajectory) []flatCase {
	return []flatCase{
		{dtwindex.MetricName, dtwindex.New(db)},
		{edrindex.MetricName, edrindex.New(db, 60)},
	}
}

func ids(db []*traj.Trajectory) []int {
	out := make([]int, len(db))
	for i, t := range db {
		out[i] = t.ID
	}
	return out
}

// sameResults requires identical IDs and distances, in order.
func sameResults(t *testing.T, label string, got, want []backend.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Traj.ID != want[i].Traj.ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s rank %d: (%d, %v), want (%d, %v)",
				label, i, got[i].Traj.ID, got[i].Dist, want[i].Traj.ID, want[i].Dist)
		}
	}
}

// TestFlatIndexes pins the Flat search contract for every flat metric on
// a corpus where every trajectory has a duplicate under a fresh ID, so
// exact distance ties are everywhere: k-NN and range answers equal the
// brute scan's (distance, ID) order exactly, the candidate-restricted
// search over every ID is the full search (answers and work), unknown
// IDs are skipped, an empty ID list answers empty, and a fired Ctl
// answers its error.
func TestFlatIndexes(t *testing.T) {
	base := taxiDB(30)
	var db []*traj.Trajectory
	for i, tr := range base {
		dup := tr.Clone()
		dup.ID = 1000 + i
		db = append(db, tr, dup)
	}
	all := ids(db)
	for _, c := range flatIndexes(db) {
		t.Run(c.name, func(t *testing.T) {
			for it := 0; it < 10; it++ {
				q := base[it*3%len(base)]
				brute := c.ix.KNNBrute(q, len(db))
				for _, k := range []int{1, 3, 7} {
					label := fmt.Sprintf("q=%d k=%d", q.ID, k)
					got, st, truncated, err := c.ix.SearchKNN(q, k, nil, nil)
					if err != nil || truncated {
						t.Fatalf("%s: err=%v truncated=%v", label, err, truncated)
					}
					sameResults(t, label+" knn", got, brute[:k])

					in, inSt, _, err := c.ix.SearchKNNIn(q, all, k, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, label+" knn-in(all)", in, got)
					if inSt != st {
						t.Fatalf("%s: knn-in(all) stats %+v, knn %+v", label, inSt, st)
					}

					radius := brute[k-1].Dist
					var want []backend.Result
					for _, r := range brute {
						if r.Dist <= radius {
							want = append(want, r)
						}
					}
					rng, _, _, err := c.ix.SearchKNN(q, math.MaxInt, backend.NewSharedBound(radius), nil)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, label+" range", rng, want)
				}
			}

			q := base[5]
			known := []int{3, 7, 1003, 1020}
			want, wantSt, _, _ := c.ix.SearchKNNIn(q, known, 2, nil, nil)
			got, st, _, _ := c.ix.SearchKNNIn(q, []int{-4, 3, 7, 500, 1003, 1020, 99999}, 2, nil, nil)
			sameResults(t, "unknown IDs", got, want)
			if st != wantSt || st.LowerBoundCalls != len(known) {
				t.Fatalf("unknown IDs: stats %+v, want %+v with %d bounds", st, wantSt, len(known))
			}

			for _, empty := range [][]int{nil, {}} {
				if res, st, _, err := c.ix.SearchKNNIn(q, empty, 5, nil, nil); len(res) != 0 || st != (backend.Stats{}) || err != nil {
					t.Fatalf("empty ID list %#v: %d results, stats %+v, err %v", empty, len(res), st, err)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ctl := backend.NewCtl(ctx, 0)
			defer ctl.Release()
			for name, search := range map[string]func() ([]backend.Result, backend.Stats, bool, error){
				"knn":    func() ([]backend.Result, backend.Stats, bool, error) { return c.ix.SearchKNN(q, 5, nil, ctl) },
				"knn-in": func() ([]backend.Result, backend.Stats, bool, error) { return c.ix.SearchKNNIn(q, all, 5, nil, ctl) },
				"range": func() ([]backend.Result, backend.Stats, bool, error) {
					return c.ix.SearchKNN(q, math.MaxInt, backend.NewSharedBound(1e9), ctl)
				},
			} {
				if res, _, _, err := search(); !errors.Is(err, context.Canceled) || err != ctl.Err() || res != nil {
					t.Fatalf("%s under a fired ctl: %d results, err %v, want %v", name, len(res), err, ctl.Err())
				}
			}
		})
	}
}

// TestFlatDegenerate: an empty index answers empty, k=0 answers empty,
// and k beyond the corpus answers every member.
func TestFlatDegenerate(t *testing.T) {
	q := traj.FromXY(0, 0, 0, 1, 1)
	for _, c := range flatIndexes(nil) {
		if res, _, _, _ := c.ix.SearchKNN(q, 3, nil, nil); len(res) != 0 {
			t.Errorf("%s: kNN over an empty index returned %d results", c.name, len(res))
		}
		if res, _, _, _ := c.ix.SearchKNN(q, math.MaxInt, backend.NewSharedBound(1e9), nil); len(res) != 0 {
			t.Errorf("%s: range over an empty index returned %d results", c.name, len(res))
		}
	}
	db := taxiDB(5)
	for _, c := range flatIndexes(db) {
		if res, _, _, _ := c.ix.SearchKNN(db[0], 0, nil, nil); len(res) != 0 {
			t.Errorf("%s: k=0 returned %d results", c.name, len(res))
		}
		if res, _, _, _ := c.ix.SearchKNN(db[0], 100, nil, nil); len(res) != len(db) {
			t.Errorf("%s: k>n returned %d results, want %d", c.name, len(res), len(db))
		}
	}
}

// TestFlatWorkCountersGolden pins the work counters of fixed DTW and EDR
// searches: the candidate pass, the pruning and the abandons. A change
// to a bound, a kernel or the scan moves them; re-capture and say so.
// knn-in searches the even IDs only.
func TestFlatWorkCountersGolden(t *testing.T) {
	db := taxiDB(80)
	var even []int
	for _, tr := range db {
		if tr.ID%2 == 0 {
			even = append(even, tr.ID)
		}
	}
	type counters struct{ dist, lb, pruned, abandons int }
	golden := map[string]map[string]counters{
		dtwindex.MetricName: {
			"knn q=3": {10, 80, 70, 3}, "knn q=17": {48, 80, 32, 17}, "knn q=42": {26, 80, 54, 11},
			"knn-in q=17": {28, 40, 12, 8}, "range q=42": {40, 80, 40, 10},
		},
		edrindex.MetricName: {
			"knn q=3": {8, 80, 72, 1}, "knn q=17": {47, 80, 33, 0}, "knn q=42": {22, 80, 58, 3},
			"knn-in q=17": {25, 40, 15, 0}, "range q=42": {22, 80, 58, 4},
		},
	}
	radius := map[string]float64{dtwindex.MetricName: 20000, edrindex.MetricName: 21}
	for _, c := range flatIndexes(db) {
		got := map[string]backend.Stats{}
		for _, qi := range []int{3, 17, 42} {
			_, got[fmt.Sprintf("knn q=%d", qi)], _, _ = c.ix.SearchKNN(db[qi], 5, nil, nil)
		}
		_, got["knn-in q=17"], _, _ = c.ix.SearchKNNIn(db[17], even, 5, nil, nil)
		_, got["range q=42"], _, _ = c.ix.SearchKNN(db[42], math.MaxInt, backend.NewSharedBound(radius[c.name]), nil)
		for name, st := range got {
			if g, w := (counters{st.DistanceCalls, st.LowerBoundCalls, st.NodesPruned, st.EarlyAbandons}), golden[c.name][name]; g != w {
				t.Errorf("%s %s: (dist, lb, pruned, abandons) = %v, want %v", c.name, name, g, w)
			}
		}
	}
}
