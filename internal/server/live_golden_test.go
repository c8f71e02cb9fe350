package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"trajmatch/internal/traj"
)

// liveGoldenEngine builds a small engine with more live tracks than any
// k the golden asks for, including exact duplicates of each other (8003,
// 8010, 8011) and of a sealed member (8012 copies sealed ID 4), so that
// distances tie exactly at the k-th boundary. One track (8013) holds a
// single point and is not yet searchable. Workers 1 makes the shard
// fan-out sequential, so every work counter is deterministic.
func liveGoldenEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e := newTestEngine(t, 30, Options{Shards: shards, Workers: 1, CacheSize: -1})
	pool := testDB(16, 31)
	add := func(id int, pts []traj.Point) {
		t.Helper()
		if _, err := e.Append(id, id%3, pts); err != nil {
			t.Fatalf("append %d: %v", id, err)
		}
	}
	for i := 0; i < 10; i++ {
		add(8000+i, pool[i].Points)
	}
	add(8010, pool[3].Points)
	add(8011, pool[3].Points)
	add(8012, e.Lookup(4).Points)
	add(8013, pool[5].Points[:1])
	return e
}

// shifted copies pts moved by dx along x into a trajectory with the
// given ID.
func shifted(id int, pts []traj.Point, dx float64) *traj.Trajectory {
	out := make([]traj.Point, len(pts))
	for i, p := range pts {
		out[i] = traj.P(p.X+dx, p.Y, p.T)
	}
	return traj.New(id, out)
}

// liveGoldenRows runs every golden case and renders one row per case:
// the answer (IDs and exact distances), the truncation flag, and the
// DistanceCalls and EarlyAbandons the query spent.
func liveGoldenRows(t *testing.T) []liveGoldenRow {
	ctx := context.Background()
	var rows []liveGoldenRow
	for _, shards := range []int{1, 2} {
		e := liveGoldenEngine(t, shards)
		pool := testDB(16, 31)
		queries := map[string]*traj.Trajectory{
			"dup":    shifted(9_900_001, pool[3].Points, 0.5),   // ties 8003/8010/8011
			"sealed": shifted(9_900_002, e.Lookup(4).Points, 0), // ties sealed 4 with 8012 at 0
			"other":  shifted(9_900_003, pool[7].Points, 3),
		}
		sub := traj.New(9_900_004, append([]traj.Point(nil), pool[3].Points[1:4]...))
		// The duplicate triple's exact distance: the k-th boundary the
		// limit and radius cases sit on.
		first, err := e.Search(ctx, queries["dup"], Query{Kind: KindKNN, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		tie := first.Results[0].Dist
		var cases []struct {
			name string
			q    *traj.Trajectory
			req  Query
		}
		add := func(name string, q *traj.Trajectory, req Query) {
			req.WithStats = true
			cases = append(cases, struct {
				name string
				q    *traj.Trajectory
				req  Query
			}{fmt.Sprintf("shards=%d/%s", shards, name), q, req})
		}
		for _, qn := range []string{"dup", "sealed", "other"} {
			q := queries[qn]
			for _, k := range []int{1, 2, 3, 5} {
				for _, budget := range []int{0, 3, 12, 30, 45} {
					add(fmt.Sprintf("knn/%s/k=%d/max_evals=%d", qn, k, budget), q, Query{Kind: KindKNN, K: k, MaxEvals: budget})
				}
			}
		}
		for _, limit := range []float64{tie, tie * 1.5, tie * 40} {
			for _, k := range []int{2, 3, 5} {
				add(fmt.Sprintf("knn/dup/k=%d/limit=%g", k, limit), queries["dup"], Query{Kind: KindKNN, K: k, Limit: limit})
				add(fmt.Sprintf("knn/dup/k=%d/limit=%g/max_evals=30", k, limit), queries["dup"], Query{Kind: KindKNN, K: k, Limit: limit, MaxEvals: 30})
			}
		}
		for _, radius := range []float64{0, tie, tie * 40} {
			for _, budget := range []int{0, 12, 30} {
				add(fmt.Sprintf("range/dup/radius=%g/max_evals=%d", radius, budget), queries["dup"], Query{Kind: KindRange, Radius: radius, MaxEvals: budget})
			}
		}
		for _, k := range []int{1, 2, 3, 5} {
			for _, budget := range []int{0, 12, 30, 45} {
				add(fmt.Sprintf("subknn/k=%d/max_evals=%d", k, budget), sub, Query{Kind: KindSubKNN, K: k, MaxEvals: budget})
			}
			add(fmt.Sprintf("subknn/k=%d/limit=1", k), sub, Query{Kind: KindSubKNN, K: k, Limit: 1})
		}
		for _, c := range cases {
			ans, err := e.Search(ctx, c.q, c.req)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var b strings.Builder
			for i, r := range ans.Results {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d:%s", r.Traj.ID, fmt.Sprint(r.Dist))
			}
			if ans.Truncated {
				b.WriteString(" truncated")
			}
			rows = append(rows, liveGoldenRow{c.name, b.String(), ans.Stats.DistanceCalls, ans.Stats.EarlyAbandons})
		}
	}
	return rows
}

type liveGoldenRow struct {
	Case          string
	Answer        string
	DistanceCalls int
	EarlyAbandons int
}

// TestLiveStageGolden pins the live-track stage of every search kind
// against answers captured before that stage became the flat scan
// (backend.ScanKNN): the answers must stay byte-equal and
// DistanceCalls equal, while EarlyAbandons may only rise — the scan's
// limit now also tightens on the live tracks' own k-th best.
func TestLiveStageGolden(t *testing.T) {
	got := liveGoldenRows(t)
	want := map[string]liveGoldenRow{}
	for _, r := range liveGolden {
		want[r.Case] = r
	}
	bad := len(got) != len(liveGolden)
	for _, g := range got {
		w, ok := want[g.Case]
		switch {
		case !ok:
			t.Errorf("%s: no golden row", g.Case)
		case g.Answer != w.Answer:
			t.Errorf("%s: answer %q, golden %q", g.Case, g.Answer, w.Answer)
		case g.DistanceCalls != w.DistanceCalls:
			t.Errorf("%s: distance calls %d, golden %d", g.Case, g.DistanceCalls, w.DistanceCalls)
		case g.EarlyAbandons < w.EarlyAbandons:
			t.Errorf("%s: early abandons %d below golden %d", g.Case, g.EarlyAbandons, w.EarlyAbandons)
		default:
			continue
		}
		bad = true
	}
	if bad {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "\t{%q, %q, %d, %d},\n", r.Case, r.Answer, r.DistanceCalls, r.EarlyAbandons)
		}
		t.Errorf("%d rows, golden has %d; got\n%s", len(got), len(liveGolden), b.String())
	}
}

// liveGolden was captured with the hand-written live-track loop the
// flat scan replaced, and re-captured when the sealed tree's descent
// began to queue leaf members at their own screens: the exact answers
// stayed, while every DistanceCalls that moved fell (3 285 → 2 885
// summed), because members cut at their bounding boxes no longer reach
// the verify step, and so did EarlyAbandons. The best-effort answers of
// 23 truncated rows changed, since the budget now buys the members in
// bound order across leaves; two of them now complete within it.
var liveGolden = []liveGoldenRow{
	{"shards=1/knn/dup/k=1/max_evals=0", "8003:0.8027941887666665", 14, 10},
	{"shards=1/knn/dup/k=1/max_evals=3", "22:121.34273958788168 truncated", 3, 2},
	{"shards=1/knn/dup/k=1/max_evals=12", "8003:0.8027941887666665 truncated", 12, 9},
	{"shards=1/knn/dup/k=1/max_evals=30", "8003:0.8027941887666665", 14, 10},
	{"shards=1/knn/dup/k=1/max_evals=45", "8003:0.8027941887666665", 14, 10},
	{"shards=1/knn/dup/k=2/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665", 15, 10},
	{"shards=1/knn/dup/k=2/max_evals=3", "22:121.34273958788168 15:214.5534534448171 truncated", 3, 1},
	{"shards=1/knn/dup/k=2/max_evals=12", "8003:0.8027941887666665 22:121.34273958788168 truncated", 12, 9},
	{"shards=1/knn/dup/k=2/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665", 15, 10},
	{"shards=1/knn/dup/k=2/max_evals=45", "8003:0.8027941887666665 8010:0.8027941887666665", 15, 10},
	{"shards=1/knn/dup/k=3/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 16, 10},
	{"shards=1/knn/dup/k=3/max_evals=3", "22:121.34273958788168 15:214.5534534448171 13:257.3550094514206 truncated", 3, 0},
	{"shards=1/knn/dup/k=3/max_evals=12", "8003:0.8027941887666665 22:121.34273958788168 15:214.5534534448171 truncated", 12, 8},
	{"shards=1/knn/dup/k=3/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 16, 10},
	{"shards=1/knn/dup/k=3/max_evals=45", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 16, 10},
	{"shards=1/knn/dup/k=5/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 22:121.34273958788168 15:214.5534534448171", 18, 8},
	{"shards=1/knn/dup/k=5/max_evals=3", "22:121.34273958788168 15:214.5534534448171 13:257.3550094514206 truncated", 3, 0},
	{"shards=1/knn/dup/k=5/max_evals=12", "8003:0.8027941887666665 22:121.34273958788168 15:214.5534534448171 13:257.3550094514206 8006:350.1976609988482 truncated", 12, 5},
	{"shards=1/knn/dup/k=5/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 22:121.34273958788168 15:214.5534534448171", 18, 8},
	{"shards=1/knn/dup/k=5/max_evals=45", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 22:121.34273958788168 15:214.5534534448171", 18, 8},
	{"shards=1/knn/sealed/k=1/max_evals=0", "4:0", 14, 12},
	{"shards=1/knn/sealed/k=1/max_evals=3", "4:0 truncated", 3, 2},
	{"shards=1/knn/sealed/k=1/max_evals=12", "4:0 truncated", 12, 11},
	{"shards=1/knn/sealed/k=1/max_evals=30", "4:0", 14, 12},
	{"shards=1/knn/sealed/k=1/max_evals=45", "4:0", 14, 12},
	{"shards=1/knn/sealed/k=2/max_evals=0", "4:0 8012:0", 15, 12},
	{"shards=1/knn/sealed/k=2/max_evals=3", "4:0 7:56.172165918156516 truncated", 3, 1},
	{"shards=1/knn/sealed/k=2/max_evals=12", "4:0 7:56.172165918156516 truncated", 12, 10},
	{"shards=1/knn/sealed/k=2/max_evals=30", "4:0 8012:0", 15, 12},
	{"shards=1/knn/sealed/k=2/max_evals=45", "4:0 8012:0", 15, 12},
	{"shards=1/knn/sealed/k=3/max_evals=0", "4:0 8012:0 7:56.172165918156516", 17, 12},
	{"shards=1/knn/sealed/k=3/max_evals=3", "4:0 7:56.172165918156516 5:106.49948565171027 truncated", 3, 0},
	{"shards=1/knn/sealed/k=3/max_evals=12", "4:0 7:56.172165918156516 5:106.49948565171027 truncated", 12, 9},
	{"shards=1/knn/sealed/k=3/max_evals=30", "4:0 8012:0 7:56.172165918156516", 17, 12},
	{"shards=1/knn/sealed/k=3/max_evals=45", "4:0 8012:0 7:56.172165918156516", 17, 12},
	{"shards=1/knn/sealed/k=5/max_evals=0", "4:0 8012:0 7:56.172165918156516 8008:78.86853144800779 5:106.49948565171027", 18, 11},
	{"shards=1/knn/sealed/k=5/max_evals=3", "4:0 7:56.172165918156516 5:106.49948565171027 truncated", 3, 0},
	{"shards=1/knn/sealed/k=5/max_evals=12", "4:0 7:56.172165918156516 5:106.49948565171027 0:113.62248615541729 8:194.83454713007967 truncated", 12, 7},
	{"shards=1/knn/sealed/k=5/max_evals=30", "4:0 8012:0 7:56.172165918156516 8008:78.86853144800779 5:106.49948565171027", 18, 11},
	{"shards=1/knn/sealed/k=5/max_evals=45", "4:0 8012:0 7:56.172165918156516 8008:78.86853144800779 5:106.49948565171027", 18, 11},
	{"shards=1/knn/other/k=1/max_evals=0", "8007:4.530034019523701", 14, 12},
	{"shards=1/knn/other/k=1/max_evals=3", "23:223.45903045389895 truncated", 3, 2},
	{"shards=1/knn/other/k=1/max_evals=12", "8007:4.530034019523701 truncated", 12, 10},
	{"shards=1/knn/other/k=1/max_evals=30", "8007:4.530034019523701", 14, 12},
	{"shards=1/knn/other/k=1/max_evals=45", "8007:4.530034019523701", 14, 12},
	{"shards=1/knn/other/k=2/max_evals=0", "8007:4.530034019523701 23:223.45903045389895", 15, 12},
	{"shards=1/knn/other/k=2/max_evals=3", "23:223.45903045389895 10:258.1208719028721 truncated", 3, 1},
	{"shards=1/knn/other/k=2/max_evals=12", "8007:4.530034019523701 23:223.45903045389895 truncated", 12, 9},
	{"shards=1/knn/other/k=2/max_evals=30", "8007:4.530034019523701 23:223.45903045389895", 15, 12},
	{"shards=1/knn/other/k=2/max_evals=45", "8007:4.530034019523701 23:223.45903045389895", 15, 12},
	{"shards=1/knn/other/k=3/max_evals=0", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721", 16, 12},
	{"shards=1/knn/other/k=3/max_evals=3", "23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 truncated", 3, 0},
	{"shards=1/knn/other/k=3/max_evals=12", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721 truncated", 12, 8},
	{"shards=1/knn/other/k=3/max_evals=30", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721", 16, 12},
	{"shards=1/knn/other/k=3/max_evals=45", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721", 16, 12},
	{"shards=1/knn/other/k=5/max_evals=0", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 9:413.16700714291784", 19, 13},
	{"shards=1/knn/other/k=5/max_evals=3", "23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 truncated", 3, 0},
	{"shards=1/knn/other/k=5/max_evals=12", "23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 9:413.16700714291784 0:422.88429398869476 truncated", 12, 7},
	{"shards=1/knn/other/k=5/max_evals=30", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 9:413.16700714291784", 19, 13},
	{"shards=1/knn/other/k=5/max_evals=45", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 9:413.16700714291784", 19, 13},
	{"shards=1/knn/dup/k=2/limit=0.8027941887666665", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=2/limit=0.8027941887666665/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=3/limit=0.8027941887666665", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=3/limit=0.8027941887666665/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=5/limit=0.8027941887666665", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=5/limit=0.8027941887666665/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=2/limit=1.2041912831499997", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=2/limit=1.2041912831499997/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=3/limit=1.2041912831499997", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=3/limit=1.2041912831499997/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=5/limit=1.2041912831499997", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=5/limit=1.2041912831499997/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=2/limit=32.11176755066666", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=2/limit=32.11176755066666/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=3/limit=32.11176755066666", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=3/limit=32.11176755066666/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=5/limit=32.11176755066666", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/knn/dup/k=5/limit=32.11176755066666/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/range/dup/radius=0/max_evals=0", "", 13, 13},
	{"shards=1/range/dup/radius=0/max_evals=12", " truncated", 12, 12},
	{"shards=1/range/dup/radius=0/max_evals=30", "", 13, 13},
	{"shards=1/range/dup/radius=0.8027941887666665/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/range/dup/radius=0.8027941887666665/max_evals=12", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 truncated", 12, 9},
	{"shards=1/range/dup/radius=0.8027941887666665/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/range/dup/radius=32.11176755066666/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/range/dup/radius=32.11176755066666/max_evals=12", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 truncated", 12, 9},
	{"shards=1/range/dup/radius=32.11176755066666/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=1/subknn/k=1/max_evals=0", "8003:0", 14, 10},
	{"shards=1/subknn/k=1/max_evals=12", "8003:0 truncated", 12, 9},
	{"shards=1/subknn/k=1/max_evals=30", "8003:0", 14, 10},
	{"shards=1/subknn/k=1/max_evals=45", "8003:0", 14, 10},
	{"shards=1/subknn/k=1/limit=1", "8003:0", 13, 10},
	{"shards=1/subknn/k=2/max_evals=0", "8003:0 8010:0", 15, 10},
	{"shards=1/subknn/k=2/max_evals=12", "8003:0 22:1619.4167359648595 truncated", 12, 9},
	{"shards=1/subknn/k=2/max_evals=30", "8003:0 8010:0", 15, 10},
	{"shards=1/subknn/k=2/max_evals=45", "8003:0 8010:0", 15, 10},
	{"shards=1/subknn/k=2/limit=1", "8003:0 8010:0", 13, 10},
	{"shards=1/subknn/k=3/max_evals=0", "8003:0 8010:0 8011:0", 16, 10},
	{"shards=1/subknn/k=3/max_evals=12", "8003:0 22:1619.4167359648595 15:2624.830965397127 truncated", 12, 8},
	{"shards=1/subknn/k=3/max_evals=30", "8003:0 8010:0 8011:0", 16, 10},
	{"shards=1/subknn/k=3/max_evals=45", "8003:0 8010:0 8011:0", 16, 10},
	{"shards=1/subknn/k=3/limit=1", "8003:0 8010:0 8011:0", 13, 10},
	{"shards=1/subknn/k=5/max_evals=0", "8003:0 8010:0 8011:0 22:1619.4167359648595 15:2624.830965397127", 18, 8},
	{"shards=1/subknn/k=5/max_evals=12", "8003:0 22:1619.4167359648595 15:2624.830965397127 13:3217.061043314779 8006:4084.129471785809 truncated", 12, 5},
	{"shards=1/subknn/k=5/max_evals=30", "8003:0 8010:0 8011:0 22:1619.4167359648595 15:2624.830965397127", 18, 8},
	{"shards=1/subknn/k=5/max_evals=45", "8003:0 8010:0 8011:0 22:1619.4167359648595 15:2624.830965397127", 18, 8},
	{"shards=1/subknn/k=5/limit=1", "8003:0 8010:0 8011:0", 13, 10},
	{"shards=2/knn/dup/k=1/max_evals=0", "8003:0.8027941887666665", 15, 10},
	{"shards=2/knn/dup/k=1/max_evals=3", "22:121.34273958788168 truncated", 3, 1},
	{"shards=2/knn/dup/k=1/max_evals=12", "8003:0.8027941887666665 truncated", 12, 9},
	{"shards=2/knn/dup/k=1/max_evals=30", "8003:0.8027941887666665", 15, 10},
	{"shards=2/knn/dup/k=1/max_evals=45", "8003:0.8027941887666665", 15, 10},
	{"shards=2/knn/dup/k=2/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665", 17, 10},
	{"shards=2/knn/dup/k=2/max_evals=3", "22:121.34273958788168 25:389.54131993725287 truncated", 3, 0},
	{"shards=2/knn/dup/k=2/max_evals=12", "8003:0.8027941887666665 22:121.34273958788168 truncated", 12, 7},
	{"shards=2/knn/dup/k=2/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665", 17, 10},
	{"shards=2/knn/dup/k=2/max_evals=45", "8003:0.8027941887666665 8010:0.8027941887666665", 17, 10},
	{"shards=2/knn/dup/k=3/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 20, 11},
	{"shards=2/knn/dup/k=3/max_evals=3", "25:389.54131993725287 17:548.209577001907 20:773.8796378587037 truncated", 3, 0},
	{"shards=2/knn/dup/k=3/max_evals=12", "8003:0.8027941887666665 22:121.34273958788168 15:214.5534534448171 truncated", 12, 5},
	{"shards=2/knn/dup/k=3/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 20, 11},
	{"shards=2/knn/dup/k=3/max_evals=45", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 20, 11},
	{"shards=2/knn/dup/k=5/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 22:121.34273958788168 15:214.5534534448171", 24, 9},
	{"shards=2/knn/dup/k=5/max_evals=3", "25:389.54131993725287 17:548.209577001907 20:773.8796378587037 truncated", 3, 0},
	{"shards=2/knn/dup/k=5/max_evals=12", "22:121.34273958788168 15:214.5534534448171 13:257.3550094514206 26:350.5187474717286 25:389.54131993725287 truncated", 12, 2},
	{"shards=2/knn/dup/k=5/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 22:121.34273958788168 15:214.5534534448171", 24, 9},
	{"shards=2/knn/dup/k=5/max_evals=45", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 22:121.34273958788168 15:214.5534534448171", 24, 9},
	{"shards=2/knn/sealed/k=1/max_evals=0", "4:0", 14, 12},
	{"shards=2/knn/sealed/k=1/max_evals=3", "4:0 truncated", 3, 2},
	{"shards=2/knn/sealed/k=1/max_evals=12", "4:0 truncated", 12, 11},
	{"shards=2/knn/sealed/k=1/max_evals=30", "4:0", 14, 12},
	{"shards=2/knn/sealed/k=1/max_evals=45", "4:0", 14, 12},
	{"shards=2/knn/sealed/k=2/max_evals=0", "4:0 8012:0", 15, 12},
	{"shards=2/knn/sealed/k=2/max_evals=3", "4:0 7:56.172165918156516 truncated", 3, 1},
	{"shards=2/knn/sealed/k=2/max_evals=12", "4:0 7:56.172165918156516 truncated", 12, 10},
	{"shards=2/knn/sealed/k=2/max_evals=30", "4:0 8012:0", 15, 12},
	{"shards=2/knn/sealed/k=2/max_evals=45", "4:0 8012:0", 15, 12},
	{"shards=2/knn/sealed/k=3/max_evals=0", "4:0 8012:0 7:56.172165918156516", 17, 12},
	{"shards=2/knn/sealed/k=3/max_evals=3", "4:0 7:56.172165918156516 5:106.49948565171027 truncated", 3, 0},
	{"shards=2/knn/sealed/k=3/max_evals=12", "4:0 7:56.172165918156516 5:106.49948565171027 truncated", 12, 9},
	{"shards=2/knn/sealed/k=3/max_evals=30", "4:0 8012:0 7:56.172165918156516", 17, 12},
	{"shards=2/knn/sealed/k=3/max_evals=45", "4:0 8012:0 7:56.172165918156516", 17, 12},
	{"shards=2/knn/sealed/k=5/max_evals=0", "4:0 8012:0 7:56.172165918156516 8008:78.86853144800779 5:106.49948565171027", 18, 11},
	{"shards=2/knn/sealed/k=5/max_evals=3", "4:0 7:56.172165918156516 5:106.49948565171027 truncated", 3, 0},
	{"shards=2/knn/sealed/k=5/max_evals=12", "4:0 7:56.172165918156516 5:106.49948565171027 0:113.62248615541729 8:194.83454713007967 truncated", 12, 7},
	{"shards=2/knn/sealed/k=5/max_evals=30", "4:0 8012:0 7:56.172165918156516 8008:78.86853144800779 5:106.49948565171027", 18, 11},
	{"shards=2/knn/sealed/k=5/max_evals=45", "4:0 8012:0 7:56.172165918156516 8008:78.86853144800779 5:106.49948565171027", 18, 11},
	{"shards=2/knn/other/k=1/max_evals=0", "8007:4.530034019523701", 15, 12},
	{"shards=2/knn/other/k=1/max_evals=3", "23:223.45903045389895 truncated", 3, 1},
	{"shards=2/knn/other/k=1/max_evals=12", "8007:4.530034019523701 truncated", 12, 9},
	{"shards=2/knn/other/k=1/max_evals=30", "8007:4.530034019523701", 15, 12},
	{"shards=2/knn/other/k=1/max_evals=45", "8007:4.530034019523701", 15, 12},
	{"shards=2/knn/other/k=2/max_evals=0", "8007:4.530034019523701 23:223.45903045389895", 18, 13},
	{"shards=2/knn/other/k=2/max_evals=3", "5:358.82435437598565 0:422.88429398869476 truncated", 3, 1},
	{"shards=2/knn/other/k=2/max_evals=12", "23:223.45903045389895 10:258.1208719028721 truncated", 12, 8},
	{"shards=2/knn/other/k=2/max_evals=30", "8007:4.530034019523701 23:223.45903045389895", 18, 13},
	{"shards=2/knn/other/k=2/max_evals=45", "8007:4.530034019523701 23:223.45903045389895", 18, 13},
	{"shards=2/knn/other/k=3/max_evals=0", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721", 19, 12},
	{"shards=2/knn/other/k=3/max_evals=3", "5:358.82435437598565 0:422.88429398869476 20:429.01543333217234 truncated", 3, 0},
	{"shards=2/knn/other/k=3/max_evals=12", "23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 truncated", 12, 6},
	{"shards=2/knn/other/k=3/max_evals=30", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721", 19, 12},
	{"shards=2/knn/other/k=3/max_evals=45", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721", 19, 12},
	{"shards=2/knn/other/k=5/max_evals=0", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 9:413.16700714291784", 21, 12},
	{"shards=2/knn/other/k=5/max_evals=3", "5:358.82435437598565 0:422.88429398869476 20:429.01543333217234 truncated", 3, 0},
	{"shards=2/knn/other/k=5/max_evals=12", "23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 9:413.16700714291784 0:422.88429398869476 truncated", 12, 4},
	{"shards=2/knn/other/k=5/max_evals=30", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 9:413.16700714291784", 21, 12},
	{"shards=2/knn/other/k=5/max_evals=45", "8007:4.530034019523701 23:223.45903045389895 10:258.1208719028721 5:358.82435437598565 9:413.16700714291784", 21, 12},
	{"shards=2/knn/dup/k=2/limit=0.8027941887666665", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=2/limit=0.8027941887666665/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=3/limit=0.8027941887666665", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=3/limit=0.8027941887666665/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=5/limit=0.8027941887666665", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=5/limit=0.8027941887666665/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=2/limit=1.2041912831499997", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=2/limit=1.2041912831499997/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=3/limit=1.2041912831499997", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=3/limit=1.2041912831499997/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=5/limit=1.2041912831499997", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=5/limit=1.2041912831499997/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=2/limit=32.11176755066666", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=2/limit=32.11176755066666/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=3/limit=32.11176755066666", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=3/limit=32.11176755066666/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=5/limit=32.11176755066666", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/knn/dup/k=5/limit=32.11176755066666/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/range/dup/radius=0/max_evals=0", "", 13, 13},
	{"shards=2/range/dup/radius=0/max_evals=12", " truncated", 12, 12},
	{"shards=2/range/dup/radius=0/max_evals=30", "", 13, 13},
	{"shards=2/range/dup/radius=0.8027941887666665/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/range/dup/radius=0.8027941887666665/max_evals=12", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 truncated", 12, 9},
	{"shards=2/range/dup/radius=0.8027941887666665/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/range/dup/radius=32.11176755066666/max_evals=0", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/range/dup/radius=32.11176755066666/max_evals=12", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665 truncated", 12, 9},
	{"shards=2/range/dup/radius=32.11176755066666/max_evals=30", "8003:0.8027941887666665 8010:0.8027941887666665 8011:0.8027941887666665", 13, 10},
	{"shards=2/subknn/k=1/max_evals=0", "8003:0", 15, 10},
	{"shards=2/subknn/k=1/max_evals=12", "8003:0 truncated", 12, 9},
	{"shards=2/subknn/k=1/max_evals=30", "8003:0", 15, 10},
	{"shards=2/subknn/k=1/max_evals=45", "8003:0", 15, 10},
	{"shards=2/subknn/k=1/limit=1", "8003:0", 13, 10},
	{"shards=2/subknn/k=2/max_evals=0", "8003:0 8010:0", 17, 10},
	{"shards=2/subknn/k=2/max_evals=12", "8003:0 22:1619.4167359648595 truncated", 12, 7},
	{"shards=2/subknn/k=2/max_evals=30", "8003:0 8010:0", 17, 10},
	{"shards=2/subknn/k=2/max_evals=45", "8003:0 8010:0", 17, 10},
	{"shards=2/subknn/k=2/limit=1", "8003:0 8010:0", 13, 10},
	{"shards=2/subknn/k=3/max_evals=0", "8003:0 8010:0 8011:0", 20, 11},
	{"shards=2/subknn/k=3/max_evals=12", "8003:0 22:1619.4167359648595 15:2624.830965397127 truncated", 12, 5},
	{"shards=2/subknn/k=3/max_evals=30", "8003:0 8010:0 8011:0", 20, 11},
	{"shards=2/subknn/k=3/max_evals=45", "8003:0 8010:0 8011:0", 20, 11},
	{"shards=2/subknn/k=3/limit=1", "8003:0 8010:0 8011:0", 13, 10},
	{"shards=2/subknn/k=5/max_evals=0", "8003:0 8010:0 8011:0 22:1619.4167359648595 15:2624.830965397127", 24, 9},
	{"shards=2/subknn/k=5/max_evals=12", "22:1619.4167359648595 15:2624.830965397127 13:3217.061043314779 26:4323.855459030139 25:4907.29134156729 truncated", 12, 2},
	{"shards=2/subknn/k=5/max_evals=30", "8003:0 8010:0 8011:0 22:1619.4167359648595 15:2624.830965397127", 24, 9},
	{"shards=2/subknn/k=5/max_evals=45", "8003:0 8010:0 8011:0 22:1619.4167359648595 15:2624.830965397127", 24, 9},
	{"shards=2/subknn/k=5/limit=1", "8003:0 8010:0 8011:0", 13, 10},
}
