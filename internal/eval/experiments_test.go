package eval

import (
	"math/rand"
	"strings"
	"testing"

	"trajmatch/internal/synth"
	"trajmatch/internal/trajtree"
)

// tinyScale keeps experiment tests fast while exercising the full paths.
func tinyScale() Scale {
	return Scale{TaxiN: 40, ASLInstances: 4, Queries: 2, Folds: 3, Seed: 1}
}

func seriesComplete(t *testing.T, ss []Series, wantLen int) {
	t.Helper()
	if len(ss) == 0 {
		t.Fatal("no series")
	}
	for _, s := range ss {
		if len(s.X) != wantLen || len(s.Y) != wantLen {
			t.Fatalf("series %q has %d/%d points, want %d", s.Name, len(s.X), len(s.Y), wantLen)
		}
		for i, y := range s.Y {
			if y != y { // NaN
				t.Fatalf("series %q has NaN at %d", s.Name, i)
			}
		}
	}
}

func TestFig5aSeries(t *testing.T) {
	ss := Fig5a(tinyScale(), []int{3, 5})
	seriesComplete(t, ss, 2)
	names := map[string]bool{}
	for _, s := range ss {
		names[s.Name] = true
		for _, acc := range s.Y {
			if acc < 0 || acc > 1 {
				t.Fatalf("accuracy out of range: %v", acc)
			}
		}
	}
	for _, want := range []string{"EDwP", "EDR", "LCSS", "DISSIM", "MA"} {
		if !names[want] {
			t.Errorf("missing series %s", want)
		}
	}
}

func TestRobustnessSweeps(t *testing.T) {
	for _, kind := range []NoiseKind{NoiseInter, NoiseIntra, NoisePhase, NoisePerturb} {
		ss := RobustnessVsK(tinyScale(), kind, 0.4, []int{5, 10})
		seriesComplete(t, ss, 2)
		// EDwP and EDR-I must both be present.
		var hasEDwP, hasEDRI bool
		for _, s := range ss {
			switch s.Name {
			case "EDwP":
				hasEDwP = true
			case "EDR-I":
				hasEDRI = true
			}
			for _, y := range s.Y {
				if y < -1-1e-9 || y > 1+1e-9 {
					t.Fatalf("correlation out of range: %v", y)
				}
			}
		}
		if !hasEDwP || !hasEDRI {
			t.Fatal("missing EDwP or EDR-I series")
		}
	}
}

func TestRobustnessVsN(t *testing.T) {
	ss := RobustnessVsN(tinyScale(), NoiseInter, []float64{0.2, 0.8})
	seriesComplete(t, ss, 2)
}

func TestQueryCompetitors(t *testing.T) {
	sc := tinyScale()
	db := synth.Taxi(synth.DefaultTaxi(sc.TaxiN))
	queries := sampleQueries(db, 2, randFor(sc))
	ss, err := queryCompetitors(db, queries, []int{5}, trajtree.Options{PivotCandidates: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seriesComplete(t, ss, 1)
	if len(ss) != 4 {
		t.Fatalf("want 4 competitors, got %d", len(ss))
	}
	for _, s := range ss {
		if s.Y[0] <= 0 {
			t.Errorf("%s latency %v not positive", s.Name, s.Y[0])
		}
	}
}

// TestScanKNNMatchesSearchKNN: the sequential-scan competitor answers
// exactly as the index, ties included (two clones of every fifth trip),
// and reports one distance call per member — it is the same verify step
// over every member in ID order.
func TestScanKNNMatchesSearchKNN(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(60))
	for i := 0; i < 60; i += 5 {
		for c := 0; c < 2; c++ {
			dup := db[i].Clone()
			dup.ID = 1000 + 2*i + c
			db = append(db, dup)
		}
	}
	tree, err := trajtree.New(db, trajtree.Options{LeafSize: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 60; qi += 10 {
		q := db[qi].Clone()
		q.ID = 900_000 + qi
		for _, k := range []int{1, 2, 6} {
			want, _, _, err := tree.SearchKNN(q, k, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, st := ScanKNN(tree, q, k)
			if len(got) != len(want) {
				t.Fatalf("q=%d k=%d: %d results, want %d", qi, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Traj.ID != want[i].Traj.ID || got[i].Dist != want[i].Dist {
					t.Fatalf("q=%d k=%d rank %d: (%d, %v), want (%d, %v)", qi, k, i,
						got[i].Traj.ID, got[i].Dist, want[i].Traj.ID, want[i].Dist)
				}
			}
			if st.DistanceCalls != len(db) {
				t.Fatalf("q=%d k=%d: %d distance calls over %d members", qi, k, st.DistanceCalls, len(db))
			}
		}
	}
}

func TestUBFactorExperiments(t *testing.T) {
	sc := tinyScale()
	ss := UBFactorVsVPs(sc, []int{4, 8})
	seriesComplete(t, ss, 2)
	for _, s := range ss {
		for _, y := range s.Y {
			if y < 1-1e-9 {
				t.Fatalf("%s UB-factor %v below 1 (not an upper bound)", s.Name, y)
			}
		}
	}
	ss = UBFactorVsK(sc, []int{3, 6}, 8)
	seriesComplete(t, ss, 2)
}

func TestBuildAndThetaExperiments(t *testing.T) {
	sc := tinyScale()
	ss, err := BuildTimes(sc, []int{20, 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seriesComplete(t, ss, 2)
	ss, err = BuildTimes(sc, nil, []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	seriesComplete(t, ss, 2)
	ss, err = QueryVsTheta(sc, []float64{0.5, 0.9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	seriesComplete(t, ss, 2)
}

func TestFormatSeries(t *testing.T) {
	ss := []Series{{Name: "A", X: []float64{1, 2}, Y: []float64{0.5, 0.25}}}
	got := FormatSeries("Fig X", "k", ss)
	if !strings.Contains(got, "Fig X") || !strings.Contains(got, "A") || !strings.Contains(got, "0.25") {
		t.Errorf("table missing content:\n%s", got)
	}
	if got := FormatSeries("empty", "k", nil); !strings.Contains(got, "no data") {
		t.Errorf("empty table = %q", got)
	}
}

func randFor(sc Scale) *rand.Rand { return rand.New(rand.NewSource(sc.Seed)) }
