package trajmatch_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"trajmatch"
)

// The facade smoke test: every public entry point works end to end.
func TestFacadeEndToEnd(t *testing.T) {
	a := trajmatch.FromXY(1, 0, 0, 0, 1)
	b := trajmatch.FromXY(2, 0, 0, 0, 1, 0, 2)
	c := trajmatch.FromXY(3, 0, 0, 0, 1, 0, 2, 0, 3)

	// Appendix A values through the facade.
	if d := trajmatch.EDwP(a, b); math.Abs(d-1) > 1e-9 {
		t.Errorf("EDwP = %v, want 1", d)
	}
	if d := trajmatch.EDwP(a, c); math.Abs(d-4) > 1e-9 {
		t.Errorf("EDwP = %v, want 4", d)
	}
	if d := trajmatch.EDwPAvg(a, c); math.Abs(d-4.0/(1+3)) > 1e-9 {
		t.Errorf("EDwPAvg = %v, want 1", d)
	}
	if d := trajmatch.EDwPSub(a, c); d > 1e-9 {
		t.Errorf("EDwPSub of embedded prefix = %v, want 0", d)
	}

	dist, edits := trajmatch.AlignEDwP(a, c)
	var sum float64
	for _, e := range edits {
		sum += e.Cost
	}
	if math.Abs(sum-dist) > 1e-9 {
		t.Errorf("edit script sums to %v, distance %v", sum, dist)
	}
}

func TestFacadeIndexAndGenerators(t *testing.T) {
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(60))
	idx, err := trajmatch.NewIndex(db, trajmatch.IndexOptions{LeafSize: 5, PivotCandidates: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := db[0]
	res, stats, _, _ := idx.SearchKNN(q, 5, nil, nil)
	if len(res) != 5 {
		t.Fatalf("kNN returned %d results", len(res))
	}
	if res[0].Traj.ID != q.ID || res[0].Dist != 0 {
		t.Errorf("self not first: %+v", res[0])
	}
	if stats.DistanceCalls == 0 {
		t.Error("stats not collected")
	}

	edr := trajmatch.NewEDRIndex(db, 60)
	eres, _, _, _ := edr.SearchKNN(q, 5, nil, nil)
	if len(eres) != 5 || eres[0].Traj.ID != q.ID {
		t.Errorf("EDR index kNN = %v", eres)
	}

	dtw := trajmatch.NewDTWIndex(db)
	dres, _, _, _ := dtw.SearchKNN(q, 5, nil, nil)
	if len(dres) != 5 || dres[0].Traj.ID != q.ID {
		t.Errorf("DTW index kNN = %v", dres)
	}
}

func TestFacadeLatLonIngestion(t *testing.T) {
	tr := trajmatch.FromLatLon(1, [][3]float64{
		{39.9042, 116.4074, 0},   // Beijing
		{39.9052, 116.4074, 60},  // ~111m north
		{39.9052, 116.4094, 120}, // ~170m east
	})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if l := tr.Length(); l < 200 || l > 350 {
		t.Errorf("trajectory length %vm outside the plausible 200–350m", l)
	}
}

func TestFacadeNoiseAndResample(t *testing.T) {
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(10))
	if noisy := trajmatch.InterNoise(db, 0.3, 1); len(noisy) != len(db) {
		t.Error("InterNoise size mismatch")
	}
	if noisy := trajmatch.IntraNoise(db, 0.3, 1); len(noisy) != len(db) {
		t.Error("IntraNoise size mismatch")
	}
	d1, d2 := trajmatch.PhaseNoise(db, 0.3, 1)
	if len(d1) != len(db) || len(d2) != len(db) {
		t.Error("PhaseNoise size mismatch")
	}
	r := trajmatch.PerturbRadius(db, 30)
	if noisy := trajmatch.PerturbNoise(db, 0.2, r, 1); len(noisy) != len(db) {
		t.Error("PerturbNoise size mismatch")
	}
	sp := trajmatch.MedianSegmentLength(db)
	if sp <= 0 {
		t.Fatal("median segment length not positive")
	}
	rs := trajmatch.ResampleAll(db, sp)
	if len(rs) != len(db) {
		t.Error("ResampleAll size mismatch")
	}
}

func TestFacadeMetricsSuite(t *testing.T) {
	ms := trajmatch.Metrics(2.0)
	a := trajmatch.FromXY(1, 0, 0, 1, 0, 2, 0)
	for _, m := range ms {
		if d := m.Dist(a, a); d > 1e-9 {
			t.Errorf("%s self distance %v", m.Name(), d)
		}
	}
}

func TestFacadeIO(t *testing.T) {
	db := trajmatch.GenerateASL(trajmatch.ASLConfig{NumClasses: 2, Instances: 2, Points: 6, Jitter: 0.01, Seed: 1})
	var buf bytes.Buffer
	if err := trajmatch.WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := trajmatch.ReadCSV(&buf)
	if err != nil || len(got) != len(db) {
		t.Fatalf("CSV round trip: %v, %d", err, len(got))
	}
	buf.Reset()
	if err := trajmatch.WriteNDJSON(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err = trajmatch.ReadNDJSON(&buf)
	if err != nil || len(got) != len(db) {
		t.Fatalf("NDJSON round trip: %v, %d", err, len(got))
	}
}

func TestFacadeClassHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	set := trajmatch.PickClasses(98, 5, rng)
	if len(set) != 5 {
		t.Fatalf("picked %d classes", len(set))
	}
	db := trajmatch.GenerateASL(trajmatch.ASLConfig{NumClasses: 6, Instances: 2, Points: 6, Jitter: 0.01, Seed: 2})
	sel := trajmatch.SelectClasses(db, map[int]bool{0: true})
	if len(sel) != 2 {
		t.Fatalf("selected %d", len(sel))
	}
}

func TestFacadeSplitTrips(t *testing.T) {
	pts := []trajmatch.STPoint{
		trajmatch.P(0, 0, 0), trajmatch.P(1, 0, 60),
		trajmatch.P(9, 9, 5000), trajmatch.P(10, 9, 5060),
	}
	trips := trajmatch.SplitTrips(pts, 900, 900, 0)
	if len(trips) != 2 {
		t.Fatalf("got %d trips", len(trips))
	}
}
