package trajmatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"trajmatch"
)

// The facade smoke tests: every entry point the package keeps works end
// to end through its exported name.

func TestFacadeEndToEnd(t *testing.T) {
	a := trajmatch.FromXY(1, 0, 0, 0, 1)
	b := trajmatch.FromXY(2, 0, 0, 0, 1, 0, 2)
	c := trajmatch.NewTrajectory(3, []trajmatch.STPoint{
		trajmatch.P(0, 0, 0), trajmatch.P(0, 1, 1), trajmatch.P(0, 2, 2), trajmatch.P(0, 3, 3),
	})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

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

// taxiEngine builds a 2-shard engine over a small taxi corpus.
func taxiEngine(t *testing.T, n int) ([]*trajmatch.Trajectory, *trajmatch.Engine) {
	t.Helper()
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(n))
	e, err := trajmatch.NewEngine(db, trajmatch.IndexOptions{LeafSize: 5, Seed: 1}, trajmatch.EngineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return db, e
}

// ids lists the result IDs of an answer in rank order.
func ids(ans trajmatch.Answer) []int {
	out := make([]int, len(ans.Results))
	for i, r := range ans.Results {
		out[i] = r.Traj.ID
	}
	return out
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
	seeded, _, _, _ := idx.SearchKNN(q, 5, trajmatch.NewSharedBound(res[4].Dist), nil)
	if !slices.Equal(seeded, res) {
		t.Errorf("search seeded at the 5th distance = %v, unseeded = %v", seeded, res)
	}

	// An index written with Save loads back and answers the same.
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trajmatch.LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, _, _, _ := loaded.SearchKNN(q, 5, nil, nil)
	if len(reloaded) != len(res) {
		t.Fatalf("loaded index returned %d results, want %d", len(reloaded), len(res))
	}
	for i := range res {
		if reloaded[i].Traj.ID != res[i].Traj.ID || reloaded[i].Dist != res[i].Dist {
			t.Errorf("loaded index rank %d = %d at %v, want %d at %v", i, reloaded[i].Traj.ID, reloaded[i].Dist, res[i].Traj.ID, res[i].Dist)
		}
	}

	// The engine built from the index answers what the index answers.
	want := make([]int, len(res))
	for i, r := range res {
		want[i] = r.Traj.ID
	}
	e := trajmatch.NewEngineFromIndex(idx, trajmatch.EngineOptions{})
	ans, err := e.Search(context.Background(), q, trajmatch.Query{Kind: trajmatch.QueryKNN, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(ans); !slices.Equal(got, want) {
		t.Errorf("engine over the index = %v, index = %v", got, want)
	}
}

// Every query kind answers through Engine.Search.
func TestFacadeQueryKinds(t *testing.T) {
	db, e := taxiEngine(t, 40)
	ctx := context.Background()
	q := db[3]
	t.Run("knn", func(t *testing.T) {
		ans, err := e.Search(ctx, q, trajmatch.Query{Kind: trajmatch.QueryKNN, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Results) != 4 || ans.Results[0].Traj.ID != q.ID || ans.Results[0].Dist != 0 {
			t.Errorf("knn = %v, want 4 results led by the query itself", ids(ans))
		}
	})
	t.Run("range", func(t *testing.T) {
		const radius = 200.0
		ans, err := e.Search(ctx, q, trajmatch.Query{Kind: trajmatch.QueryRange, Radius: radius})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(ids(ans), q.ID) {
			t.Errorf("range answer %v misses the query itself", ids(ans))
		}
		for _, r := range ans.Results {
			if r.Dist > radius {
				t.Errorf("range result %d at %v, radius %v", r.Traj.ID, r.Dist, radius)
			}
		}
	})
	t.Run("subknn", func(t *testing.T) {
		piece := trajmatch.NewTrajectory(900, q.Points[1:4])
		ans, err := e.Search(ctx, piece, trajmatch.Query{Kind: trajmatch.QuerySubKNN, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Results) != 1 || ans.Results[0].Dist > 1e-9 {
			t.Errorf("subknn of an embedded piece = %+v, want one result at 0", ans.Results)
		}
	})
}

// Every registered metric answers a self-query at distance 0 from one
// multi-metric engine, routed by Query.Metric.
func TestFacadeMultiEngine(t *testing.T) {
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(30))
	names := trajmatch.RegisteredMetrics()
	if !slices.IsSorted(names) || !slices.Contains(names, "edwp") {
		t.Fatalf("RegisteredMetrics() = %v, want a sorted list holding edwp", names)
	}
	e, err := trajmatch.NewMultiEngine(db, names, trajmatch.IndexOptions{Seed: 1}, trajmatch.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ans, err := e.Search(context.Background(), db[5], trajmatch.Query{Kind: trajmatch.QueryKNN, K: 3, Metric: name})
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Results) != 3 || ans.Results[0].Traj.ID != db[5].ID || ans.Results[0].Dist != 0 {
				t.Errorf("%s knn = %+v, want 3 results led by the query at 0", name, ans.Results)
			}
		})
	}
	if _, err := e.Search(context.Background(), db[5], trajmatch.Query{Kind: trajmatch.QueryKNN, K: 1, Metric: "nope"}); !errors.Is(err, trajmatch.ErrUnknownMetric) {
		t.Errorf("unknown metric: err = %v, want ErrUnknownMetric", err)
	}
}

// Each noise model keeps the corpus size and trajectory identities.
func TestFacadeNoise(t *testing.T) {
	db := trajmatch.GenerateTaxi(trajmatch.DefaultTaxiConfig(10))
	r := trajmatch.PerturbRadius(db, 30)
	if r <= 0 {
		t.Fatalf("PerturbRadius = %v, want > 0", r)
	}
	phase1, phase2 := trajmatch.PhaseNoise(db, 0.3, 1)
	for _, tc := range []struct {
		name  string
		noisy []*trajmatch.Trajectory
	}{
		{"inter", trajmatch.InterNoise(db, 0.3, 1)},
		{"intra", trajmatch.IntraNoise(db, 0.3, 1)},
		{"phase", append(phase1, phase2...)},
		{"perturb", trajmatch.PerturbNoise(db, 0.2, r, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.noisy)%len(db) != 0 || len(tc.noisy) == 0 {
				t.Fatalf("%d noisy trajectories from %d", len(tc.noisy), len(db))
			}
			for i, tr := range tc.noisy {
				if tr.ID != db[i%len(db)].ID {
					t.Errorf("noisy trajectory %d has ID %d, want %d", i, tr.ID, db[i%len(db)].ID)
				}
				if err := tr.Validate(); err != nil {
					t.Errorf("noisy trajectory %d: %v", i, err)
				}
			}
		})
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
	for _, tc := range []struct {
		name  string
		write func(*bytes.Buffer, []*trajmatch.Trajectory) error
		read  func(*bytes.Buffer) ([]*trajmatch.Trajectory, error)
	}{
		{"csv",
			func(b *bytes.Buffer, db []*trajmatch.Trajectory) error { return trajmatch.WriteCSV(b, db) },
			func(b *bytes.Buffer) ([]*trajmatch.Trajectory, error) { return trajmatch.ReadCSV(b) }},
		{"ndjson",
			func(b *bytes.Buffer, db []*trajmatch.Trajectory) error { return trajmatch.WriteNDJSON(b, db) },
			func(b *bytes.Buffer) ([]*trajmatch.Trajectory, error) { return trajmatch.ReadNDJSON(b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf, db); err != nil {
				t.Fatal(err)
			}
			got, err := tc.read(&buf)
			if err != nil || len(got) != len(db) {
				t.Fatalf("round trip: %v, %d of %d", err, len(got), len(db))
			}
			for i := range db {
				if got[i].ID != db[i].ID || got[i].Label != db[i].Label || len(got[i].Points) != len(db[i].Points) {
					t.Errorf("trajectory %d came back as id=%d label=%d with %d points", i, got[i].ID, got[i].Label, len(got[i].Points))
				}
			}
		})
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

func TestFacadeParseWALSyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "never"} {
		t.Run(s, func(t *testing.T) {
			if _, err := trajmatch.ParseWALSyncPolicy(s); err != nil {
				t.Error(err)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		if _, err := trajmatch.ParseWALSyncPolicy("sometimes"); err == nil {
			t.Error(`"sometimes" parsed`)
		}
	})
}

// A saved snapshot reloads into an engine that answers byte for byte as
// the one that saved it, with and without the other metrics rebuilt.
func TestFacadeSnapshotRoundTrip(t *testing.T) {
	db, e := taxiEngine(t, 40)
	dir := t.TempDir()
	if trajmatch.EngineSnapshotExists(dir) {
		t.Fatal("empty directory reported as a snapshot")
	}
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if !trajmatch.EngineSnapshotExists(dir) {
		t.Fatal("saved snapshot not found")
	}
	ctx := context.Background()
	knn := trajmatch.Query{Kind: trajmatch.QueryKNN, K: 5}
	want, err := e.Search(ctx, db[7], knn)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trajmatch.LoadEngineSnapshot(dir, trajmatch.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := trajmatch.LoadEngineSnapshotMetrics(dir, []string{"edwp", "dtw"}, trajmatch.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, le := range map[string]*trajmatch.Engine{"LoadEngineSnapshot": loaded, "LoadEngineSnapshotMetrics": multi} {
		got, err := le.Search(ctx, db[7], knn)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids(got), ids(want)) {
			t.Errorf("%s answers %v, saved engine %v", name, ids(got), ids(want))
		}
	}
	if _, err := multi.Search(ctx, db[7], trajmatch.Query{Kind: trajmatch.QueryKNN, K: 1, Metric: "dtw"}); err != nil {
		t.Errorf("rebuilt dtw metric: %v", err)
	}
}

// The HTTP API answers /v1/search with the engine's own answer.
func TestFacadeAPIHandler(t *testing.T) {
	db, e := taxiEngine(t, 30)
	h := trajmatch.NewAPIHandler(e, trajmatch.HandlerOptions{})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}

	q := db[2]
	var body strings.Builder
	body.WriteString(`{"kind":"knn","k":3,"query":{"id":0,"points":[`)
	for i, p := range q.Points {
		if i > 0 {
			body.WriteByte(',')
		}
		pt, _ := json.Marshal([3]float64{p.X, p.Y, p.T})
		body.Write(pt)
	}
	body.WriteString(`]}}`)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body.String())))
	if rec.Code != http.StatusOK {
		t.Fatalf("search: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Results []struct {
			ID   int     `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := e.Search(context.Background(), q, trajmatch.Query{Kind: trajmatch.QueryKNN, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, n := range resp.Results {
		got = append(got, n.ID)
	}
	if !slices.Equal(got, ids(want)) {
		t.Errorf("/v1/search = %v, Engine.Search = %v", got, ids(want))
	}
}

func TestFacadeVersionInfo(t *testing.T) {
	_, e := taxiEngine(t, 10)
	v := trajmatch.NewVersionInfo(trajmatch.RoleStandalone, e)
	if v.Role != trajmatch.RoleStandalone || v.GoVersion == "" {
		t.Errorf("standalone version info = %+v", v)
	}
	if v.ClusterShards != 2 || !slices.Equal(v.OwnedShards, []int{0, 1}) {
		t.Errorf("standalone placement = %d shards owning %v, want 2 owning [0 1]", v.ClusterShards, v.OwnedShards)
	}
	r := trajmatch.NewVersionInfo(trajmatch.RoleRouter, nil)
	if r.Role != trajmatch.RoleRouter || r.ClusterShards != 0 || len(r.OwnedShards) != 0 {
		t.Errorf("router version info = %+v, want no placement", r)
	}
}
