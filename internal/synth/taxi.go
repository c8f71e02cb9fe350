// Package synth generates the synthetic datasets that stand in for the
// paper's Beijing-cab and ASL corpora and implements the four
// noise-injection procedures of Section V-C verbatim: inter-trajectory
// sampling variance, intra-trajectory variance, phase variation and
// spatial perturbation.
package synth

import (
	"math"
	"math/rand"

	"trajmatch/internal/traj"
)

// TaxiConfig parameterises the city-trip generator. Units are metres and
// seconds; the defaults roughly match urban GPS trips: 30–60 s sampling,
// 5–15 m/s speeds, kilometre-scale trips on a jittered grid road network.
type TaxiConfig struct {
	// N is the number of trajectories.
	N int
	// GridSpacing is the distance between parallel streets.
	GridSpacing float64
	// CitySize is the edge length of the square city.
	CitySize float64
	// MinHops and MaxHops bound the number of grid moves per trip.
	MinHops, MaxHops int
	// SampleEvery is the central sampling interval in seconds. Each trip
	// draws its own base interval log-uniformly from
	// [SampleEvery/SampleSpread, SampleEvery×SampleSpread] — the
	// heterogeneous-device premise of the paper — and individual samples
	// jitter ±50% around it.
	SampleEvery float64
	// SampleSpread is the cross-trip rate heterogeneity factor; 1 gives
	// every trip the same base rate.
	SampleSpread float64
	// Seed drives the generator.
	Seed int64
}

// DefaultTaxi returns the configuration used across the experiments.
func DefaultTaxi(n int) TaxiConfig {
	return TaxiConfig{
		N:            n,
		GridSpacing:  200,
		CitySize:     8000,
		MinHops:      6,
		MaxHops:      30,
		SampleEvery:  45,
		SampleSpread: 3,
		Seed:         1,
	}
}

// Taxi generates city-trip trajectories: each trip walks the jittered grid
// with turn momentum (cabs mostly go straight), traverses every street at a
// per-trip speed with per-segment variation, and is then sampled at
// irregular intervals — so both the shapes and the sampling are
// heterogeneous, like the paper's cab data after trip splitting.
func Taxi(cfg TaxiConfig) []*traj.Trajectory {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]*traj.Trajectory, 0, cfg.N)
	for id := 0; len(out) < cfg.N; id++ {
		t := taxiTrip(cfg, rng, id)
		if t.NumPoints() >= 2 {
			out = append(out, t)
		}
	}
	return out
}

func taxiTrip(cfg TaxiConfig, rng *rand.Rand, id int) *traj.Trajectory {
	cells := int(cfg.CitySize / cfg.GridSpacing)
	cx := rng.Intn(cells)
	cy := rng.Intn(cells)
	hops := cfg.MinHops + rng.Intn(cfg.MaxHops-cfg.MinHops+1)

	// Walk the grid with momentum.
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	dir := rng.Intn(4)
	type cell struct{ x, y int }
	path := []cell{{cx, cy}}
	for h := 0; h < hops; h++ {
		if rng.Float64() < 0.35 { // turn
			if rng.Float64() < 0.5 {
				dir = (dir + 1) % 4
			} else {
				dir = (dir + 3) % 4
			}
		}
		nx, ny := path[len(path)-1].x+dirs[dir][0], path[len(path)-1].y+dirs[dir][1]
		if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
			dir = (dir + 2) % 4
			nx, ny = path[len(path)-1].x+dirs[dir][0], path[len(path)-1].y+dirs[dir][1]
			if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
				break
			}
		}
		path = append(path, cell{nx, ny})
	}
	if len(path) < 2 {
		return traj.New(id, nil)
	}

	// Continuous waypoints with street jitter.
	jitter := cfg.GridSpacing * 0.06
	way := make([]traj.Point, len(path))
	speed := 5 + rng.Float64()*10 // m/s per trip
	tNow := rng.Float64() * 86400
	for i, c := range path {
		x := float64(c.x)*cfg.GridSpacing + rng.NormFloat64()*jitter
		y := float64(c.y)*cfg.GridSpacing + rng.NormFloat64()*jitter
		if i > 0 {
			segSpeed := speed * (0.7 + rng.Float64()*0.6) // ±30% per street
			d := math.Hypot(x-way[i-1].X, y-way[i-1].Y)
			tNow += d / segSpeed
		}
		way[i] = traj.P(x, y, tNow)
	}

	// Sample the continuous movement at irregular intervals around the
	// trip's own base rate.
	base := cfg.SampleEvery
	if cfg.SampleSpread > 1 {
		base *= math.Exp((rng.Float64()*2 - 1) * math.Log(cfg.SampleSpread))
	}
	wayTraj := traj.New(id, way)
	pts := []traj.Point{way[0]}
	tCur := way[0].T
	end := way[len(way)-1].T
	for tCur < end {
		dt := base * (0.5 + rng.Float64())
		tCur += dt
		if tCur >= end {
			break
		}
		xy := wayTraj.At(tCur)
		pts = append(pts, traj.P(xy.X, xy.Y, tCur))
	}
	pts = append(pts, way[len(way)-1])
	return traj.New(id, pts)
}
