package eval

import (
	"fmt"
	"strings"

	"trajmatch/internal/baseline"
	"trajmatch/internal/traj"
)

// This file encodes Tables I and II as executable scenarios. For each
// robustness dimension it constructs a pair of trajectories that are
// *equivalent* under the dimension's noise (same underlying movement) and a
// control pair that genuinely differs; a metric is robust when it scores
// the equivalent pair strictly closer than the control pair. The expected
// verdicts follow Section II's analysis and Fig. 1's walk-throughs.

// scenario is one robustness dimension of Tables I and II: an equivalent
// pair (a1, a2) and a control pair (b1, b2).
type scenario struct {
	name           string
	a1, a2, b1, b2 *traj.Trajectory
}

// robust reports whether m scores the equivalent pair strictly closer than
// the control pair.
func (s scenario) robust(m baseline.Metric) bool {
	return m.Dist(s.a1, s.a2) < m.Dist(s.b1, s.b2)
}

// tableIEps is the matching threshold of the threshold metrics (LCSS, EDR)
// in the Table I/II scenarios: below the phase offset, above the
// inter-sampling control's offset.
const tableIEps = 2.0

// TableI renders the robustness matrix of Tables I and II: one row per
// metric of baseline.All, one column per scenario, ✓ where the metric is
// robust.
func TableI() string {
	scens := []scenario{timeShiftScenario(), pauseScenario(), interScenario(), intraScenario(), phaseScenario()}
	var b strings.Builder
	b.WriteString("Table I/II — robust = equivalent pair scored closer than control pair\n")
	fmt.Fprintf(&b, "%-8s", "metric")
	for _, s := range scens {
		fmt.Fprintf(&b, "%28s", s.name)
	}
	b.WriteString("\n")
	for _, m := range baseline.All(tableIEps) {
		fmt.Fprintf(&b, "%-8s", m.Name())
		for _, s := range scens {
			verdict := "✗"
			if s.robust(m) {
				verdict = "✓"
			}
			fmt.Fprintf(&b, "%28s", verdict)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// timeShiftScenario: same contour, the object is slower in the first half
// on one trajectory and slower in the second half on the other (Section I's
// motivating example). Control: different contour.
func timeShiftScenario() scenario {
	// Both cover x ∈ [0,100] with 11 samples; speeds differ by half.
	slowFirst := make([]traj.Point, 0, 11)
	slowSecond := make([]traj.Point, 0, 11)
	for i := 0; i <= 10; i++ {
		f := float64(i) / 10
		// slowFirst spends 2/3 of its time on the first spatial half.
		var x1 float64
		if f < 2.0/3 {
			x1 = f * 1.5 * 50
		} else {
			x1 = 50 + (f-2.0/3)*3*50
		}
		var x2 float64
		if f < 1.0/3 {
			x2 = f * 3 * 50
		} else {
			x2 = 50 + (f-1.0/3)*1.5*50
		}
		slowFirst = append(slowFirst, traj.P(x1, 0, f*100))
		slowSecond = append(slowSecond, traj.P(x2, 0, f*100))
	}
	// Control: a genuinely different contour, parallel at distance 10 —
	// smaller than the transient gap the time shift induces, which is what
	// exposes DISSIM's one-to-one time mapping.
	control := make([]traj.Point, 0, 11)
	for i := 0; i <= 10; i++ {
		f := float64(i) / 10
		control = append(control, traj.P(f*100, 10, f*100))
	}
	return scenario{
		name: "local time shifts",
		a1:   traj.New(1, slowFirst),
		a2:   traj.New(2, slowSecond),
		b1:   traj.New(3, slowFirst),
		b2:   traj.New(4, control),
	}
}

// pauseScenario is the milder time-shift form the edit-distance family is
// designed for (and the one the ERP paper evaluates): the same contour with
// a dwell — repeated samples — in one trajectory. Control: parallel contour
// at distance 10.
func pauseScenario() scenario {
	xs1 := []float64{-20, -10, 0, 0, 0, 10, 20}
	p1 := make([]traj.Point, len(xs1))
	ctl := make([]traj.Point, len(xs1))
	for i, x := range xs1 {
		p1[i] = traj.P(x, 0, float64(i))
		ctl[i] = traj.P(x, 10, float64(i))
	}
	xs2 := []float64{-20, -10, 0, 10, 20}
	p2 := make([]traj.Point, len(xs2))
	for i, x := range xs2 {
		p2[i] = traj.P(x, 0, float64(i)*1.5)
	}
	return scenario{
		name: "local time shifts (dwell)",
		a1:   traj.New(1, p1),
		a2:   traj.New(2, p2),
		b1:   traj.New(3, p1),
		b2:   traj.New(4, ctl),
	}
}

// interScenario: identical contour at 4 vs 11 samples (Fig. 1(a)).
func interScenario() scenario {
	sparse := []traj.Point{
		traj.P(0, 0, 0), traj.P(0, 33, 33), traj.P(0, 66, 66), traj.P(0, 100, 100),
	}
	dense := make([]traj.Point, 0, 11)
	for i := 0; i <= 10; i++ {
		f := float64(i) / 10
		dense = append(dense, traj.P(0, f*100, f*100))
	}
	// Control: a parallel contour offset by 1.5 — within EDR's ε = 2, so a
	// threshold metric scores this genuinely different pair as identical
	// while charging the equivalent sparse/dense pair for its extra points.
	control := make([]traj.Point, 0, 11)
	for i := 0; i <= 10; i++ {
		f := float64(i) / 10
		control = append(control, traj.P(1.5, f*100, f*100))
	}
	return scenario{
		name: "inter-trajectory sampling",
		a1:   traj.New(1, sparse),
		a2:   traj.New(2, dense),
		b1:   traj.New(3, sparse),
		b2:   traj.New(4, control),
	}
}

// intraScenario (Fig. 1(b)): pairs share a densely sampled prefix; the
// equivalent pair also shares the long sparse tail, the control pair
// diverges over the tail. Robust metrics must weight the tail by extent,
// not by sample count.
func intraScenario() scenario {
	prefix := []traj.Point{
		traj.P(0, 0, 0), traj.P(1, 0, 1), traj.P(2, 0, 2), traj.P(3, 0, 3),
	}
	sameTail := append(append([]traj.Point{}, prefix...), traj.P(103, 0, 103))
	sameTailDense := append(append([]traj.Point{}, prefix...),
		traj.P(53, 0, 53), traj.P(103, 0, 103))
	divergedTail := append(append([]traj.Point{}, prefix...), traj.P(3, 100, 103))
	return scenario{
		name: "intra-trajectory sampling",
		a1:   traj.New(1, sameTail),
		a2:   traj.New(2, sameTailDense),
		b1:   traj.New(3, sameTail),
		b2:   traj.New(4, divergedTail),
	}
}

// phaseScenario (Fig. 1(c)): same contour sampled at offset positions.
func phaseScenario() scenario {
	p1 := make([]traj.Point, 0, 11)
	p2 := make([]traj.Point, 0, 11)
	for i := 0; i <= 10; i++ {
		f := float64(i) / 10
		p1 = append(p1, traj.P(0, f*100, f*100))
		p2 = append(p2, traj.P(0, f*100+4.9, f*100+4.9))
	}
	control := make([]traj.Point, 0, 11)
	for i := 0; i <= 10; i++ {
		f := float64(i) / 10
		control = append(control, traj.P(25, f*100, f*100))
	}
	return scenario{
		name: "phase variation",
		a1:   traj.New(1, p1),
		a2:   traj.New(2, p2),
		b1:   traj.New(3, p1),
		b2:   traj.New(4, control),
	}
}
