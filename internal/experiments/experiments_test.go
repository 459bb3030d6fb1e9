package experiments

import (
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

// Budgets here are deliberately tiny: these tests check wiring, shape and
// invariants of every experiment harness, not statistical significance —
// cmd/experiments regenerates the real numbers.

func tinyCommon() Common {
	return Common{Sets: 2, Reps: 10, Seed: 77, Grid: grid.New(2, grid.NewMemo())}
}

func TestFig6aShapeAndRendering(t *testing.T) {
	cells, err := Fig6a(Fig6aConfig{
		Common:     tinyCommon(),
		TaskCounts: []int{2, 4},
		Ratios:     []float64{0.1, 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Failures > 0 {
			t.Errorf("cell N=%d ratio=%g had %d failures", c.N, c.Ratio, c.Failures)
		}
		if c.Improvement.N() != 2 {
			t.Errorf("cell N=%d ratio=%g has %d samples", c.N, c.Ratio, c.Improvement.N())
		}
	}
	table := Table(cells, "test")
	if !strings.Contains(table, "N\\ratio") || !strings.Contains(table, "%") {
		t.Errorf("table render:\n%s", table)
	}
	csv := CSV(cells)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 5 {
		t.Errorf("CSV render:\n%s", csv)
	}
}

func TestFig6aDeterministic(t *testing.T) {
	run := func() float64 {
		cells, err := Fig6a(Fig6aConfig{
			Common:     Common{Sets: 2, Reps: 5, Seed: 5, Grid: grid.New(4, grid.NewMemo())},
			TaskCounts: []int{3},
			Ratios:     []float64{0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return cells[0].Improvement.Mean()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("Fig6a not deterministic across runs: %g vs %g", a, b)
	}
}

func TestFig6bCNCOnly(t *testing.T) {
	cells, err := Fig6b(Fig6bConfig{
		Common: tinyCommon(),
		Ratios: []float64{0.1},
		Apps:   []string{"CNC"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].App != "CNC" {
		t.Fatalf("cells %+v", cells)
	}
	if cells[0].Improvement <= 0 {
		t.Errorf("CNC at ratio 0.1 improvement %g, want positive", cells[0].Improvement)
	}
	if !strings.Contains(AppTable(cells), "CNC") || !strings.Contains(AppCSV(cells), "CNC") {
		t.Error("renders missing app name")
	}
}

func TestFig6bUnknownApp(t *testing.T) {
	if _, err := Fig6b(Fig6bConfig{Common: tinyCommon(), Apps: []string{"nope"}}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSlackPolicyAblationOrdering(t *testing.T) {
	cells, err := SlackPolicyAblation(tinyCommon(), 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, c := range cells {
		byKey[c.Schedule+"/"+c.Policy.String()] = c.RelEnergy.Mean()
	}
	// NoDVS is the normaliser: relative energy 1 for the WCS schedule.
	if v := byKey["WCS/nodvs"]; v < 0.999 || v > 1.001 {
		t.Errorf("WCS/nodvs = %g, want 1", v)
	}
	// Greedy beats static beats nodvs for both schedules.
	for _, sched := range []string{"ACS", "WCS"} {
		if !(byKey[sched+"/greedy"] <= byKey[sched+"/static"]*1.001) {
			t.Errorf("%s: greedy %g > static %g", sched, byKey[sched+"/greedy"], byKey[sched+"/static"])
		}
		if !(byKey[sched+"/static"] <= byKey[sched+"/nodvs"]*1.001) {
			t.Errorf("%s: static %g > nodvs %g", sched, byKey[sched+"/static"], byKey[sched+"/nodvs"])
		}
	}
	if !strings.Contains(SlackTable(cells), "greedy") {
		t.Error("slack table render broken")
	}
}

func TestSubInstanceCapAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("GAP solves are slow")
	}
	cells, err := SubInstanceCapAblation(tinyCommon(), 0.1, []int{2, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	// Both caps solve on GAP (the RM-execution split fallback keeps even
	// heavily merged plans feasible); the finer granularity must not have
	// fewer sub-instances than the coarser one.
	for _, c := range cells {
		if c.Infeasible {
			t.Errorf("cap=%d unexpectedly infeasible on GAP", c.Cap)
		}
	}
	if !cells[0].Infeasible && !cells[1].Infeasible && cells[0].Subs > cells[1].Subs {
		t.Errorf("cap=2 produced more pieces (%d) than cap=12 (%d)", cells[0].Subs, cells[1].Subs)
	}
	// The infeasible marker renders when a cell reports it.
	if !strings.Contains(CapTable([]CapCell{{Cap: 3, Infeasible: true}}), "infeasible") {
		t.Error("cap table render missing infeasible marker")
	}
}

func TestTransitionOverheadMonotone(t *testing.T) {
	cells, err := TransitionOverheadAblation(tinyCommon(), 3, 0.1, []sim.Overhead{
		{},
		{TimeMs: 0.05, EnergyPerSwitch: 0.5, Epsilon: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	if !strings.Contains(OverheadTable(cells), "missRate") {
		t.Error("overhead table render broken")
	}
}

func TestDiscreteLevelAblation(t *testing.T) {
	cells, err := DiscreteLevelAblation(tinyCommon(), 3, 0.1, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	if !strings.Contains(LevelTable(cells), "cont") {
		t.Error("level table render broken")
	}
}

func TestSolverCrossCheckInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("reference solvers are slow")
	}
	r, err := SolverCrossCheck(tinyCommon(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// The reference solvers may refine the structured solver's solution by
	// a few percent on small instances (they explore joint moves CD's
	// sweeps approximate); anything beyond that signals CD is broken. WCS
	// must sit at or above the YDS lower bound.
	if r.NM < r.CD*(1-0.05) {
		t.Errorf("Nelder-Mead %g beats CD %g by more than 5%%", r.NM, r.CD)
	}
	if r.PenaltyViolation <= 1e-3 && r.Penalty < r.CD*(1-0.05) {
		t.Errorf("penalty %g beats CD %g by more than 5%%", r.Penalty, r.CD)
	}
	if r.WCSEnergy < r.YDSLower*(1-1e-6) {
		t.Errorf("WCS %g below YDS bound %g", r.WCSEnergy, r.YDSLower)
	}
	if !strings.Contains(r.Render(), "coordinate descent") {
		t.Error("cross-check render broken")
	}
}
