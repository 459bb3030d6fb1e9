// Solver invariants as properties, checked over generated task sets (the
// issue-4 test layer). The properties pinned here are the paper's safety and
// optimality claims, stated so that any random feasible task set must
// satisfy them:
//
//  1. Every solved schedule passes Verify: deadlines (7), the worst-case
//     Vmax chain (9), split non-negativity and conservation (11)–(12), and
//     the all-WCEC execution meeting every deadline.
//  2. Runtime voltages stay within the model's [VMin, VMax] under any
//     workload outcome.
//  3. ACS predicted energy never exceeds the WCS baseline's energy at the
//     average workload (the warm start makes this a guarantee, not a
//     heuristic), and never exceeds WCS's own worst-case objective.
//  4. Greedy slack reclamation never breaks feasibility: simulated runs of
//     both schedules finish every sub-instance by its deadline.
//
// The same properties back FuzzBuildSchedule (fuzz_test.go); this file keeps
// the deterministic sweep that runs on every `go test`.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// solvePair builds WCS and the WCS-warm-started ACS for set — the pipeline
// every harness and the serving path use.
func solvePair(t testing.TB, set *task.Set, cfg core.Config) (acs, wcs *core.Schedule) {
	t.Helper()
	wcsCfg := cfg
	wcsCfg.Objective = core.WorstCase
	wcs, err := core.Build(set, wcsCfg)
	if err != nil {
		t.Fatalf("WCS build: %v", err)
	}
	acsCfg := cfg
	acsCfg.Objective = core.AverageCase
	acsCfg.WarmStart = wcs
	acs, err = core.Build(set, acsCfg)
	if err != nil {
		t.Fatalf("ACS build: %v", err)
	}
	return acs, wcs
}

// assertScheduleInvariants checks properties 1, 2 and 4 on one schedule.
func assertScheduleInvariants(t testing.TB, label string, s *core.Schedule, simSeed uint64) {
	t.Helper()
	tol := 1e-6 * math.Max(1, s.Plan.Hyperperiod)
	if err := s.Verify(tol); err != nil {
		t.Errorf("%s: Verify: %v", label, err)
	}

	// Voltage bounds under the two extreme workload outcomes.
	vmin, vmax := s.Model.VMin(), s.Model.VMax()
	for _, loads := range []string{"acec", "wcec"} {
		actual := make([]float64, len(s.Plan.Instances))
		for i := range actual {
			tk := &s.Plan.Set.Tasks[s.Plan.Instances[i].TaskIndex]
			if loads == "acec" {
				actual[i] = tk.ACEC
			} else {
				actual[i] = tk.WCEC
			}
		}
		volts, err := s.RuntimeVoltages(actual)
		if err != nil {
			t.Fatalf("%s: RuntimeVoltages(%s): %v", label, loads, err)
		}
		for pos, v := range volts {
			if v == 0 {
				continue // piece executed nothing
			}
			if v < vmin-1e-9 || v > vmax+1e-9 {
				t.Errorf("%s: sub %d runs at %g V under %s loads, outside [%g, %g]",
					label, pos, v, loads, vmin, vmax)
			}
		}
	}

	// Greedy reclamation preserves feasibility under stochastic workloads.
	r, err := sim.Run(s, sim.Config{Policy: sim.Greedy, Hyperperiods: 20, Seed: simSeed})
	if err != nil {
		t.Fatalf("%s: sim: %v", label, err)
	}
	if r.DeadlineMisses != 0 {
		t.Errorf("%s: greedy reclamation missed %d deadlines (worst overshoot %g ms)",
			label, r.DeadlineMisses, r.WorstOvershoot)
	}
	if !(r.Energy > 0) || math.IsInf(r.Energy, 0) || math.IsNaN(r.Energy) {
		t.Errorf("%s: implausible simulated energy %g", label, r.Energy)
	}
}

// assertPairInvariants checks property 3 across the solved pair.
func assertPairInvariants(t testing.TB, label string, acs, wcs *core.Schedule) {
	t.Helper()
	avg := make([]float64, len(wcs.Plan.Instances))
	for i := range avg {
		avg[i] = wcs.Plan.Set.Tasks[wcs.Plan.Instances[i].TaskIndex].ACEC
	}
	wcsAvg, over, err := wcs.EnergyUnder(avg)
	if err != nil {
		t.Fatalf("%s: WCS at average loads: %v", label, err)
	}
	if over > 1e-6*math.Max(1, wcs.Plan.Hyperperiod) {
		t.Errorf("%s: WCS at average loads overshoots a deadline by %g ms", label, over)
	}
	// The warm start guarantees ACS is at least as good as the WCS point in
	// the ACS objective landscape (coordinate descent only accepts strict
	// improvements from it).
	if acs.Energy > wcsAvg*(1+1e-9)+1e-12 {
		t.Errorf("%s: ACS predicted energy %g exceeds WCS baseline at average loads %g",
			label, acs.Energy, wcsAvg)
	}
	// And the average-case objective can never exceed the worst-case one:
	// per piece, average work ≤ worst-case work at the same-or-lower voltage.
	if acs.Energy > wcs.Energy*(1+1e-9)+1e-12 {
		t.Errorf("%s: ACS predicted energy %g exceeds WCS worst-case energy %g",
			label, acs.Energy, wcs.Energy)
	}
}

// assertYDSOracle checks WCS against the YDS optimum of its worst-case jobs,
// computed by internal/yds from the task set. With one Ceff on the
// SimpleInverse model no feasible schedule is cheaper, so WCS sits at or
// above the bound (core.YDSBound's floor, which also allows for cycles a
// dead reservation leaves uncharged), and where the seed certifies
// (core.Solve) it equals the bound to 1e-12. Sets outside those conditions
// have no such bound.
func assertYDSOracle(t testing.TB, label string, wcs *core.Schedule, cfg core.Config) {
	t.Helper()
	bound, floor, ok, err := core.YDSBound(wcs)
	if err != nil {
		t.Fatalf("%s: YDS bound: %v", label, err)
	}
	if !ok {
		return
	}
	if wcs.Energy < floor {
		t.Errorf("%s: WCS energy %.17g below the YDS bound %.17g", label, wcs.Energy, bound)
	}
	if core.SeedCertifies(wcs.Plan, cfg) && math.Abs(wcs.Energy-bound) > 1e-12*bound {
		t.Errorf("%s: certified WCS energy %.17g, YDS bound %.17g", label, wcs.Energy, bound)
	}
}

// TestSolverPropertiesRandomSets sweeps the properties over a deterministic
// grid of generated task sets — small enough for every `go test`, wide
// enough to cover the (N, ratio) space the paper sweeps.
func TestSolverPropertiesRandomSets(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	for _, n := range []int{2, 4, 6} {
		for _, ratio := range []float64{0.1, 0.5, 0.9} {
			for seed := uint64(1); seed <= 2; seed++ {
				label := fmt.Sprintf("N=%d ratio=%g seed=%d", n, ratio, seed)
				rng := stats.NewRNG(stats.SeedFromCell(n, ratio) ^ seed)
				set, err := workload.RandomFeasible(rng, workload.RandomConfig{
					N: n, Ratio: ratio, Utilization: 0.7,
				}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
				if err != nil {
					t.Logf("%s: no feasible set (%v), skipping cell", label, err)
					continue
				}
				acs, wcs := solvePair(t, set, core.Config{})
				assertScheduleInvariants(t, label+" ACS", acs, seed)
				assertScheduleInvariants(t, label+" WCS", wcs, seed)
				assertPairInvariants(t, label, acs, wcs)
				assertYDSOracle(t, label+" WCS", wcs, core.Config{})
			}
		}
	}
}

// TestSolverPropertiesRealLifeSets runs the same properties over the two
// real-life applications at the paper's ratio sweep.
func TestSolverPropertiesRealLifeSets(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	apps := []struct {
		name string
		gen  func(ratio float64) (*task.Set, error)
	}{
		{"cnc", func(r float64) (*task.Set, error) { return workload.CNC(r, 0.7, nil) }},
		{"gap", func(r float64) (*task.Set, error) { return workload.GAP(r, 0.7, nil) }},
	}
	for _, app := range apps {
		for _, ratio := range []float64{0.1, 0.9} {
			label := fmt.Sprintf("%s ratio=%g", app.name, ratio)
			set, err := app.gen(ratio)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg := core.Config{}
			if app.name == "gap" {
				cfg.Preempt.MaxSubsPerInstance = 4 // GAP's expansion is huge uncapped
			}
			acs, wcs := solvePair(t, set, cfg)
			assertScheduleInvariants(t, label+" ACS", acs, 11)
			assertScheduleInvariants(t, label+" WCS", wcs, 11)
			assertPairInvariants(t, label, acs, wcs)
			assertYDSOracle(t, label+" WCS", wcs, cfg)
		}
	}
}

// TestSplitRevivalKeepsDeadlines is the regression pin for the solver bug
// the property layer surfaced: a split transfer reviving a dead piece used
// to keep the piece's stale bookkeeping end, which can sit past its deadline
// — the solver then returned "solver produced an invalid schedule". The
// failing input is frozen here verbatim.
func TestSplitRevivalKeepsDeadlines(t *testing.T) {
	rng := stats.NewRNG(uint64(uint16(0x99cd)))
	n := int(uint8(0x3b)%6) + 2
	ratio := float64(uint8(0x5e)%9+1) / 10
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: n, Ratio: ratio, Utilization: 0.7,
	}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		t.Fatalf("the frozen input no longer generates: %v", err)
	}
	wcs, err := core.Build(set, core.Config{Objective: core.WorstCase, MaxSweeps: 8})
	if err != nil {
		t.Fatalf("WCS build on the frozen input: %v", err)
	}
	if _, err := core.Build(set, core.Config{
		Objective: core.AverageCase, MaxSweeps: 8, WarmStart: wcs,
	}); err != nil {
		t.Fatalf("ACS build on the frozen input: %v", err)
	}
}

// TestBuildContextCancel: a canceled context stops the solve and surfaces
// context.Canceled; the same config without a context still solves.
func TestBuildContextCancel(t *testing.T) {
	set, err := workload.CNC(0.5, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.BuildContext(ctx, set, core.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Multi-start path honours cancellation too.
	if _, err := core.BuildContext(ctx, set, core.Config{Starts: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("multi-start: want context.Canceled, got %v", err)
	}
	s, err := core.BuildContext(context.Background(), set, core.Config{})
	if err != nil || s == nil {
		t.Fatalf("live context must solve: %v", err)
	}
}

// TestSimContextCancel: the simulation engine honours Config.Ctx between
// hyper-periods.
func TestSimContextCancel(t *testing.T) {
	set, err := workload.CNC(0.5, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(set, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Run(s, sim.Config{Hyperperiods: 50, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := sim.Run(s, sim.Config{Hyperperiods: 50, Ctx: context.Background()}); err != nil {
		t.Fatalf("live context must simulate: %v", err)
	}
}
