package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/yds"
)

// The random-set ablations (E5, E7, E8, E10) all sweep the same kind of
// coordinate — the i-th random task set of an (N, ratio) cell — and differ
// only in what they run on the solved schedules. Each drains its set loop
// through the grid pool (one job per set, results folded in set order) and
// derives its sets via randomCellSet, so the four harnesses and the matching
// Fig. 6(a) cell all resolve to the *same* WCS/ACS solves in the grid memo.
// (Before PR 3 each harness salted its seeds differently and re-ran the
// whole generate→WCS→ACS pipeline from scratch; absolute ablation values
// therefore differ from PR 2, while every invariant the tests pin —
// orderings, normalisations — is seed-independent.)

// --- E5: slack-policy ablation ---------------------------------------------

// SlackCell reports the runtime energy of one (schedule, policy) pairing
// normalised to the NoDVS baseline.
type SlackCell struct {
	Schedule string // "ACS" or "WCS"
	Policy   sim.SlackPolicy
	// RelEnergy is energy / NoDVS energy across task sets.
	RelEnergy stats.Summary
}

// SlackPolicyAblation isolates the offline and online contributions: it runs
// ACS and WCS schedules under greedy, static and no-DVS runtime policies on
// random task sets (N tasks, given ratio) and reports energies relative to
// NoDVS. The paper's headline gain needs *both* the ACS offline schedule and
// the greedy online policy; this table shows each alone.
func SlackPolicyAblation(c Common, n int, ratio float64) ([]SlackCell, error) {
	cc := c.withDefaults()
	policies := []sim.SlackPolicy{sim.Greedy, sim.Static, sim.NoDVS}
	cells := make([]SlackCell, 0, 6)
	for _, objName := range []string{"ACS", "WCS"} {
		for _, pol := range policies {
			cells = append(cells, SlackCell{Schedule: objName, Policy: pol})
		}
	}

	g := cc.Grid
	results, err := grid.CollectErr(g, cc.Sets, func(i int) ([]float64, error) {
		set, rng, err := randomCellSet(cc, n, ratio, i)
		if err != nil {
			return nil, err
		}
		acs, wcs, err := solvePair(g, set, cc, core.Config{})
		if err != nil {
			return nil, err
		}
		simSeed := rng.Uint64()
		acsPlan, err := sim.Compile(acs)
		if err != nil {
			return nil, err
		}
		wcsPlan, err := sim.Compile(wcs)
		if err != nil {
			return nil, err
		}

		// NoDVS energy is policy-invariant across schedules up to workload
		// draws; use the WCS schedule's run as the normaliser. The grid pool
		// is already saturated by per-set jobs, so inner sims stay serial.
		base, err := wcsPlan.Run(sim.Config{Policy: sim.NoDVS, Hyperperiods: cc.Reps, Seed: simSeed})
		if err != nil {
			return nil, err
		}
		rel := make([]float64, len(cells))
		for ci := range cells {
			p := acsPlan
			if cells[ci].Schedule == "WCS" {
				p = wcsPlan
			}
			r, err := p.Run(sim.Config{Policy: cells[ci].Policy, Hyperperiods: cc.Reps, Seed: simSeed})
			if err != nil {
				return nil, err
			}
			rel[ci] = r.Energy / base.Energy
		}
		return rel, nil
	})
	if err != nil {
		return nil, err
	}

	for _, rel := range results {
		for ci := range cells {
			cells[ci].RelEnergy.Add(rel[ci])
		}
	}
	return cells, nil
}

// SlackTable renders the slack ablation.
func SlackTable(cells []SlackCell) string {
	var b strings.Builder
	b.WriteString("E5 slack-policy ablation: energy relative to NoDVS (lower is better)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-20s\n", "schedule", "policy", "relative energy")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s %-8s %6.3f ±%.3f\n",
			c.Schedule, c.Policy, c.RelEnergy.Mean(), c.RelEnergy.CI95())
	}
	return b.String()
}

// --- E6: sub-instance cap ablation ------------------------------------------

// CapCell reports GAP improvement at one preemption-granularity cap.
type CapCell struct {
	Cap         int // 0 = unlimited
	Subs        int
	Improvement float64
	// Infeasible records that the cap merged segments so aggressively the
	// worst case no longer fits at Vmax — itself an ablation finding: the
	// fully-preemptive expansion is not just an optimisation, it is what
	// keeps tight task sets schedulable.
	Infeasible bool
}

// SubInstanceCapAblation sweeps preempt.Options.MaxSubsPerInstance on the
// GAP application at the given ratio, quantifying what the fully-preemptive
// expansion buys against its NLP cost. Caps are independent jobs on the grid
// pool (each cap changes the preemptive expansion, so nothing is shared
// between them — but re-runs at a cap Fig. 6(b) also uses hit its memo
// entry).
func SubInstanceCapAblation(c Common, ratio float64, caps []int) ([]CapCell, error) {
	cc := c.withDefaults()
	if len(caps) == 0 {
		caps = []int{2, 4, 8, 16, 0} // 0 = the full fully-preemptive expansion
	}
	set, err := workload.GAP(ratio, cc.Utilization, cc.Model)
	if err != nil {
		return nil, err
	}
	g := cc.Grid
	return grid.Collect(g, len(caps), func(i int) CapCell {
		pre := core.Config{}
		pre.Preempt.MaxSubsPerInstance = caps[i]
		imp, subs, err := compareOnSet(g, set, cc, cc.Seed, pre)
		if err != nil {
			// Aggressive merging can make the worst case unschedulable at
			// Vmax; report the cell rather than aborting the sweep.
			return CapCell{Cap: caps[i], Infeasible: true}
		}
		return CapCell{Cap: caps[i], Subs: subs, Improvement: imp}
	}), nil
}

// CapTable renders the cap ablation.
func CapTable(cells []CapCell) string {
	var b strings.Builder
	b.WriteString("E6 sub-instance cap ablation (GAP): preemption granularity vs gain\n")
	fmt.Fprintf(&b, "%-6s %-8s %-12s\n", "cap", "subs", "improvement")
	for _, c := range cells {
		capLabel := fmt.Sprintf("%d", c.Cap)
		if c.Cap == 0 {
			capLabel = "inf"
		}
		if c.Infeasible {
			fmt.Fprintf(&b, "%-6s %-8s %s\n", capLabel, "-", "infeasible at Vmax (over-merged)")
			continue
		}
		fmt.Fprintf(&b, "%-6s %-8d %6.1f%%\n", capLabel, c.Subs, c.Improvement)
	}
	return b.String()
}

// --- E7: voltage-transition overhead ablation --------------------------------

// OverheadCell reports improvement when each voltage switch costs time and
// energy, validating the paper's negligible-overhead assumption.
type OverheadCell struct {
	TimeMs      float64
	EnergyPerSw float64
	Improvement stats.Summary
	MissRate    float64 // fraction of runs with any deadline miss
}

// TransitionOverheadAblation re-runs the Fig. 6(a) comparison at one (N,
// ratio) cell while charging per-switch overhead. The per-set solves are the
// Fig. 6(a) cell's own (shared through the memo); only the simulations
// differ per overhead point.
func TransitionOverheadAblation(c Common, n int, ratio float64, overheads []sim.Overhead) ([]OverheadCell, error) {
	cc := c.withDefaults()
	if len(overheads) == 0 {
		overheads = []sim.Overhead{
			{},
			{TimeMs: 0.01, EnergyPerSwitch: 0.1, Epsilon: 0.01},
			{TimeMs: 0.05, EnergyPerSwitch: 0.5, Epsilon: 0.01},
			{TimeMs: 0.1, EnergyPerSwitch: 1.0, Epsilon: 0.01},
		}
	}
	cells := make([]OverheadCell, len(overheads))
	for oi, ov := range overheads {
		cells[oi] = OverheadCell{TimeMs: ov.TimeMs, EnergyPerSw: ov.EnergyPerSwitch}
	}

	type setRes struct {
		imp    []float64 // per overhead point
		missed []bool
	}
	g := cc.Grid
	results, err := grid.CollectErr(g, cc.Sets, func(i int) (setRes, error) {
		set, rng, err := randomCellSet(cc, n, ratio, i)
		if err != nil {
			return setRes{}, err
		}
		acs, wcs, err := solvePair(g, set, cc, core.Config{})
		if err != nil {
			return setRes{}, err
		}
		acsPlan, err := sim.Compile(acs)
		if err != nil {
			return setRes{}, err
		}
		wcsPlan, err := sim.Compile(wcs)
		if err != nil {
			return setRes{}, err
		}
		simSeed := rng.Uint64()
		res := setRes{imp: make([]float64, len(overheads)), missed: make([]bool, len(overheads))}
		for oi, ov := range overheads {
			imp, ra, rb, err := sim.ComparePlans(acsPlan, wcsPlan, sim.Config{
				Policy: sim.Greedy, Hyperperiods: cc.Reps, Seed: simSeed, Overhead: ov,
			})
			if err != nil {
				return setRes{}, err
			}
			res.imp[oi] = imp
			res.missed[oi] = ra.DeadlineMisses+rb.DeadlineMisses > 0
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	misses := make([]int, len(overheads))
	for _, r := range results {
		for oi := range cells {
			cells[oi].Improvement.Add(r.imp[oi])
			if r.missed[oi] {
				misses[oi]++
			}
		}
	}
	for oi := range cells {
		cells[oi].MissRate = float64(misses[oi]) / float64(cc.Sets)
	}
	return cells, nil
}

// OverheadTable renders the overhead ablation.
func OverheadTable(cells []OverheadCell) string {
	var b strings.Builder
	b.WriteString("E7 transition-overhead ablation: improvement under per-switch cost\n")
	fmt.Fprintf(&b, "%-10s %-12s %-16s %-8s\n", "time(ms)", "energy/sw", "improvement", "missRate")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10g %-12g %6.1f%% ±%-6.1f %6.2f\n",
			c.TimeMs, c.EnergyPerSw, c.Improvement.Mean(), c.Improvement.CI95(), c.MissRate)
	}
	return b.String()
}

// --- E8: discrete voltage levels ---------------------------------------------

// LevelCell reports improvement on an L-level processor.
type LevelCell struct {
	Levels      int // 0 = continuous
	Improvement stats.Summary
}

// DiscreteLevelAblation re-runs the comparison with the runtime voltage
// quantised up to {2,4,8} uniformly spaced levels. Static schedules are
// still solved continuously (as the paper assumes); only the runtime
// dispatcher quantises, which preserves deadline safety because quantising
// up never slows execution.
func DiscreteLevelAblation(c Common, n int, ratio float64, levelCounts []int) ([]LevelCell, error) {
	cc := c.withDefaults()
	if len(levelCounts) == 0 {
		levelCounts = []int{0, 8, 4, 2}
	}
	cells := make([]LevelCell, len(levelCounts))
	for li, l := range levelCounts {
		cells[li] = LevelCell{Levels: l}
	}

	g := cc.Grid
	results, err := grid.CollectErr(g, cc.Sets, func(i int) ([]float64, error) {
		set, rng, err := randomCellSet(cc, n, ratio, i)
		if err != nil {
			return nil, err
		}
		acs, wcs, err := solvePair(g, set, cc, core.Config{})
		if err != nil {
			return nil, err
		}
		simSeed := rng.Uint64()
		imps := make([]float64, len(levelCounts))
		for li, l := range levelCounts {
			var imp float64
			if l == 0 {
				// Continuous: run the compiled plans directly.
				acsPlan, err := sim.Compile(acs)
				if err != nil {
					return nil, err
				}
				wcsPlan, err := sim.Compile(wcs)
				if err != nil {
					return nil, err
				}
				if imp, _, _, err = sim.ComparePlans(acsPlan, wcsPlan, sim.Config{
					Policy: sim.Greedy, Hyperperiods: cc.Reps, Seed: simSeed,
				}); err != nil {
					return nil, err
				}
			} else {
				levels, err := power.UniformLevels(cc.Model, l)
				if err != nil {
					return nil, err
				}
				dm, err := power.NewDiscrete(cc.Model, levels)
				if err != nil {
					return nil, err
				}
				// Swap the runtime model; static End/WCWork stay as solved.
				// The cached schedules are shared, so clone before mutating.
				a2 := core.CloneSchedule(acs)
				a2.Model = dm
				b2 := core.CloneSchedule(wcs)
				b2.Model = dm
				if imp, _, _, err = sim.Compare(a2, b2, sim.Config{
					Policy: sim.Greedy, Hyperperiods: cc.Reps, Seed: simSeed,
				}); err != nil {
					return nil, err
				}
			}
			imps[li] = imp
		}
		return imps, nil
	})
	if err != nil {
		return nil, err
	}

	for _, imps := range results {
		for li := range cells {
			cells[li].Improvement.Add(imps[li])
		}
	}
	return cells, nil
}

// LevelTable renders the discrete-level ablation.
func LevelTable(cells []LevelCell) string {
	var b strings.Builder
	b.WriteString("E8 discrete-level ablation: improvement vs available voltage levels\n")
	fmt.Fprintf(&b, "%-10s %-16s\n", "levels", "improvement")
	for _, c := range cells {
		label := fmt.Sprintf("%d", c.Levels)
		if c.Levels == 0 {
			label = "cont"
		}
		fmt.Fprintf(&b, "%-10s %6.1f%% ±%.1f\n", label, c.Improvement.Mean(), c.Improvement.CI95())
	}
	return b.String()
}

// --- E9: solver cross-check ---------------------------------------------------

// CrossCheckResult compares the production coordinate-descent solver with
// the reference solvers and the YDS lower bound on one small task set.
type CrossCheckResult struct {
	Subs int
	// CD is the coordinate-descent (production) objective.
	CD float64
	// NM is the Nelder–Mead reference objective (end-times only).
	NM float64
	// Penalty is the exterior-penalty reference objective and its residual
	// constraint violation.
	Penalty          float64
	PenaltyViolation float64
	// WCSEnergy is the worst-case static energy of the WCS schedule and
	// YDSLower the optimal preemptive-EDF lower bound for the same jobs.
	// Render prints "=" where they agree to 1e-12 relative: the WCS build
	// certified its YDS seed (core.Solve).
	WCSEnergy float64
	YDSLower  float64
}

// SolverCrossCheck runs E9 on a random small set (n tasks). Its two
// identical WCS builds (warm-start source and baseline) collapse to one
// solve through the grid memo.
func SolverCrossCheck(c Common, n int) (*CrossCheckResult, error) {
	cc := c.withDefaults()
	g := cc.Grid
	rng := stats.NewRNG(cc.Seed + 4242)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: n, Ratio: 0.5, Utilization: cc.Utilization, Model: cc.Model,
	}, 50, feasibleFilter(cc.Model))
	if err != nil {
		return nil, err
	}
	wcsWarm, err := g.BuildSchedule(set, core.Config{Objective: core.WorstCase, Model: cc.Model})
	if err != nil {
		return nil, err
	}
	acs, err := g.BuildSchedule(set, core.Config{
		Objective: core.AverageCase, Model: cc.Model, WarmStart: wcsWarm,
	})
	if err != nil {
		return nil, err
	}
	out := &CrossCheckResult{Subs: len(acs.Plan.Subs), CD: acs.Energy}

	nm := core.CloneSchedule(acs)
	if out.NM, err = core.NewNLP(nm).SolveNelderMead(opt.NelderMeadOptions{
		MaxEvals: 20000, Tol: 1e-10, Step: 0.05,
	}); err != nil {
		return nil, err
	}

	pen := core.CloneSchedule(acs)
	penNLP := core.NewNLP(pen)
	obj, viol, err := penNLP.SolvePenalty(opt.PenaltyOptions{
		Rounds: 4, StepIters: 150,
	}, 1e-3)
	if err != nil {
		return nil, err
	}
	out.Penalty, out.PenaltyViolation = obj, viol

	wcs, err := g.BuildSchedule(set, core.Config{Objective: core.WorstCase, Model: cc.Model})
	if err != nil {
		return nil, err
	}
	out.WCSEnergy = wcs.Energy
	jobs, err := yds.FromTaskSet(set)
	if err != nil {
		return nil, err
	}
	ys, err := yds.Build(jobs)
	if err != nil {
		return nil, err
	}
	if out.YDSLower, err = ys.Energy(cc.Model); err != nil {
		return nil, err
	}
	return out, nil
}

// Render formats the cross-check.
func (r *CrossCheckResult) Render() string {
	var b strings.Builder
	b.WriteString("E9 solver cross-check (avg-case objective; lower is better)\n")
	fmt.Fprintf(&b, "  sub-instances:        %d\n", r.Subs)
	fmt.Fprintf(&b, "  coordinate descent:   %.6g\n", r.CD)
	fmt.Fprintf(&b, "  Nelder-Mead ref:      %.6g\n", r.NM)
	fmt.Fprintf(&b, "  penalty-method ref:   %.6g (violation %.2g)\n", r.Penalty, r.PenaltyViolation)
	rel := ">="
	if math.Abs(r.WCSEnergy-r.YDSLower) <= 1e-12*r.YDSLower {
		rel = "="
	}
	fmt.Fprintf(&b, "  WCS worst-case energy %.6g  %s  YDS lower bound %.6g\n", r.WCSEnergy, rel, r.YDSLower)
	return b.String()
}
