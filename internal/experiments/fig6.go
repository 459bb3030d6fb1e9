package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// Fig6aConfig parameterises the random-task-set sweep of Fig. 6(a).
type Fig6aConfig struct {
	Common
	// TaskCounts defaults to the paper's {2, 4, 6, 8, 10}.
	TaskCounts []int
	// Ratios defaults to the paper's {0.1, 0.5, 0.9}.
	Ratios []float64
}

// Fig6a reproduces Fig. 6(a): the percentage energy improvement of ACS over
// WCS as a function of task count, one series per BCEC/WCEC ratio. Every
// (N, ratio, set) coordinate is one job of the sweep.
func Fig6a(cfg Fig6aConfig) ([]Cell, error) {
	c := cfg.Common.withDefaults()
	counts := cfg.TaskCounts
	if len(counts) == 0 {
		counts = []int{2, 4, 6, 8, 10}
	}
	ratios := cfg.Ratios
	if len(ratios) == 0 {
		ratios = []float64{0.1, 0.5, 0.9}
	}

	type setRes struct {
		imp  float64
		subs int
	}
	results, errs := sweep(c, len(counts)*len(ratios), func(ci, i int) (setRes, error) {
		p, seed, err := cellPair(c, counts[ci/len(ratios)], ratios[ci%len(ratios)], i)
		if err != nil {
			return setRes{}, err
		}
		// The flat job pool already saturates the host; keep each inner
		// simulation serial (results are identical either way).
		imp, _, _, err := sim.ComparePlans(p.acsPlan, p.wcsPlan, c.greedy(seed))
		return setRes{imp: imp, subs: len(p.acs.Plan.Subs)}, err
	})

	cells := make([]Cell, len(counts)*len(ratios))
	for ci := range cells {
		cells[ci].N, cells[ci].Ratio = counts[ci/len(ratios)], ratios[ci%len(ratios)]
	}
	for j, r := range results {
		cell := &cells[j/c.Sets]
		if errs[j] != nil {
			cell.Failures++
			continue
		}
		cell.Improvement.Add(r.imp)
		cell.MeanSubs += float64(r.subs)
	}
	for ci := range cells {
		if n := cells[ci].Improvement.N(); n > 0 {
			cells[ci].MeanSubs /= float64(n)
		}
	}
	return cells, nil
}

// Fig6bConfig parameterises the real-life application sweep of Fig. 6(b).
type Fig6bConfig struct {
	Common
	// Ratios defaults to the paper's {0.1, 0.5, 0.9}.
	Ratios []float64
	// Apps defaults to {"CNC", "GAP"}.
	Apps []string
}

// appSubCap caps Fig. 6(b)'s preemption granularity at 12 sub-instances per
// instance: it keeps GAP's NLP tractable while staying inside the paper's
// ≈1000-sub-instance budget.
const appSubCap = 12

// AppCell is one Fig. 6(b) point.
type AppCell struct {
	App         string
	Ratio       float64
	Improvement float64 // percentage, single deterministic task set
	Subs        int
	Seeds       stats.Summary // improvement across simulation seeds
}

// Fig6b reproduces Fig. 6(b): ACS-over-WCS improvement for the CNC and GAP
// applications across BCEC/WCEC ratios. Unlike Fig. 6(a) the task sets are
// fixed, so variability comes only from simulation seeds: each cell runs
// SeedReps simulations (bounded by Common.Sets) and reports their spread.
//
// Cells are the flat job unit (the solve dominates; the per-seed loop reuses
// the cell's compiled plans). Per-seed streams are derived from the full
// (app, ratio, k) coordinate — ratio included, so no two cells of an app
// share workload draws. That derivation changed in PR 3: absolute simulated
// energies differ from PR 2, which keyed streams by (app, k) only and fed
// every ratio of an app the same draws.
func Fig6b(cfg Fig6bConfig) ([]AppCell, error) {
	c := cfg.Common.withDefaults()
	ratios := cfg.Ratios
	if len(ratios) == 0 {
		ratios = []float64{0.1, 0.5, 0.9}
	}
	apps := cfg.Apps
	if len(apps) == 0 {
		apps = []string{"CNC", "GAP"}
	}
	seedReps := min(c.Sets, 10)

	return grid.CollectErr(c.Grid, len(apps)*len(ratios), func(j int) (AppCell, error) {
		app, ratio := apps[j/len(ratios)], ratios[j%len(ratios)]
		set, err := makeApp(app, ratio)
		if err != nil {
			return AppCell{}, err
		}
		pre := core.Config{}
		pre.Preempt.MaxSubsPerInstance = appSubCap
		p, err := solvePair(c, set, pre)
		if err != nil {
			return AppCell{}, fmt.Errorf("%s ratio %g: %w", app, ratio, err)
		}

		cell := AppCell{App: app, Ratio: ratio, Subs: len(p.acs.Plan.Subs)}
		for k := 0; k < seedReps; k++ {
			sc := c.greedy(setSeed(c.Seed+stats.SeedFromApp(app, ratio), k))
			sc.Workers = runtime.GOMAXPROCS(0)
			imp, _, _, err := sim.ComparePlans(p.acsPlan, p.wcsPlan, sc)
			if err != nil {
				return AppCell{}, err
			}
			cell.Seeds.Add(imp)
		}
		cell.Improvement = cell.Seeds.Mean()
		return cell, nil
	})
}

// AppTable renders Fig. 6(b) cells.
func AppTable(cells []AppCell) string {
	s := "Fig. 6(b): ACS improvement over WCS, real-life applications\n"
	s += fmt.Sprintf("%-6s %-8s %-14s %-8s\n", "app", "ratio", "improvement", "subs")
	for _, c := range cells {
		s += fmt.Sprintf("%-6s %-8.2f %6.1f%% ±%-5.1f %-8d\n",
			c.App, c.Ratio, c.Improvement, c.Seeds.CI95(), c.Subs)
	}
	return s
}

// AppCSV renders Fig. 6(b) cells as CSV.
func AppCSV(cells []AppCell) string {
	s := "app,ratio,improvement_mean_pct,improvement_ci95,subs\n"
	for _, c := range cells {
		s += fmt.Sprintf("%s,%g,%.3f,%.3f,%d\n", c.App, c.Ratio, c.Improvement, c.Seeds.CI95(), c.Subs)
	}
	return s
}

func makeApp(app string, ratio float64) (*task.Set, error) {
	switch app {
	case "CNC":
		return workload.CNC(ratio, utilization, nil)
	case "GAP":
		return workload.GAP(ratio, utilization, nil)
	case "GAPExact":
		return workload.GAPExact(ratio, utilization, nil)
	default:
		return nil, fmt.Errorf("experiments: unknown application %q", app)
	}
}
