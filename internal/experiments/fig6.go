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
// WCS as a function of task count, one series per BCEC/WCEC ratio.
//
// The whole sweep — every (N, ratio, set) coordinate — is flattened into one
// job list drained by the grid pool, so a slow cell's tail overlaps the next
// cell's work instead of idling the host behind a per-cell barrier. Per-set
// results land in index-addressed slots and are folded per cell in set
// order, keeping the figure bit-identical for any worker count.
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
		err  error
	}
	nCells := len(counts) * len(ratios)
	results := make([]setRes, nCells*c.Sets)
	g := c.Grid
	g.ForEach(len(results), func(j int) {
		ci, i := j/c.Sets, j%c.Sets
		n, ratio := counts[ci/len(ratios)], ratios[ci%len(ratios)]
		set, rng, err := randomCellSet(c, n, ratio, i)
		if err != nil {
			results[j] = setRes{err: err}
			return
		}
		// The flat job pool already saturates the host; keep each inner
		// simulation serial (results are identical either way).
		imp, subs, err := compareOnSet(g, set, c, rng.Uint64(), core.Config{}, 1)
		results[j] = setRes{imp: imp, subs: subs, err: err}
	})

	cells := make([]Cell, 0, nCells)
	for ci := 0; ci < nCells; ci++ {
		cell := Cell{N: counts[ci/len(ratios)], Ratio: ratios[ci%len(ratios)]}
		var subs []int
		for i := 0; i < c.Sets; i++ {
			r := &results[ci*c.Sets+i]
			if r.err != nil {
				cell.Failures++
				continue
			}
			cell.Improvement.Add(r.imp)
			subs = append(subs, r.subs)
		}
		cell.MeanSubs = meanInts(subs)
		cells = append(cells, cell)
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
	// MaxSubsPerInstance caps preemption granularity for the larger sets
	// (GAP). 0 means unlimited; the default 12 keeps GAP's NLP tractable
	// while staying inside the paper's ≈1000-sub-instance budget.
	MaxSubsPerInstance int
}

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
	subCap := cfg.MaxSubsPerInstance
	if subCap == 0 {
		subCap = 12
	}
	seedReps := c.Sets
	if seedReps > 10 {
		seedReps = 10
	}

	g := c.Grid
	return grid.CollectErr(g, len(apps)*len(ratios), func(j int) (AppCell, error) {
		app, ratio := apps[j/len(ratios)], ratios[j%len(ratios)]
		set, err := makeApp(app, ratio, c)
		if err != nil {
			return AppCell{}, err
		}
		pre := core.Config{}
		pre.Preempt.MaxSubsPerInstance = subCap
		acs, wcs, err := solvePair(g, set, c, pre)
		if err != nil {
			return AppCell{}, fmt.Errorf("%s ratio %g: %w", app, ratio, err)
		}
		acsPlan, err := sim.Compile(acs)
		if err != nil {
			return AppCell{}, err
		}
		wcsPlan, err := sim.Compile(wcs)
		if err != nil {
			return AppCell{}, err
		}

		cell := AppCell{App: app, Ratio: ratio, Subs: len(acs.Plan.Subs)}
		for k := 0; k < seedReps; k++ {
			seed := setSeed(c.Seed+stats.SeedFromApp(app, ratio), k)
			imp, _, _, err := sim.ComparePlans(acsPlan, wcsPlan, sim.Config{
				Policy:       sim.Greedy,
				Hyperperiods: c.Reps,
				Seed:         seed,
				Workers:      runtime.GOMAXPROCS(0),
			})
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

func makeApp(app string, ratio float64, c Common) (*task.Set, error) {
	switch app {
	case "CNC":
		return workload.CNC(ratio, c.Utilization, c.Model)
	case "GAP":
		return workload.GAP(ratio, c.Utilization, c.Model)
	case "GAPExact":
		return workload.GAPExact(ratio, c.Utilization, c.Model)
	default:
		return nil, fmt.Errorf("experiments: unknown application %q", app)
	}
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}
