package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// PartitionSweepConfig parameterises E11: the multi-core partitioned
// extension — global ACS-vs-WCS improvement as the core count grows, with
// the FFD-vs-worst-fit packing ablation riding along.
type PartitionSweepConfig struct {
	Common
	// Cores is the core-count axis (default {1, 2, 4}).
	Cores []int
	// N is the task count per set (default 8; total utilisation scales
	// with the core count, the per-core target stays utilization). Every
	// set has BCEC/WCEC 0.5 (partitionRatio), the paper's middle series.
	N int
	// Modes are the packing heuristics to ablate (default FFD, worst-fit).
	Modes []partition.Mode
	// Moves is the cross-core improvement-loop round budget (default 2;
	// single-core cells skip the loop by construction).
	Moves int
}

// PartitionCell is one aggregated (cores, mode) point.
type PartitionCell struct {
	Cores int
	Mode  string
	// Improvement is the distribution of global improvement percentages:
	// 100·(ΣWCS-at-average − ΣACS)/ΣWCS-at-average over the final
	// assignment's cores.
	Improvement stats.Summary
	// Energy is the distribution of global ACS predicted energy.
	Energy stats.Summary
	// Moves is the distribution of accepted improvement-loop moves.
	Moves stats.Summary
	// Failures counts task sets that could not be generated or solved.
	Failures int
}

// partitionRatio is E11's BCEC/WCEC ratio.
const partitionRatio = 0.5

// partitionCellSet draws the i-th set of a core-count cell: admissible
// under every swept packing mode, so each mode solves the same population.
// Its seed is shared across packing modes, so FFD and worst-fit score the
// identical sets and — via the grid memo — share every per-core solve their
// packings have in common.
func partitionCellSet(c Common, cfg PartitionSweepConfig, cores, i int) (*task.Set, error) {
	cell := fmt.Sprintf("partition|%d|%d|%g", cores, cfg.N, partitionRatio)
	rng := stats.NewRNG(setSeed(c.Seed^stats.SeedFromString(cell), i))
	return workload.RandomFeasible(rng, workload.RandomConfig{
		N: cfg.N, Ratio: partitionRatio, Utilization: utilization, Cores: cores,
	}, 50, func(s *task.Set) bool {
		for _, mode := range cfg.Modes {
			if _, err := partition.Admit(s, partition.Config{Cores: cores, Mode: mode}); err != nil {
				return false
			}
		}
		return true
	})
}

// PartitionSweep runs E11. Each (cores, mode, set) coordinate is one job of
// the sweep; each job's per-core solves fan out through the same runner
// (nested ForEach), so the memo shares subsets across modes, move
// evaluations, and repartitions. Results are bit-identical for any worker
// count, cache on or off.
func PartitionSweep(cfg PartitionSweepConfig) ([]PartitionCell, error) {
	c := cfg.Common.withDefaults()
	if len(cfg.Cores) == 0 {
		cfg.Cores = []int{1, 2, 4}
	}
	if cfg.N <= 0 {
		cfg.N = 8
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []partition.Mode{partition.FirstFitDecreasing, partition.WorstFit}
	}
	if cfg.Moves == 0 {
		cfg.Moves = 2
	}
	modes := len(cfg.Modes)

	type out struct {
		imp, energy float64
		moves       int
	}
	results, errs := sweep(c, len(cfg.Cores)*modes, func(ci, i int) (out, error) {
		cores := cfg.Cores[ci/modes]
		set, err := partitionCellSet(c, cfg, cores, i)
		if err != nil {
			return out{}, err
		}
		pcfg := partition.Config{Cores: cores, Mode: cfg.Modes[ci%modes], Moves: cfg.Moves}
		pcfg.Solver.Starts = c.Starts
		pcfg.Solver.StartWorkers = 1
		res, err := partition.Solve(context.Background(), c.Grid, set, pcfg)
		if err != nil {
			return out{}, err
		}
		wcsAvg := 0.0
		for j := range res.Cores {
			e, err := res.Cores[j].WCSAtAverage()
			if err != nil {
				return out{}, err
			}
			wcsAvg += e
		}
		imp := 0.0
		if wcsAvg > 0 {
			imp = 100 * (wcsAvg - res.Energy) / wcsAvg
		}
		return out{imp: imp, energy: res.Energy, moves: res.AcceptedMoves}, nil
	})

	cells := make([]PartitionCell, len(cfg.Cores)*modes)
	for ci := range cells {
		cells[ci].Cores, cells[ci].Mode = cfg.Cores[ci/modes], cfg.Modes[ci%modes].String()
	}
	for j, r := range results {
		cell := &cells[j/c.Sets]
		if errs[j] != nil {
			cell.Failures++
			continue
		}
		cell.Improvement.Add(r.imp)
		cell.Energy.Add(r.energy)
		cell.Moves.Add(float64(r.moves))
	}
	return cells, nil
}

// PartitionTable renders the sweep as an aligned text table.
func PartitionTable(cells []PartitionCell, caption string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", caption)
	fmt.Fprintf(&b, "%6s  %-9s  %18s  %14s  %10s  %8s\n",
		"cores", "mode", "improvement(%)", "energy", "moves", "failures")
	for _, c := range cells {
		fmt.Fprintf(&b, "%6d  %-9s  %11.2f ±%5.2f  %14.4g  %10.2f  %8d\n",
			c.Cores, c.Mode, c.Improvement.Mean(), c.Improvement.CI95(),
			c.Energy.Mean(), c.Moves.Mean(), c.Failures)
	}
	return b.String()
}

// PartitionCSV renders the sweep as CSV.
func PartitionCSV(cells []PartitionCell) string {
	var b strings.Builder
	b.WriteString("cores,mode,improvement_mean,improvement_ci95,energy_mean,moves_mean,sets,failures\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%d,%s,%.4f,%.4f,%.6g,%.2f,%d,%d\n",
			c.Cores, c.Mode, c.Improvement.Mean(), c.Improvement.CI95(),
			c.Energy.Mean(), c.Moves.Mean(), c.Improvement.N(), c.Failures)
	}
	return b.String()
}
