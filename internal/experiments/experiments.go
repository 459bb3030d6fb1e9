// Package experiments reproduces every table and figure of the paper's
// evaluation (§4, Fig. 6) plus the ablation studies DESIGN.md calls out.
// Each experiment is a pure function of its config (including the seed), so
// results are reproducible bit-for-bit.
//
// Every harness runs on the grid engine (internal/grid, DESIGN.md §6): its
// (cell, task-set) coordinates are flattened into index-addressed jobs
// drained by one bounded worker pool, results are folded in index order, and
// the WCS→ACS solve pipeline is routed through the grid's content-addressed
// memo. Harnesses that sweep random sets at the same (N, ratio) cell derive
// *identical* task sets (randomCellSet), so the slack, overhead, level and
// weighted ablations share the Fig. 6(a) cell's solves instead of repeating
// them. Output is bit-identical for any worker count and with the cache on
// or off (TestGridDeterminism pins this).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// Common holds knobs shared by the sweep experiments. Every harness draws
// its sets at the paper's worst-case utilisation (utilization, 0.7) and
// solves and simulates them on power.DefaultModel().
type Common struct {
	// Sets is the number of random task sets per configuration cell
	// (paper: 100; default 20 to keep a full regeneration under a few
	// minutes — pass -sets 100 to cmd/experiments for the paper's count).
	Sets int
	// Reps is the number of simulated hyper-periods per task set
	// (paper: 1000; default 200).
	Reps int
	// Seed is the experiment master seed.
	Seed uint64
	// Starts is the solver multi-start count per schedule build (0 or 1 =
	// single start). Starts run sequentially inside each task-set worker —
	// the sweep is already saturated by per-set parallelism — and results
	// stay bit-reproducible for a fixed seed regardless of the pool width.
	Starts int
	// Grid, when set, supplies the shared execution engine: the worker
	// pool every harness drains its jobs through and the content-addressed
	// memo that shares WCS/ACS solves across harnesses. nil gives the
	// harness a private runner (GOMAXPROCS wide, caching enabled) — correct
	// but without cross-harness sharing; cmd/experiments passes one runner
	// to every experiment of a regeneration.
	Grid *grid.Runner
}

// utilization is the worst-case utilisation target of every generated set
// (the paper's 0.7).
const utilization = 0.7

func (c *Common) withDefaults() Common {
	out := *c
	if out.Sets <= 0 {
		out.Sets = 20
	}
	if out.Reps <= 0 {
		out.Reps = 200
	}
	if out.Grid == nil {
		out.Grid = grid.New(0, grid.NewMemo())
	}
	return out
}

// greedy is the simulation every comparison runs: c.Reps hyper-periods
// under the paper's greedy slack reclamation, drawn from seed.
func (c Common) greedy(seed uint64) sim.Config {
	return sim.Config{Policy: sim.Greedy, Hyperperiods: c.Reps, Seed: seed}
}

// Cell is one aggregated point of a sweep: the distribution of ACS-over-WCS
// improvement percentages across task sets.
type Cell struct {
	N           int
	Ratio       float64
	Improvement stats.Summary
	// MeanSubs is the mean sub-instance count across task sets (reported
	// against the paper's ≈1000 bound).
	MeanSubs float64
	// Failures counts task sets that could not be generated or solved.
	Failures int
}

// sweep is the one job loop of every harness that sweeps random sets: it
// runs fn on each (cell, set) coordinate — cells × c.Sets jobs drained
// through the grid pool, so a slow cell's tail overlaps the next cell's work
// — and returns each job's result and error at index cell*c.Sets+set.
// Harnesses fold them in that order, so their output is bit-identical for
// any pool width. Fig. 6(a) and E11 count a cell's failed sets; the
// ablations return the lowest-indexed error.
func sweep[T any](c Common, cells int, fn func(cell, set int) (T, error)) ([]T, []error) {
	errs := make([]error, cells*c.Sets)
	res := grid.Collect(c.Grid, len(errs), func(j int) (r T) {
		r, errs[j] = fn(j/c.Sets, j%c.Sets)
		return r
	})
	return res, errs
}

// cellMaster derives the master seed of an (n, ratio) sweep cell.
func cellMaster(seed uint64, n int, ratio float64) uint64 {
	return seed ^ stats.SeedFromCell(n, ratio)
}

// setSeed derives the i-th per-set seed under a cell master seed.
func setSeed(master uint64, i int) uint64 {
	return stats.NewRNG(master + uint64(i)*0x9e3779b97f4a7c15).Uint64()
}

// randomCellSet draws the i-th random task set of an (n, ratio) cell,
// returning the set together with the RNG mid-stream (harnesses draw their
// simulation seeds from it, after the generator's consumption). Every
// harness that sweeps random sets at a cell goes through this one
// derivation, so equal (Seed, n, ratio, i) coordinates yield identical sets
// everywhere and the grid memo shares their solves across harnesses.
func randomCellSet(c Common, n int, ratio float64, i int) (*task.Set, *stats.RNG, error) {
	rng := stats.NewRNG(setSeed(cellMaster(c.Seed, n, ratio), i))
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: n, Ratio: ratio, Utilization: utilization,
	}, 50, feasible)
	if err != nil {
		return nil, nil, err
	}
	return set, rng, nil
}

// pair is one task set's solved and compiled ACS and WCS schedules. The
// schedules may be shared through the memo: treat them as immutable.
type pair struct {
	acs, wcs         *core.Schedule
	acsPlan, wcsPlan *sim.CompiledPlan
}

// solvePair is the one solve step of every comparison harness: the WCS
// baseline, then ACS warm-started from it, as a one-core partition.Solve
// through the grid runner, both compiled for the simulator. Warm-starting
// ACS from the WCS solution guarantees ACS can never converge to a point
// worse (on its own objective) than the baseline it is compared against.
// Identical (set, config) pipelines across harnesses resolve to one solve
// via the memo, and sets that differ only in ACEC and BCEC share one WCS.
func solvePair(c Common, set *task.Set, pre core.Config) (p pair, err error) {
	solver := pre
	solver.Objective = core.AverageCase
	solver.Starts = c.Starts
	solver.StartWorkers = 1 // the grid pool already saturates the host
	res, err := partition.Solve(context.Background(), c.Grid, set, partition.Config{Cores: 1, Solver: solver})
	if err != nil {
		return pair{}, err
	}
	p.acs, p.wcs = res.Cores[0].ACS, res.Cores[0].WCS
	if p.acsPlan, err = sim.Compile(p.acs); err != nil {
		return pair{}, err
	}
	if p.wcsPlan, err = sim.Compile(p.wcs); err != nil {
		return pair{}, err
	}
	return p, nil
}

// cellPair draws the i-th random set of an (n, ratio) cell, solves its pair
// under the default solver config and draws the set's simulation seed: the
// job of Fig. 6(a) and of the E5, E7 and E8 ablations, which therefore share
// every solve at a common cell.
func cellPair(c Common, n int, ratio float64, i int) (pair, uint64, error) {
	set, rng, err := randomCellSet(c, n, ratio, i)
	if err != nil {
		return pair{}, 0, err
	}
	p, err := solvePair(c, set, core.Config{})
	return p, rng.Uint64(), err
}

// Table renders cells as an aligned text table, one row per N, one column
// per ratio — the transpose of Fig. 6(a)'s series layout.
func Table(cells []Cell, caption string) string {
	ns := map[int]bool{}
	rs := map[float64]bool{}
	type coord struct {
		n int
		r float64
	}
	at := make(map[coord]*Cell, len(cells))
	for i := range cells {
		ns[cells[i].N] = true
		rs[cells[i].Ratio] = true
		at[coord{cells[i].N, cells[i].Ratio}] = &cells[i]
	}
	var nList []int
	for n := range ns {
		nList = append(nList, n)
	}
	sort.Ints(nList)
	var rList []float64
	for r := range rs {
		rList = append(rList, r)
	}
	sort.Float64s(rList)

	var b strings.Builder
	b.WriteString(caption + "\n")
	b.WriteString(fmt.Sprintf("%-8s", "N\\ratio"))
	for _, r := range rList {
		b.WriteString(fmt.Sprintf("%16.2f", r))
	}
	b.WriteString("\n")
	for _, n := range nList {
		b.WriteString(fmt.Sprintf("%-8d", n))
		for _, r := range rList {
			c := at[coord{n, r}]
			if c == nil || c.Improvement.N() == 0 {
				b.WriteString(fmt.Sprintf("%16s", "-"))
				continue
			}
			b.WriteString(fmt.Sprintf("%9.1f%% ±%4.1f", c.Improvement.Mean(), c.Improvement.CI95()))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders cells as CSV rows for plotting.
func CSV(cells []Cell) string {
	var b strings.Builder
	b.WriteString("n,ratio,sets,improvement_mean_pct,improvement_ci95,improvement_min,improvement_max,mean_subs,failures\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%d,%g,%d,%.3f,%.3f,%.3f,%.3f,%.1f,%d\n",
			c.N, c.Ratio, c.Improvement.N(), c.Improvement.Mean(), c.Improvement.CI95(),
			c.Improvement.Min(), c.Improvement.Max(), c.MeanSubs, c.Failures)
	}
	return b.String()
}

// feasible adapts core.Feasible for workload.RandomFeasible.
func feasible(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil }
