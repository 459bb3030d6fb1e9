package repro

// Benchmark harness: one testing.B benchmark per table/figure of the paper
// plus the ablations (DESIGN.md §4 index). Each benchmark regenerates its
// artefact at a reduced statistical budget and logs the resulting numbers,
// so `go test -bench=. -benchmem` both measures the cost of regeneration
// and records the reproduced values. cmd/experiments runs the same
// harnesses at full budget.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func benchCommon(b *testing.B) experiments.Common {
	b.Helper()
	return experiments.Common{Sets: 4, Reps: 50, Seed: 2005}
}

// benchSuite regenerates the (N=6, ratio 0.1) corner of the evaluation —
// the Fig. 6(a) cell plus the slack, overhead and level ablations — through
// one shared grid runner. The four harnesses derive identical task sets, so
// with a memo the WCS/ACS solves run once instead of four times; without one
// this is the pre-grid cost model (every harness re-solves from scratch).
func benchSuite(b *testing.B, memo *grid.Memo) {
	b.Helper()
	common := benchCommon(b)
	common.Grid = grid.New(0, memo)
	if _, err := experiments.Fig6a(experiments.Fig6aConfig{
		Common: common, TaskCounts: []int{6}, Ratios: []float64{0.1},
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.SlackPolicyAblation(common, 6, 0.1); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.TransitionOverheadAblation(common, 6, 0.1, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.DiscreteLevelAblation(common, 6, 0.1, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExperimentSuite measures the memoized experiment suite: each
// iteration gets a fresh memo, so the speedup over ...NoCache is pure
// *intra-suite* sharing, not warm-cache accounting.
func BenchmarkExperimentSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSuite(b, grid.NewMemo())
	}
}

// BenchmarkExperimentSuiteNoCache is the same suite with memoization
// disabled — the denominator of the memo's speed-up on the suite.
func BenchmarkExperimentSuiteNoCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSuite(b, nil)
	}
}

// BenchmarkMotivation regenerates Table 1 / Figs. 1–2 (experiment E1).
func BenchmarkMotivation(b *testing.B) {
	var last *experiments.MotivationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Motivation()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.Logf("improvement %.1f%% (paper 24%%), WC increase %.1f%% (paper 33%%)",
		last.ImprovementPct, last.WorstIncreasePct)
}

// BenchmarkFig6a regenerates Fig. 6(a) (experiment E2) at bench budget.
func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig6a(experiments.Fig6aConfig{
			Common:     benchCommon(b),
			TaskCounts: []int{2, 6, 10},
			Ratios:     []float64{0.1, 0.5, 0.9},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.Table(cells, "Fig 6(a), bench budget"))
		}
	}
}

// BenchmarkFig6bCNC regenerates the CNC series of Fig. 6(b) (E3).
func BenchmarkFig6bCNC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig6b(experiments.Fig6bConfig{
			Common: benchCommon(b),
			Apps:   []string{"CNC"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.AppTable(cells))
		}
	}
}

// BenchmarkFig6bGAP regenerates the GAP series of Fig. 6(b) (E4).
func BenchmarkFig6bGAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig6b(experiments.Fig6bConfig{
			Common: experiments.Common{Sets: 2, Reps: 20, Seed: 2005},
			Apps:   []string{"GAP"},
			Ratios: []float64{0.1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.AppTable(cells))
		}
	}
}

// BenchmarkAblationSlackPolicy regenerates E5.
func BenchmarkAblationSlackPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.SlackPolicyAblation(benchCommon(b), 4, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.SlackTable(cells))
		}
	}
}

// BenchmarkAblationSubInstanceCap regenerates E6 (GAP, reduced cap list).
func BenchmarkAblationSubInstanceCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.SubInstanceCapAblation(
			experiments.Common{Sets: 1, Reps: 20, Seed: 2005}, 0.1, []int{4, 12})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.CapTable(cells))
		}
	}
}

// BenchmarkAblationTransitionOverhead regenerates E7.
func BenchmarkAblationTransitionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.TransitionOverheadAblation(benchCommon(b), 4, 0.1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.OverheadTable(cells))
		}
	}
}

// BenchmarkAblationDiscreteLevels regenerates E8.
func BenchmarkAblationDiscreteLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.DiscreteLevelAblation(benchCommon(b), 4, 0.1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.LevelTable(cells))
		}
	}
}

// BenchmarkAblationWeightedObjective regenerates E10.
func BenchmarkAblationWeightedObjective(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.WeightedObjectiveAblation(
			experiments.Common{Sets: 2, Reps: 30, Seed: 2005}, 4, 0.1, []int{0, 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.WeightedTable(cells))
		}
	}
}

// BenchmarkSolverCrossCheck regenerates E9.
func BenchmarkSolverCrossCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SolverCrossCheck(benchCommon(b), 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", r.Render())
		}
	}
}

// --- Micro-benchmarks of the hot paths -------------------------------------

// BenchmarkSolveACSN6 measures one production ACS solve (N=6, ratio 0.1).
func BenchmarkSolveACSN6(b *testing.B) {
	rng := stats.NewRNG(1)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: 6, Ratio: 0.1, Utilization: 0.7,
	}, 50, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(set, core.Config{Objective: core.AverageCase}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHyperperiods measures the runtime simulator throughput.
func BenchmarkSimulateHyperperiods(b *testing.B) {
	rng := stats.NewRNG(2)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: 6, Ratio: 0.1, Utilization: 0.7,
	}, 50, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Build(set, core.Config{Objective: core.AverageCase})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(s, sim.Config{Hyperperiods: 100, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimGreedy measures the compiled online engine end to end: compile
// once, then simulate a large hyper-period batch at Workers = NumCPU. The
// allocs/op figure is the whole-run constant (seed table, result table, one
// workspace per worker); it does not grow with Hyperperiods because the
// per-hyper-period loop allocates nothing.
func BenchmarkSimGreedy(b *testing.B) {
	rng := stats.NewRNG(2)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: 6, Ratio: 0.1, Utilization: 0.7,
	}, 50, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Build(set, core.Config{Objective: core.AverageCase})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sim.Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(sim.Config{Hyperperiods: 2000, Seed: uint64(i), Workers: runtime.NumCPU()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreemptExpansion measures the fully-preemptive plan construction
// on the largest built-in set (GAP).
func BenchmarkPreemptExpansion(b *testing.B) {
	set, err := workload.GAP(0.1, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Feasible(set, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
