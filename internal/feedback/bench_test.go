package feedback

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// BenchmarkClosedLoop measures one full adaptive run over a mode-switching
// workload: scenario generation, chunked execution, observation folding,
// drift detection and the warm-started re-solves. CI runs this at
// -benchtime 1x so the closed-loop harness cannot rot.
func BenchmarkClosedLoop(b *testing.B) {
	rng := stats.NewRNG(1)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{N: 4, Ratio: 0.1, Utilization: 0.7}, 50,
		func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		b.Fatal(err)
	}
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: 3, SwitchEvery: 80})
	if err != nil {
		b.Fatal(err)
	}
	memo := grid.NewMemo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := NewController(context.Background(), set, Options{Runner: grid.New(0, memo)})
		if err != nil {
			b.Fatal(err)
		}
		lr, err := RunClosedLoop(context.Background(), ctrl, sc, 320, 10, sim.Config{Policy: sim.Greedy})
		if err != nil {
			b.Fatal(err)
		}
		if lr.Resolves == 0 {
			b.Fatal("no adaptation happened — the benchmark is not exercising the loop")
		}
	}
}
