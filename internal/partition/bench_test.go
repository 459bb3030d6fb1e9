package partition

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/task"
)

func benchSet(b *testing.B, cores int) *task.Set {
	b.Helper()
	return genSet(b, 9, 8, cores)
}

// BenchmarkPartitionSolve measures the full partitioned pipeline — FFD
// admission, parallel per-core WCS+ACS through the grid runner, two
// improvement rounds — with a fresh memo per iteration, so the measured
// sharing is intra-solve (move evaluations re-hitting per-core solves).
func BenchmarkPartitionSolve(b *testing.B) {
	set := benchSet(b, 4)
	cfg := Config{Cores: 4, Moves: 2, Solver: solverCfg()}
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), grid.New(0, grid.NewMemo()), set, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionSolveNoCache is the same pipeline with memoization
// disabled — the denominator of the memo-sharing speed-up.
func BenchmarkPartitionSolveNoCache(b *testing.B) {
	set := benchSet(b, 4)
	cfg := Config{Cores: 4, Moves: 2, Solver: solverCfg()}
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), grid.New(0, nil), set, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionRepartition measures the memo-reuse contract end to
// end: each iteration re-solves an assignment that differs from the warmed
// one on exactly one core, so only that core's WCS+ACS run — the cost a
// running service pays when one core's membership changes.
func BenchmarkPartitionRepartition(b *testing.B) {
	set := benchSet(b, 4)
	cfg := Config{Cores: 4, Solver: solverCfg()}
	r := grid.New(0, grid.NewMemo())
	res, err := Solve(context.Background(), r, set, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Move one task between the two least-loaded cores to build the
	// "changed" assignment; fall back to the warmed one if infeasible.
	alt := res.Assignment.Clone()
	moved := false
	for from := range alt {
		if moved || len(alt[from]) < 2 {
			continue
		}
		for to := range alt {
			if to == from || moved {
				continue
			}
			cand := alt.Clone()
			t := cand[from][len(cand[from])-1]
			cand[from] = without(cand[from], t)
			cand[to] = with(cand[to], t)
			if _, err := SolveAssignment(context.Background(), r, set, cand, cfg); err == nil {
				alt = cand
				moved = true
			}
		}
	}
	assignments := []Assignment{res.Assignment, alt}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveAssignment(context.Background(), r, set, assignments[i%2], cfg); err != nil {
			b.Fatal(err)
		}
	}
}
