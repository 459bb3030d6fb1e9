package feedback

import (
	"context"
	"fmt"

	"repro/internal/sim"
)

// RunReplay drives the identical closed-loop cycle as RunClosedLoop, but
// over a recorded observation stream instead of a live scenario: rows is
// one per-instance actual-cycles row per hyper-period, in plan order (the
// trace.Stream format captured by schedd's observe sink or adaptsim
// -record). The horizon is len(rows). Because the controller's fold, the
// drift detector, and every re-solve are deterministic, replaying the
// same stream reproduces the same energies, swap points, and
// fingerprints bit-for-bit on any sim worker count and cache state —
// which is what lets a checked-in corpus pin adaptive-vs-static gains as
// regressions.
//
// simCfg's Policy, Overhead, Workers and Ctx apply to execution; Seed,
// Dist and Hyperperiods are ignored (the recorded rows replace them).
// ctx bounds re-solves.
func RunReplay(ctx context.Context, ctrl *Controller, rows [][]float64, chunk int, simCfg sim.Config) (*LoopResult, error) {
	horizon := len(rows)
	if horizon == 0 {
		return nil, fmt.Errorf("feedback: replay needs a non-empty observation stream")
	}
	width := len(ctrl.TaskOf())
	for i, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("feedback: replay row %d has %d instances, want %d", i, len(row), width)
		}
	}
	return driveLoop(ctx, ctrl, horizon, chunk, simCfg, func(lo, hi int) ([][]float64, error) {
		return rows[lo:hi], nil
	})
}
