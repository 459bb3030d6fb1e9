package feedback

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// LoopResult aggregates a closed-loop run. Fields are summed in chunk order
// (and within a chunk in hyper-period order), so the whole struct is
// bit-identical for any sim worker count and any cache state.
type LoopResult struct {
	// Energy is the total simulated energy over the horizon.
	Energy float64
	// DeadlineMisses counts pieces finishing past their deadline (0 for
	// valid schedules — adaptation never touches WCEC, so worst-case
	// feasibility is preserved by construction).
	DeadlineMisses int
	// Switches counts voltage transitions (within chunks; the transition
	// across a chunk boundary is uncounted exactly as the one across any
	// hyper-period boundary is).
	Switches int
	// BusyTime is total executing time in ms.
	BusyTime float64
	// Resolves is the number of adaptation re-solves the run triggered.
	Resolves int64
	// Drifts is the number of detector firings.
	Drifts int64
	// SwapHyperperiods are the hyper-period indices at which adapted plans
	// actually entered execution: always the chunk boundary following the
	// re-solve (the controller's ResolveHyperperiods are the earlier
	// availability points).
	SwapHyperperiods []int64
	// Fingerprints are the content addresses of every schedule that
	// executed, in order (the initial one first).
	Fingerprints []string
}

// RunClosedLoop drives the full feedback cycle over a nonstationary
// scenario: execute a chunk of hyper-periods on the controller's current
// compiled plan, feed the chunk's per-job observations back, and swap any
// re-solved plan in at the next chunk boundary (always a hyper-period
// boundary). The scenario owns the workload stream — it is a pure function
// of (seed, hyper-period), so the stream never depends on which plan
// executed it — and every stage (generation, execution fan-in, observation
// fold, drift decisions, re-solve points) is deterministic, making the
// returned LoopResult byte-identical across sim worker counts and cache
// states for a fixed configuration.
//
// simCfg's Policy, Overhead, Workers and Ctx apply to execution; Seed, Dist
// and Hyperperiods are ignored (the scenario replaces them). ctx bounds
// re-solves.
func RunClosedLoop(ctx context.Context, ctrl *Controller, sc *workload.Scenario, horizon, chunk int, simCfg sim.Config) (*LoopResult, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("feedback: horizon must be positive, got %d", horizon)
	}
	taskOf := ctrl.TaskOf()
	var rows [][]float64
	return driveLoop(ctx, ctrl, horizon, chunk, simCfg, func(lo, hi int) ([][]float64, error) {
		rows = rows[:0]
		for h := lo; h < hi; h++ {
			row := make([]float64, len(taskOf))
			if err := sc.FillActuals(h, taskOf, row); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// driveLoop is the cycle RunClosedLoop and RunReplay share. For each chunk
// [lo, hi) of the horizon (chunk <= 0 selects 10 hyper-periods) it executes
// rowsOf(lo, hi) on the controller's current plan, feeds the same rows back
// as observations, and records any re-solved plan that enters execution at
// hi.
func driveLoop(ctx context.Context, ctrl *Controller, horizon, chunk int, simCfg sim.Config, rowsOf func(lo, hi int) ([][]float64, error)) (*LoopResult, error) {
	if chunk <= 0 {
		chunk = 10
	}
	out := &LoopResult{Fingerprints: []string{ctrl.Fingerprint()}}
	for lo := 0; lo < horizon; lo += chunk {
		hi := min(lo+chunk, horizon)
		rows, err := rowsOf(lo, hi)
		if err != nil {
			return nil, err
		}
		res, err := ctrl.Plan().RunActuals(simCfg, rows)
		if err != nil {
			return nil, err
		}
		out.Energy += res.Energy
		out.DeadlineMisses += res.DeadlineMisses
		out.Switches += res.Switches
		out.BusyTime += res.BusyTime
		d, err := ctrl.ObserveChunk(ctx, rows)
		if err != nil {
			return nil, err
		}
		// A re-solve completing in the final chunk produces a plan that
		// never enters execution inside this horizon: Fingerprints lists
		// schedules that *executed*, so it is not recorded (the controller
		// still holds it, and Resolves still counts the solve).
		if d.Resolved && hi < horizon {
			out.Fingerprints = append(out.Fingerprints, d.Fingerprint)
			out.SwapHyperperiods = append(out.SwapHyperperiods, int64(hi))
		}
	}
	out.Resolves = ctrl.Resolves()
	out.Drifts = ctrl.DriftsFired()
	return out, nil
}
