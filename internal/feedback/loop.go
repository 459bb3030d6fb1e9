package feedback

import (
	"context"
	"fmt"

	"repro/internal/sim"
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

// RunReplay drives the full feedback cycle over an observation stream:
// rows is one per-instance actual-cycles row per hyper-period, in plan
// order — a generated scenario's Actuals, or a recording in the
// trace.Stream format captured by schedd's observe sink or adaptsim
// -record. For each chunk of the stream (chunk <= 0 selects 10
// hyper-periods) it executes the rows on the controller's current compiled
// plan, feeds the same rows back as observations, and swaps any re-solved
// plan in at the next chunk boundary (always a hyper-period boundary). The
// horizon is len(rows). The rows own the workload, so the stream never
// depends on which plan executed it, and the controller's fold, the drift
// detector and every re-solve are deterministic: the same stream
// reproduces the same energies, swap points and fingerprints bit-for-bit
// on any sim worker count and cache state — which is what lets a
// checked-in corpus pin adaptive-vs-static gains as regressions.
//
// simCfg's Policy, Overhead, Workers and Ctx apply to execution; Seed,
// Dist and Hyperperiods are ignored (the rows replace them). ctx bounds
// re-solves.
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
	if chunk <= 0 {
		chunk = 10
	}
	out := &LoopResult{Fingerprints: []string{ctrl.Fingerprint()}}
	for lo := 0; lo < horizon; lo += chunk {
		hi := min(lo+chunk, horizon)
		res, err := ctrl.Plan().RunActuals(simCfg, rows[lo:hi])
		if err != nil {
			return nil, err
		}
		out.Energy += res.Energy
		out.DeadlineMisses += res.DeadlineMisses
		d, err := ctrl.ObserveChunk(ctx, rows[lo:hi])
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
