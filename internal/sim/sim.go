// Package sim is the online phase of the paper's system: a deterministic
// discrete-event simulation of the DVS runtime that executes a static
// schedule (internal/core) over many hyper-periods while actual task
// workloads vary stochastically, reclaiming slack from early completions to
// lower the supply voltage of subsequent sub-instances (§2.2, §4).
//
// The dispatcher follows the fully-preemptive total order of the static
// plan; preemption points are exactly the higher-priority release times, so
// the order coincides with preemptive RM in the worst case and the static
// end-times are a sound contract (see DESIGN.md §2).
//
// The runtime is a three-part engine (DESIGN.md §5): Compile flattens a
// schedule into a CompiledPlan of per-piece arrays with the Static/NoDVS
// voltages precomputed; a zero-alloc dispatcher with an inlined SimpleInverse
// fast path replays the plan over one hyper-period; and Config.Workers shards
// hyper-periods across goroutines with bit-identical results for any worker
// count.
package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// SlackPolicy selects how runtime slack is used.
type SlackPolicy int

const (
	// Greedy gives all slack from the just-finished piece to the next one
	// by recomputing its voltage from the actual start time and its static
	// end-time — the paper's runtime policy.
	Greedy SlackPolicy = iota
	// Static executes every piece at the voltage the static schedule
	// implies (worst-case budget over the full static window), idling on
	// early completion. It isolates the offline contribution (ablation E5).
	Static
	// NoDVS runs everything at Vmax, idling otherwise — the no-scaling
	// reference that normalises absolute energies.
	NoDVS
)

// String names the policy.
func (p SlackPolicy) String() string {
	switch p {
	case Greedy:
		return "greedy"
	case Static:
		return "static"
	case NoDVS:
		return "nodvs"
	default:
		return fmt.Sprintf("SlackPolicy(%d)", int(p))
	}
}

// Overhead models voltage-transition cost (ablation E7; the paper assumes
// both are negligible, §3). TimeMs is charged on every voltage change before
// execution resumes; EnergyPerSwitch is added to the energy account.
type Overhead struct {
	TimeMs          float64
	EnergyPerSwitch float64
	// Epsilon is the voltage-change deadband: changes smaller than this do
	// not count as switches. Zero means every change switches.
	Epsilon float64
}

// Config parameterises a simulation run.
type Config struct {
	// Policy is the slack policy (default Greedy).
	Policy SlackPolicy
	// Hyperperiods is the number of hyper-periods to simulate (paper: one
	// thousand). Default 100.
	Hyperperiods int
	// Seed seeds the workload draws; runs with equal seeds are identical.
	Seed uint64
	// Overhead, when non-zero, charges voltage-transition costs.
	Overhead Overhead
	// Dist overrides the per-instance actual-workload distribution; nil
	// selects the paper's truncated Normal (mean ACEC, σ = (WCEC−BCEC)/6,
	// support [BCEC, WCEC]).
	Dist Distribution
	// Workers shards hyper-periods across goroutines (<= 0 means serial).
	// Results are bit-identical for any worker count: every hyper-period
	// draws from its own RNG stream split from Seed in hyper-period order
	// before dispatch, and results are folded back in hyper-period order.
	Workers int
	// Ctx, when non-nil, cancels a long simulation early: workers stop at
	// the next hyper-period boundary once it is done and Run returns Ctx's
	// error instead of a Result. A run that completes is bit-identical to
	// one without a context.
	Ctx context.Context

	// reference forces the generic per-piece power.Model path for every
	// policy, bypassing the compiled precomputations and the SimpleInverse
	// fast path. Test-only: it is the oracle the compiled dispatcher is
	// cross-checked against for bit-identity.
	reference bool
}

// Distribution draws an actual execution cycle count for one release of a
// task described by (bcec, acec, wcec).
type Distribution func(rng *stats.RNG, bcec, acec, wcec float64) float64

// PaperDist is the §4 distribution: Normal with mean ACEC and standard
// deviation (WCEC−BCEC)/6, truncated to [BCEC, WCEC].
func PaperDist(rng *stats.RNG, bcec, acec, wcec float64) float64 {
	return rng.TruncNormal(acec, (wcec-bcec)/6, bcec, wcec)
}

// UniformDist draws uniformly over [BCEC, WCEC] (ablation).
func UniformDist(rng *stats.RNG, bcec, acec, wcec float64) float64 {
	return rng.Uniform(bcec, wcec)
}

// AlwaysWCECDist pins every release at its worst case (adversarial check).
func AlwaysWCECDist(_ *stats.RNG, _, _, wcec float64) float64 { return wcec }

// AlwaysACECDist pins every release at its average case.
func AlwaysACECDist(_ *stats.RNG, _, acec, _ float64) float64 { return acec }

// BimodalDist models tasks that normally run short but occasionally need
// their worst case — the scenario the paper's abstract highlights. 10% of
// releases cluster near WCEC, the rest near BCEC.
func BimodalDist(rng *stats.RNG, bcec, _, wcec float64) float64 {
	sigma := (wcec - bcec) / 12
	return rng.Bimodal(bcec+sigma, wcec-sigma, sigma, 0.1, bcec, wcec)
}

// Result aggregates a simulation.
type Result struct {
	// Energy is the total energy over all simulated hyper-periods.
	Energy float64
	// PerHyperperiod summarises energy per hyper-period.
	PerHyperperiod stats.Summary
	// DeadlineMisses counts sub-instances that completed after their
	// absolute deadline (must be zero for valid schedules).
	DeadlineMisses int
	// WorstOvershoot is the largest deadline overshoot observed (ms).
	WorstOvershoot float64
	// BusyTime is total executing time (ms) across the run.
	BusyTime float64
	// Switches counts voltage transitions (with Overhead.Epsilon deadband).
	Switches int
	// MeanVoltage is the execution-time-weighted mean supply voltage.
	MeanVoltage float64
}

// Run simulates schedule s under cfg and returns aggregate statistics. It
// compiles s on every call; callers simulating the same schedule repeatedly
// (seed sweeps, policy ablations) should Compile once and use
// CompiledPlan.Run.
func Run(s *core.Schedule, cfg Config) (*Result, error) {
	p, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg)
}

// hyperResult is the aggregate of one simulated hyper-period.
type hyperResult struct {
	energy    float64
	misses    int
	worstOver float64
	busy      float64
	switches  int
	voltTime  float64 // ∫ V dt over busy time
}

// Compare runs two schedules under identical workload draws (same seed and
// distribution) and returns the percentage energy improvement of a over b:
// 100·(E_b − E_a)/E_b. This is the quantity Fig. 6 plots with a = ACS and
// b = WCS. The two schedules are simulated concurrently; see ComparePlans to
// amortise compilation across repeated comparisons.
func Compare(a, b *core.Schedule, cfg Config) (improvementPct float64, ra, rb *Result, err error) {
	pa, err := Compile(a)
	if err != nil {
		return 0, nil, nil, err
	}
	pb, err := Compile(b)
	if err != nil {
		return 0, nil, nil, err
	}
	return ComparePlans(pa, pb, cfg)
}
