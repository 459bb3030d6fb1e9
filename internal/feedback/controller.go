package feedback

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/task"
)

// Options configures a Controller.
type Options struct {
	// Runner supplies the solve path. All re-solves flow through it, so a
	// memoized runner makes revisited regimes (a mode switch returning to a
	// previously-learned workload) cache hits; the controller compiles each
	// solved schedule itself. nil constructs a private unmemoized runner —
	// semantically identical, never cached.
	Runner *grid.Runner
	// Solver is the base solver configuration. Objective and WarmStart are
	// managed by the controller: every solve is partition.Solve on one core
	// with the AverageCase objective (WCS, then ACS warm-started from it —
	// the serving layer's own pipeline, so the same bytes); every other
	// field passes through to each re-solve unchanged.
	Solver core.Config
	// Drift parameterises the Page–Hinkley detector.
	Drift DriftConfig
	// Relearn is the number of hyper-periods of fresh observation collected
	// after drift fires before the model is rebuilt and re-solved (default
	// 12): re-solving from the detection window alone would fit mostly
	// pre-drift data.
	Relearn int
}

// minCount is the minimum number of fresh observations a task needs for its
// estimated mean to replace its ACEC in a re-solve.
const minCount = 8

func (o Options) withDefaults() Options {
	if o.Runner == nil {
		o.Runner = grid.New(1, nil)
	}
	o.Drift = o.Drift.withDefaults()
	if o.Relearn <= 0 {
		o.Relearn = 12
	}
	return o
}

// State is the controller's adaptation phase.
type State int

const (
	// Tracking: the drift detector watches the observed-vs-predicted work
	// statistic under the current model.
	Tracking State = iota
	// Relearning: drift fired; fresh observations accumulate until the
	// relearn window fills and triggers a re-solve.
	Relearning
)

// String names the state.
func (s State) String() string {
	switch s {
	case Tracking:
		return "tracking"
	case Relearning:
		return "relearning"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Decision summarises what one observation batch caused.
type Decision struct {
	// Drift reports that the detector fired inside the batch.
	Drift bool
	// Resolved reports that a re-solve completed inside the batch: the
	// controller's Plan()/Schedule() now reflect the adapted model. The
	// caller of a closed loop swaps execution over at its next hyper-period
	// boundary.
	Resolved bool
	// ResolvedHyperperiod is the global observation index (hyper-periods
	// observed so far) at which the last re-solve of the batch completed —
	// the moment the adapted schedule became *available*. Execution swaps
	// at the caller's next hyper-period boundary, which an executing loop
	// reports separately (LoopResult.SwapHyperperiods). Meaningful when
	// Resolved.
	ResolvedHyperperiod int64
	// Fingerprint is the content address of the schedule the controller
	// currently holds (hex grid.ScheduleKey; empty if not encodable).
	Fingerprint string
	// State is the controller's phase after the batch.
	State State
}

// Controller is the closed-loop adaptation engine: feed it the per-instance
// execution observations of every hyper-period (in order) and it maintains
// the learned workload model, decides drift, and re-solves. It is not safe
// for concurrent use; callers (the session layer) serialise access.
type Controller struct {
	opts   Options
	base   *task.Set // stated model the controller started from
	model  *task.Set // model the current schedule was solved against
	taskOf []int     // instance index → task index, in plan order

	life    *SetEstimator // lifetime estimators, for reporting; never reset
	relearn *SetEstimator // fresh-window estimators; reset on every transition
	ph      *PageHinkley

	acs         *core.Schedule
	plan        *sim.CompiledPlan
	fingerprint string
	predSum     float64 // Σ model ACEC over instances: the statistic denominator
	predSigma   float64 // predicted per-hyper-period σ of the work ratio

	state       State
	relearnLeft int
	observed    int64
	resolves    int64
	driftsFired int64
	resolveAt   []int64 // observation indices at which re-solves completed
}

// NewController solves the stated model (WCS, then ACS warm-started from it)
// and returns a controller tracking it. ctx bounds the initial solve.
func NewController(ctx context.Context, set *task.Set, opts Options) (*Controller, error) {
	if set == nil || set.N() == 0 {
		return nil, fmt.Errorf("feedback: controller needs a non-empty task set")
	}
	o := opts.withDefaults()
	if err := o.Drift.validate(); err != nil {
		return nil, err
	}
	c := &Controller{opts: o, base: set, state: Tracking,
		life: NewSetEstimator(set), relearn: NewSetEstimator(set)}
	var err error
	if c.ph, err = NewPageHinkley(o.Drift); err != nil {
		return nil, err
	}
	if err := c.resolve(ctx, set); err != nil {
		return nil, err
	}
	c.resolves = 0 // the initial solve is not an adaptation
	c.resolveAt = nil
	c.taskOf = make([]int, len(c.acs.Plan.Instances))
	for i := range c.taskOf {
		c.taskOf[i] = c.acs.Plan.Instances[i].TaskIndex
	}
	return c, nil
}

// resolve solves model through the runner, compiles the plan, and installs
// both. The solve is partition.Solve on one core, the pipeline a
// /v1/schedules submit runs: WCS, then ACS warm-started from it.
// Adaptation moves only ACEC, so on a memoized runner every re-solve's WCS
// is the one the first solve built, retargeted to model (grid's worst-case
// key), and only the ACS is new. The fingerprint is that submit's. The
// whole step (solve and compile), the initial solve and a restore's
// included, is the feedback_resolve span of ctx's trace.
func (c *Controller) resolve(ctx context.Context, model *task.Set) error {
	defer obs.StartSpan(ctx, "feedback_resolve")()
	solver := c.opts.Solver
	solver.Objective = core.AverageCase
	solver.WarmStart = nil
	res, err := partition.Solve(ctx, c.opts.Runner, model, partition.Config{Cores: 1, Solver: solver})
	if err != nil {
		return fmt.Errorf("feedback: re-solve: %w", err)
	}
	acs := res.Cores[0].ACS
	plan, err := sim.Compile(acs)
	if err != nil {
		return fmt.Errorf("feedback: plan compile: %w", err)
	}
	c.model, c.acs, c.plan, c.fingerprint = model, acs, plan, res.Cores[0].Key
	// The drift statistic is the standardized total-work ratio: predSum is
	// Σ model ACEC over the hyper-period's instances, predSigma the σ of
	// the ratio the solved-against model predicts under the paper's
	// per-release noise assumption σᵢ = (WCEC−BCEC)/6 (§4). Standardizing
	// here is what lets DriftConfig's thresholds be span-free: the same
	// (Delta, Lambda) works for a ratio-0.1 set and a ratio-0.9 set.
	c.predSum = 0
	var varSum float64
	for _, idx := range c.acs.Plan.Instances {
		t := &model.Tasks[idx.TaskIndex]
		c.predSum += t.ACEC
		s := (t.WCEC - t.BCEC) / 6
		varSum += s * s
	}
	c.predSigma = math.Sqrt(varSum) / c.predSum
	if c.predSigma <= 0 {
		c.predSigma = 1 // degenerate BCEC=WCEC set: any deviation is drift-worthy
	}
	c.resolves++
	c.resolveAt = append(c.resolveAt, c.observed)
	return nil
}

// Plan returns the compiled plan of the current schedule (immutable; swap it
// into execution at a hyper-period boundary).
func (c *Controller) Plan() *sim.CompiledPlan { return c.plan }

// Schedule returns the current ACS schedule (treat as immutable).
func (c *Controller) Schedule() *core.Schedule { return c.acs }

// Model returns the task set the current schedule was solved against.
func (c *Controller) Model() *task.Set { return c.model }

// Base returns the stated task set the controller started from.
func (c *Controller) Base() *task.Set { return c.base }

// Fingerprint returns the current schedule's content address.
func (c *Controller) Fingerprint() string { return c.fingerprint }

// TaskOf returns the instance→task mapping of the plan order (shared slice;
// do not mutate). Its length is the per-hyper-period observation width.
func (c *Controller) TaskOf() []int { return c.taskOf }

// Observed returns the number of hyper-periods folded in so far.
func (c *Controller) Observed() int64 { return c.observed }

// Resolves returns the number of adaptation re-solves performed.
func (c *Controller) Resolves() int64 { return c.resolves }

// DriftsFired returns how many times the detector fired.
func (c *Controller) DriftsFired() int64 { return c.driftsFired }

// ResolveHyperperiods returns the observation indices at which adaptation
// re-solves completed (copy) — availability points, not execution swap
// points, which belong to whoever drives execution.
func (c *Controller) ResolveHyperperiods() []int64 {
	return append([]int64(nil), c.resolveAt...)
}

// State returns the controller's phase.
func (c *Controller) State() State { return c.state }

// Lifetime returns the never-reset per-task estimators (for reporting).
func (c *Controller) Lifetime() *SetEstimator { return c.life }

// ObserveChunk folds a chunk of consecutive hyper-periods (each row one
// hyper-period's per-instance actual cycles, plan order) and returns what
// happened. The fold is strictly sequential in hyper-period order — chunking
// is transparent: any split of the same observation stream produces the same
// estimator states, the same drift points, and the same re-solve points.
// ctx bounds any re-solves the chunk triggers.
//
// Malformed batches are rejected *before* anything is folded, so a 4xx-style
// error never leaves the controller's state partially advanced and a client
// may retry the corrected batch without double-counting. A re-solve failure
// (cancellation) can still surface mid-batch; the rows preceding it remain
// folded — resume from Observed(), do not replay the batch.
func (c *Controller) ObserveChunk(ctx context.Context, actuals [][]float64) (Decision, error) {
	d := Decision{Fingerprint: c.fingerprint, State: c.state}
	for i, row := range actuals {
		if len(row) != len(c.taskOf) {
			return d, fmt.Errorf("feedback: observation %d has %d instances, want %d", i, len(row), len(c.taskOf))
		}
	}
	for _, row := range actuals {
		if err := c.life.ObserveInstances(c.taskOf, row); err != nil {
			return d, err
		}
		var sum float64
		for _, x := range row {
			sum += x
		}
		z := (sum/c.predSum - 1) / c.predSigma
		c.observed++

		switch c.state {
		case Tracking:
			if c.ph.Add(z) {
				c.driftsFired++
				d.Drift = true
				c.state = Relearning
				c.relearn.Reset()
				c.relearnLeft = c.opts.Relearn
			}
		case Relearning:
			if err := c.relearn.ObserveInstances(c.taskOf, row); err != nil {
				return d, err
			}
			c.relearnLeft--
			if c.relearnLeft <= 0 {
				adapted, err := c.relearn.AdaptedSet(minCount)
				if err != nil {
					return d, fmt.Errorf("feedback: adapted model: %w", err)
				}
				if err := c.resolve(ctx, adapted); err != nil {
					return d, err
				}
				d.Resolved = true
				d.ResolvedHyperperiod = c.observed
				c.state = Tracking
				c.ph.Reset()
			}
		}
	}
	d.Fingerprint = c.fingerprint
	d.State = c.state
	return d, nil
}
