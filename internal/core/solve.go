package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/task"
	"repro/internal/yds"
)

// Config tunes the static-schedule solver.
type Config struct {
	// Model is the processor model; nil selects power.DefaultModel().
	Model power.Model
	// Objective selects ACS (AverageCase) or WCS (WorstCase).
	Objective Objective
	// MaxSweeps bounds coordinate-descent sweeps (default 100). A descent
	// also stops once a sweep improves the objective by no more than 1e-6
	// relative.
	MaxSweeps int
	// Preempt tunes the fully-preemptive expansion (the sub-instance cap).
	Preempt preempt.Options
	// WarmStart, when non-nil, supplies a second starting point: the
	// solver also runs from that schedule's (End, WCWork) and keeps the
	// better result. Passing the solved WCS schedule when building ACS
	// guarantees ACS never lands in a local optimum worse than the WCS
	// solution (which is always feasible for the ACS program).
	WarmStart *Schedule
	// Scenarios, when positive and the objective is AverageCase, switches
	// the objective from the single ACEC trajectory to the mean energy over
	// this many stratified workload draws — the probability-weighted
	// objective the paper's §3.2 sketches. Solve cost scales linearly with
	// the count; 5–10 captures most of the distribution.
	Scenarios int
	// ScenarioSeed seeds the scenario draws (common random numbers across
	// all solver iterations, so the objective is a fixed function).
	ScenarioSeed uint64
	// Starts, when greater than 1, runs that many independent solver starts
	// and keeps the best result: start 0 uses the default blend of 0.7 (and
	// WarmStart, when set); every further start draws its blend from a
	// deterministic RNG stream derived from StartSeed. Results are
	// bit-identical for a given (Starts, StartSeed) regardless of
	// StartWorkers.
	Starts int
	// StartWorkers bounds the worker pool the multi-start driver fans starts
	// across (default min(Starts, GOMAXPROCS)). It affects wall-clock time
	// only, never the result.
	StartWorkers int
	// StartSeed seeds the per-start blend jitter streams (default 2005).
	StartSeed uint64

	// initBlend places the initial end-times between the earliest feasible
	// (0) and latest feasible (1) positions; default 0.7. Only
	// solveMultiStart sets it, for its starts after the first.
	initBlend float64
	// tol is the relative objective-improvement threshold below which a
	// sweep ends the descent; default 1e-6, the value every solve runs. Only
	// in-package tests lower it.
	tol float64
	// ctx, when non-nil, lets a long solve abort early: the sweep loop
	// checks it between coordinate-descent sweeps and returns ctx's error.
	// It is set only through BuildContext (callers cannot reach it), scopes
	// the work rather than the result, and is therefore excluded from the
	// grid cache key by construction.
	ctx context.Context
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Model == nil {
		out.Model = power.DefaultModel()
	}
	if out.MaxSweeps <= 0 {
		out.MaxSweeps = 100
	}
	if out.tol <= 0 {
		out.tol = 1e-6
	}
	if out.initBlend == 0 {
		out.initBlend = 0.7
	}
	if out.StartSeed == 0 {
		out.StartSeed = 2005
	}
	return out
}

// Canonical returns the config with every defaulted field resolved to the
// value the solver actually uses (Model, MaxSweeps and StartSeed).
// Two configs with equal Canonical forms solve identically; the grid memo
// hashes the canonical form so a zero config and an explicitly-defaulted one
// share a cache key.
func (c Config) Canonical() Config { return c.withDefaults() }

// InfeasibleError reports a task set that admits no schedule: its
// fully-preemptive expansion failed, or the all-Vmax ASAP chain misses a
// deadline under every worst-case split the solver starts from. Feasible
// reports exactly these failures, and a build over such a set returns the
// same one before any optimisation sweep runs, so a caller may let the build
// be its admission check. Error is the cause's text, unchanged.
type InfeasibleError struct{ Err error }

func (e *InfeasibleError) Error() string { return e.Err.Error() }
func (e *InfeasibleError) Unwrap() error { return e.Err }

// Build expands set into its fully-preemptive schedule and solves the static
// voltage schedule for cfg's objective. It fails with an *InfeasibleError if
// the task set cannot meet its deadlines even at the maximum voltage (the
// feasibility precondition of the whole approach).
func Build(set *task.Set, cfg Config) (*Schedule, error) {
	plan, err := preempt.BuildWith(set, cfg.Preempt)
	if err != nil {
		return nil, &InfeasibleError{Err: err}
	}
	return Solve(plan, cfg)
}

// BuildContext is Build with early cancellation: once ctx is done the solver
// stops at the next sweep boundary (every start of a multi-start solve checks
// independently) and returns ctx's error instead of a schedule. ctx never
// influences the result of a completed solve — a build that finishes is
// bit-identical to one run without a context.
func BuildContext(ctx context.Context, set *task.Set, cfg Config) (*Schedule, error) {
	cfg.ctx = ctx
	return Build(set, cfg)
}

// Solve computes the static schedule over an existing fully-preemptive plan.
// A WorstCase build whose optimum the YDS seed certifies returns it
// (solveSeeded); every other build runs coordinate descent from the usual
// start, and with Config.Starts > 1 dispatches to the parallel multi-start
// driver.
func Solve(plan *preempt.Schedule, cfg Config) (*Schedule, error) {
	c := cfg.withDefaults()
	if len(plan.Subs) == 0 {
		return nil, fmt.Errorf("core: plan has no sub-instances")
	}
	if s, err := solveSeeded(plan, c); s != nil || err != nil {
		return s, err
	}
	if c.Starts > 1 {
		return solveMultiStart(plan, c)
	}
	s, _, err := solveSingle(plan, c)
	return s, err
}

// newSchedule returns an unsolved schedule over plan for c's objective and
// model, its vectors zeroed.
func newSchedule(plan *preempt.Schedule, c Config) *Schedule {
	n := len(plan.Subs)
	s := &Schedule{
		Plan:      plan,
		Model:     c.Model,
		End:       make([]float64, n),
		WCWork:    make([]float64, n),
		AvgWork:   make([]float64, n),
		Objective: c.Objective,
	}
	s.initFastModel()
	return s
}

// solveSeeded returns the worst-case-optimal schedule when it can prove it
// found one, and nil otherwise. It applies to a WorstCase build without a
// warm start, on the SimpleInverse model and with one Ceff for every task.
// There a piece costs Ceff·max(Vmin, K·s)² per cycle at speed s, a convex
// function, so no feasible schedule beats the YDS energy of the plan's
// instances. The seed replays the plan's priority order with every instance
// at its YDS speed (ydsSeed); when that replay is valid and the descent from
// it ends within 1e-12 relative of the YDS energy, the result is the optimum.
// Anything else returns nil, and the caller runs the usual solve, unchanged.
// The error is ctx's, from a solve cancelled during the descent.
func solveSeeded(plan *preempt.Schedule, c Config) (*Schedule, error) {
	if c.Objective != WorstCase || c.WarmStart != nil {
		return nil, nil
	}
	if _, ok := c.Model.(*power.SimpleInverse); !ok {
		return nil, nil
	}
	jobs := make([]yds.Job, len(plan.Instances))
	for idx, in := range plan.Instances {
		t := &plan.Set.Tasks[in.TaskIndex]
		if t.Ceff != plan.Set.Tasks[0].Ceff {
			return nil, nil
		}
		jobs[idx] = yds.Job{Release: in.Release, Deadline: in.Deadline, Work: t.WCEC, Ceff: t.Ceff}
	}
	ys, err := yds.Build(jobs)
	if err != nil {
		return nil, nil
	}
	bound, err := ys.Energy(c.Model)
	if err != nil {
		return nil, nil // a speed above Vmax: the usual start reports the set infeasible
	}
	speed := make([]float64, len(jobs))
	for _, iv := range ys.Intervals {
		for _, idx := range iv.Index {
			speed[idx] = iv.Speed
		}
	}
	s := newSchedule(plan, c)
	if !s.ydsSeed(speed) {
		return nil, nil
	}
	deriveAvgWork(plan, s.WCWork, s.AvgWork)
	tol := 1e-6 * max(1, plan.Hyperperiod)
	if s.Verify(tol) != nil {
		return nil, nil
	}
	if _, err := s.optimize(c, newWorkspace(plan)); err != nil {
		return nil, err
	}
	s.Energy = s.ObjectiveEnergy()
	if math.Abs(s.Energy-bound) > 1e-12*bound || s.Verify(tol) != nil {
		return nil, nil
	}
	return s, nil
}

// solveSingle runs one coordinate-descent solve from c's starting point.
// c must already carry defaults. It returns the schedule together with the
// optimised objective value (the scenario mean when Config.Scenarios is
// active), which the multi-start driver compares across starts.
func solveSingle(plan *preempt.Schedule, c Config) (*Schedule, float64, error) {
	ws := newWorkspace(plan)
	s := newSchedule(plan, c)

	if err := s.initialize(c, ws); err != nil {
		return nil, 0, err
	}
	obj, err := s.optimize(c, ws)
	if err != nil {
		return nil, 0, err
	}
	s.Energy = s.ObjectiveEnergy()

	if warm := c.WarmStart; warmCompatible(warm, plan) {
		alt := newSchedule(plan, c)
		copy(alt.End, warm.End)
		copy(alt.WCWork, warm.WCWork)
		deriveAvgWork(plan, alt.WCWork, alt.AvgWork)
		altObj, altErr := alt.optimize(c, ws)
		if altErr != nil {
			return nil, 0, altErr
		}
		alt.Energy = alt.ObjectiveEnergy()
		if altObj < obj && alt.Verify(1e-6*max(1, plan.Hyperperiod)) == nil {
			alt.Sweeps += s.Sweeps
			s = alt
			obj = altObj
		}
	}

	if err := s.Verify(1e-6 * max(1, plan.Hyperperiod)); err != nil {
		return nil, 0, fmt.Errorf("core: solver produced an invalid schedule: %w", err)
	}
	return s, obj, nil
}

// warmCompatible reports whether warm's solution vectors are meaningful as a
// starting point for plan: the task sets are equal in content and the
// preemptive expansions have identical structure. Pointer identity is *not*
// required — the grid memo shares schedules across harnesses that derive
// equal task sets independently, and a warm start must behave the same
// whether it came from the cache or a fresh solve (the cache-on/off
// determinism contract, DESIGN.md §6). The structural comparison is O(subs),
// noise against the solve it seeds.
func warmCompatible(warm *Schedule, plan *preempt.Schedule) bool {
	if warm == nil || warm.Plan == nil ||
		len(warm.End) != len(plan.Subs) || len(warm.WCWork) != len(plan.Subs) {
		return false
	}
	ws, ps := warm.Plan.Set, plan.Set
	if ws == nil || ps == nil {
		return false
	}
	if ws != ps {
		if len(ws.Tasks) != len(ps.Tasks) || len(warm.Plan.Subs) != len(plan.Subs) {
			return false
		}
		for i := range ps.Tasks {
			if ws.Tasks[i] != ps.Tasks[i] {
				return false
			}
		}
		for i := range plan.Subs {
			if warm.Plan.Subs[i] != plan.Subs[i] {
				return false
			}
		}
	}
	return true
}

// Feasible reports whether the task set admits any schedule at all on the
// model: the all-Vmax ASAP chain over the fully-preemptive plan must meet
// every deadline. It is the cheap pre-filter the experiment harness uses
// before paying for a full solve. A failure is an *InfeasibleError, the
// same one Build returns for the set.
func Feasible(set *task.Set, cfg Config) error {
	c := cfg.withDefaults()
	plan, err := preempt.BuildWith(set, c.Preempt)
	if err != nil {
		return &InfeasibleError{Err: err}
	}
	n := len(plan.Subs)
	s := &Schedule{
		Plan:    plan,
		Model:   c.Model,
		End:     make([]float64, n),
		WCWork:  make([]float64, n),
		AvgWork: make([]float64, n),
	}
	s.initFastModel()
	_, err = s.vmaxStart(make([]float64, n))
	return err
}

// vmaxStart assigns worst-case splits under which the all-Vmax ASAP chain
// meets every deadline and writes that chain's end-times into dst (length
// n). Splits proportional to segment length come first (they keep every
// piece work-bearing, preserving the whole split-optimisation space); when
// they are chain-infeasible — tight interleavings like GAP, where
// higher-priority load saturates some segments entirely — the exact
// fixed-priority Vmax execution (rmVmaxSplits) follows. The RM splits are
// feasible whenever the task set is schedulable at Vmax at all, so the
// *InfeasibleError this returns means the set is genuinely unschedulable.
func (s *Schedule) vmaxStart(dst []float64) ([]float64, error) {
	s.proportionalSplits()
	if ends, err := s.asapEnds(dst); err == nil {
		return ends, nil
	}
	if err := s.rmVmaxSplits(); err != nil {
		return nil, &InfeasibleError{Err: err}
	}
	ends, err := s.asapEnds(dst)
	if err != nil {
		return nil, &InfeasibleError{Err: err}
	}
	return ends, nil
}

// proportionalSplits assigns each piece a share of its instance's WCEC
// proportional to its segment length — the distribution a constant-speed
// worst-case execution would produce, and the initialisation that keeps
// every piece work-bearing.
func (s *Schedule) proportionalSplits() {
	plan := s.Plan
	for idx, positions := range plan.ByInstance {
		wcec := plan.Set.Tasks[plan.Instances[idx].TaskIndex].WCEC
		var total float64
		for _, pos := range positions {
			total += plan.Subs[pos].SegEnd - plan.Subs[pos].SegStart
		}
		for _, pos := range positions {
			s.WCWork[pos] = wcec * (plan.Subs[pos].SegEnd - plan.Subs[pos].SegStart) / total
		}
	}
}

// initialize produces a feasible starting point (vmaxStart: the check
// Feasible makes, failing with the same *InfeasibleError), then places
// end-times between the earliest (all-Vmax ASAP) and latest (ALAP) feasible
// positions by the config's blend.
func (s *Schedule) initialize(c Config, ws *workspace) error {
	plan := s.Plan
	eMin, err := s.vmaxStart(ws.eMin)
	if err != nil {
		return err
	}
	deriveAvgWork(plan, s.WCWork, s.AvgWork)
	eMax := s.alapEnds(ws.eMax)
	for pos := range s.End {
		if s.WCWork[pos] <= deadWork {
			continue // placed by the repair pass below
		}
		if eMax[pos] < eMin[pos]-1e-9 {
			return fmt.Errorf("core: infeasible at sub %d: ASAP end %g exceeds ALAP end %g",
				pos, eMin[pos], eMax[pos])
		}
		s.End[pos] = eMin[pos] + c.initBlend*(max(eMax[pos], eMin[pos])-eMin[pos])
	}
	// The blended ends satisfy deadlines but may violate the forward chain
	// (each pos's blend is independent); one forward repair pass restores
	// chain feasibility without exceeding eMax. Dead pieces get bookkeeping
	// ends on the chain.
	prev := 0.0
	tcMax := s.Model.CycleTime(s.Model.VMax())
	for pos := range s.End {
		if s.WCWork[pos] <= deadWork {
			s.End[pos] = max(prev, plan.Subs[pos].Release)
			continue
		}
		lo := max(prev, plan.Subs[pos].Release) + s.WCWork[pos]*tcMax
		if s.End[pos] < lo {
			s.End[pos] = lo
		}
		if s.End[pos] > eMax[pos] {
			s.End[pos] = eMax[pos]
		}
		prev = s.End[pos]
	}
	return nil
}

// asapEnds returns the earliest feasible end-times: the all-Vmax greedy
// chain over work-bearing pieces, written into dst (length n). An error
// means the task set is unschedulable even at full speed. Dead pieces report
// their chain position (start time) and are exempt from deadline checks.
func (s *Schedule) asapEnds(dst []float64) ([]float64, error) {
	tcMax := s.Model.CycleTime(s.Model.VMax())
	ends := dst
	t := 0.0
	for pos, su := range s.Plan.Subs {
		if s.WCWork[pos] <= deadWork {
			ends[pos] = max(t, su.Release)
			continue
		}
		start := max(t, su.Release)
		t = start + s.WCWork[pos]*tcMax
		if t > su.Deadline+1e-9 {
			return nil, fmt.Errorf("core: task set unschedulable at Vmax: %s misses deadline %g (needs %g)",
				su.ID(s.Plan.Set), su.Deadline, t)
		}
		ends[pos] = t
	}
	return ends, nil
}

// alapEnds returns the latest feasible end-times, written into dst (length
// n): a backward pass pushing every work-bearing end to its deadline, pulled
// earlier only as far as the worst-case chains of *work-bearing* successors
// require. Dead pieces are transparent to the chain and inherit the cap for
// bookkeeping.
func (s *Schedule) alapEnds(dst []float64) []float64 {
	tcMax := s.Model.CycleTime(s.Model.VMax())
	n := len(s.Plan.Subs)
	ends := dst
	// capNext is the latest time the previous work-bearing piece may end
	// without starving the chain suffix.
	capNext := math.Inf(1)
	for pos := n - 1; pos >= 0; pos-- {
		su := s.Plan.Subs[pos]
		if s.WCWork[pos] <= deadWork {
			ends[pos] = min(capNext, su.Deadline) // cosmetic only
			continue
		}
		hi := min(su.Deadline, capNext)
		ends[pos] = hi
		// A predecessor may end later than (hi − exec) only when it ends at
		// or before this piece's release (then this piece is release-bound).
		capNext = max(su.Release, hi-s.WCWork[pos]*tcMax)
	}
	return ends
}

// optimize runs alternating coordinate-descent sweeps over end-times and
// workload splits until the objective stops improving, returning the final
// objective value (the scenario mean when Config.Scenarios is active,
// otherwise the point objective). A non-nil Config.ctx is polled between
// sweeps: once it is done, optimize stops and returns its error — the only
// way a solve's outcome can depend on the context.
func (s *Schedule) optimize(c Config, ws *workspace) (float64, error) {
	var sc *scenarioSet
	if c.Scenarios > 0 && s.Objective == AverageCase {
		sc = s.buildScenarios(c.Scenarios, c.ScenarioSeed|1)
	}
	ws.ev.reset(s, sc)
	prevObj := ws.ev.full()
	obj := prevObj
	for sweep := 0; sweep < c.MaxSweeps; sweep++ {
		if c.ctx != nil {
			if err := c.ctx.Err(); err != nil {
				return obj, err
			}
		}
		// Alternate sweep directions: a forward pass tightens each end
		// against its successor's current position, so on tightly coupled
		// chains (every end at its chain cap) nothing can move until the
		// caps are released from the back — which is exactly what the
		// backward pass does.
		s.sweepEnds(c, sc, ws, sweep%2 == 1)
		// Both objectives optimise splits: the paper's WCS baseline is the
		// worst-case-*optimal* static schedule, which fixes how WCEC
		// distributes across preemption segments; leaving WCS with naive
		// proportional splits would hand ACS a phantom advantage.
		s.sweepSplits(c, sc, ws)
		s.sweepPush(c, sc, ws)
		obj = ws.ev.full()
		s.Sweeps = sweep + 1
		if prevObj-obj <= c.tol*max(prevObj, 1e-12) && sweep >= 2 {
			break
		}
		prevObj = obj
	}
	return obj, nil
}

// lineTolMs is the golden-section interval tolerance on end-times, in ms.
const lineTolMs = 1e-4

// sweepEnds optimises each end-time in turn by golden-section search over
// its feasible interval, caching the recursion prefixes (one per load
// vector) so coordinate pos only re-evaluates the order suffix [pos, n) —
// and, via the suffix memo, usually far less: the walk stops at the first
// release-bound piece past pos. With backward set, positions are visited
// last-to-first; the prefix caches stay valid throughout because they depend
// only on coordinates before pos, which a backward pass never touches after
// computing them, while the suffix memo is refreshed behind each commit.
func (s *Schedule) sweepEnds(c Config, sc *scenarioSet, ws *workspace, backward bool) {
	plan := s.Plan
	n := len(plan.Subs)
	tcMax := s.Model.CycleTime(s.Model.VMax())
	ev := &ws.ev
	ev.reset(s, sc)

	// prevAlive[pos] is the end of the last work-bearing piece before pos;
	// nextCap[pos] is the latest end the chain suffix after pos allows.
	// Dead pieces are transparent on both sides. During a forward sweep the
	// prefix side is maintained incrementally (suffix side is static, since
	// later coordinates do not move); a backward sweep mirrors that.
	prevAlive := ws.prevAlive
	prevAlive[0] = 0
	for pos := 0; pos < n; pos++ {
		prevAlive[pos+1] = prevAlive[pos]
		if s.WCWork[pos] > deadWork {
			prevAlive[pos+1] = s.End[pos]
		}
	}
	nextCap := ws.nextCap
	nextCap[n] = math.Inf(1)
	for pos := n - 1; pos >= 0; pos-- {
		if s.WCWork[pos] > deadWork {
			nextCap[pos] = max(plan.Subs[pos].Release, s.End[pos]-s.WCWork[pos]*tcMax)
		} else {
			nextCap[pos] = nextCap[pos+1]
		}
	}

	for k := 0; k < n; k++ {
		pos := k
		if backward {
			pos = n - 1 - k
		}
		su := &plan.Subs[pos]
		if s.WCWork[pos] <= deadWork {
			// Dead piece: keep a consistent bookkeeping end on the chain.
			// Its end never enters the objective (evalStep skips pieces at
			// or below deadWork), so no memo invalidation is needed.
			s.End[pos] = max(prevAlive[pos], su.Release)
			if !backward {
				prevAlive[pos+1] = prevAlive[pos]
				ev.copyPrefix(pos)
			} else {
				nextCap[pos] = nextCap[pos+1]
			}
			continue
		}
		lo := max(prevAlive[pos], su.Release) + s.WCWork[pos]*tcMax
		hi := min(su.Deadline, nextCap[pos+1])
		if hi > lo+lineTolMs {
			orig := s.End[pos]
			eval := func(e float64) float64 {
				s.End[pos] = e
				return ev.energyFrom(pos, pos+1)
			}
			origF := eval(orig)
			best, bestF := opt.GoldenMin(eval, lo, hi, lineTolMs, 200)
			// Keep the original if the search found no strict improvement
			// (GoldenMin may return an endpoint with equal value). The
			// objective is a pure function of the end-time, so the values
			// probed above stand in for re-evaluating.
			if bestF < origF-1e-15 {
				s.End[pos] = best
			} else {
				s.End[pos] = orig
			}
		} else if lo > hi {
			// Numerical corner: clamp into feasibility.
			s.End[pos] = lo
		}
		if !backward {
			ev.advance(pos)
			ev.invalidate(pos)
			prevAlive[pos+1] = s.End[pos]
		} else {
			nextCap[pos] = max(su.Release, s.End[pos]-s.WCWork[pos]*tcMax)
			// Refresh the memo behind the commit: the next (earlier)
			// position's line search exits into entries at [pos, n].
			ev.resnap(pos, pos+1)
		}
	}
}

// sweepSplits optimises the worst-case workload split between each adjacent
// pair of pieces of every multi-piece instance: a scalar transfer δ moves
// work from the later piece to the earlier one within the bounds set by
// non-negativity and each position's worst-case chain slack. Under ACS every
// probe re-derives the loads the objective reads from the earlier piece on,
// so the objective sees the case-1/case-2 redistribution immediately; an
// accepted move re-derives every load of the instance. Pairs are visited in
// total order of their earlier position (precomputed in the workspace) so a
// prefix cache of the recursion can be advanced monotonically; a pair's
// evaluation then only re-runs the order suffix starting at that position,
// replaying the snapshot where the walk meets it at a position the transfer
// left alone, up to the first release-bound piece past the instance's last
// position.
func (s *Schedule) sweepSplits(c Config, sc *scenarioSet, ws *workspace) {
	plan := s.Plan
	tcMax := s.Model.CycleTime(s.Model.VMax())
	ev := &ws.ev
	ev.reset(s, sc)

	// caps[pos] is the latest end the alive pieces at [pos, n) allow their
	// predecessor — the nextCap recursion of sweepEnds evaluated on the live
	// state. It bounds where a revived piece may place its end; recomputed
	// behind every accepted transfer (budgets move, and a revival moves an
	// end). The array is borrowed from the workspace — sweepEnds rebuilds it
	// on entry.
	n := len(plan.Subs)
	caps := ws.nextCap
	recap := func() {
		caps[n] = math.Inf(1)
		for pos := n - 1; pos >= 0; pos-- {
			if s.WCWork[pos] > deadWork {
				caps[pos] = max(plan.Subs[pos].Release, s.End[pos]-s.WCWork[pos]*tcMax)
			} else {
				caps[pos] = caps[pos+1]
			}
		}
	}
	recap()

	// limitFor is the latest time piece pos may end: its static end capped
	// by its deadline while alive. A dead piece's bookkeeping end is
	// meaningless — it may sit past the deadline (see sweepEnds) — so a
	// piece a transfer would revive is instead bounded by its deadline and
	// its successors' chain cap, which is also where the revival re-places
	// its end.
	limitFor := func(pos int) float64 {
		if s.WCWork[pos] <= deadWork {
			return min(plan.Subs[pos].Deadline, caps[pos+1])
		}
		return min(s.End[pos], plan.Subs[pos].Deadline)
	}

	// chainSlack is how many extra worst-case cycles piece pos could absorb
	// at Vmax within its window, which runs from the later of its release
	// and the previous *work-bearing* end to limitFor.
	chainSlack := func(pos int) float64 {
		prevEnd := 0.0
		for p := pos - 1; p >= 0; p-- {
			if s.WCWork[p] > deadWork {
				prevEnd = s.End[p]
				break
			}
		}
		window := limitFor(pos) - max(prevEnd, plan.Subs[pos].Release)
		return window/tcMax - s.WCWork[pos]
	}

	// The evaluator's prefixes are valid up to front (exclusive); pairs are
	// processed in ascending pa so the caches only ever advance.
	front := 0
	advance := func(to int) {
		for ; front < to; front++ {
			ev.advance(front)
		}
	}
	rederive := func(idx int) {
		deriveAvgWorkInstance(plan, s.WCWork, s.AvgWork, idx)
		if sc != nil {
			for k := range sc.loads {
				sc.rederiveInstance(s, k, idx)
			}
		}
	}
	// left[i] is the workload load set i leaves for the current pair's
	// instance from pa on: ACEC, or scenario i's draw, less what the pieces
	// before pa take. Those pieces do not change while pa and pb trade
	// work, so an ACS probe re-derives its loads from pa only.
	if cap(ws.left) < len(ev.loadSets) {
		ws.left = make([]float64, len(ev.loadSets))
	}
	left := ws.left[:len(ev.loadSets)]

	for _, p := range ws.pairs {
		advance(p.pa)
		// δ > 0 moves workload from the later piece pb to pa.
		dLo := max(-s.WCWork[p.pa], -chainSlack(p.pb))
		dHi := min(s.WCWork[p.pb], chainSlack(p.pa))
		if dHi-dLo < 1e-9 {
			continue
		}
		// A committed transfer re-derives loads across the whole instance,
		// so the dirty region of every evaluation ends after the instance's
		// last position. Within it a probe changes only mods: the pair
		// itself under WCS, whose objective reads only WCWork, and under
		// ACS every load from pa on.
		positions := plan.ByInstance[p.idx]
		stable := positions[len(positions)-1] + 1
		mods := positions[p.k:]
		if s.Objective == WorstCase {
			mods = []int{p.pa, p.pb}
		} else {
			for i, loads := range ev.loadSets {
				total := plan.Set.Tasks[plan.Instances[p.idx].TaskIndex].ACEC
				if sc != nil {
					total = sc.cycles[i][p.idx]
				}
				left[i] = loadLeft(total, positions[:p.k], loads)
			}
		}
		wa, wb := s.WCWork[p.pa], s.WCWork[p.pb]
		ea, eb := s.End[p.pa], s.End[p.pb]
		limA, limB := limitFor(p.pa), limitFor(p.pb)
		// apply installs the trial state for transfer d and re-derives the
		// loads the objective reads. A transfer that revives a dead piece
		// re-places its end at the window limit the slack bound was computed
		// against — the stale bookkeeping end may sit past the deadline and
		// must be neither kept (it would violate constraint (7)) nor
		// credited with energy by the evaluation below.
		apply := func(d float64) {
			s.WCWork[p.pa] = wa + d
			s.WCWork[p.pb] = wb - d
			s.End[p.pa] = ea
			if wa <= deadWork && s.WCWork[p.pa] > deadWork {
				s.End[p.pa] = limA
			}
			s.End[p.pb] = eb
			if wb <= deadWork && s.WCWork[p.pb] > deadWork {
				s.End[p.pb] = limB
			}
			if s.Objective != WorstCase {
				for i, loads := range ev.loadSets {
					deriveLoads(mods, left[i], s.WCWork, loads)
				}
			}
		}
		eval := func(d float64) float64 {
			apply(d)
			return ev.energyFrom(p.pa, stable, mods...)
		}
		base := eval(0)
		best, bestF := opt.GoldenMin(eval, dLo, dHi, 1e-6*(dHi-dLo)+1e-12, 200)
		changed := bestF < base-1e-15
		if changed {
			apply(best)
			rederive(p.idx)
			// Refresh the memo behind the committed transfer so later pairs
			// (whose dirty regions may end before this instance's last
			// position) can still exit into consistent entries, and refresh
			// the chain caps — budgets moved, and a revival moved an end.
			ev.resnap(p.pa, stable)
			recap()
		} else {
			apply(0)
		}
	}
}

// sweepPush is the joint-move companion to sweepEnds. Plain coordinate
// descent bounds each end-time by its successor's *current* position, so on
// tightly chained schedules no single coordinate can move even when shifting
// a whole run of ends later would pay. The push sweep explores exactly that
// direction: it moves one end anywhere up to its own deadline and ripples
// every downstream end forward by the minimum the worst-case chain requires,
// rejecting the move if any ripple would cross a deadline. Each trial's
// ripple dirties only [pos, lastMod], so the next trial restores only that.
func (s *Schedule) sweepPush(c Config, sc *scenarioSet, ws *workspace) {
	plan := s.Plan
	n := len(plan.Subs)
	tcMax := s.Model.CycleTime(s.Model.VMax())
	ev := &ws.ev
	ev.reset(s, sc)

	saved := ws.saved
	prevAlive := 0.0
	for pos := 0; pos < n; pos++ {
		su := &plan.Subs[pos]
		if s.WCWork[pos] <= deadWork {
			s.End[pos] = max(prevAlive, su.Release)
			ev.copyPrefix(pos)
			continue
		}
		lo := s.chainLo(prevAlive, pos, tcMax)
		hi := su.Deadline
		if hi > lo+lineTolMs {
			copy(saved[pos:], s.End[pos:])
			settled := s.settledAfter(pos, tcMax)
			// lastMod tracks the end of the most recent trial's ripple — the
			// dirty region the suffix memo must not be consulted inside.
			lastMod := pos
			restore := func() { copy(s.End[pos:lastMod+1], saved[pos:lastMod+1]) }
			eval := func(e float64) float64 {
				restore()
				var ok bool
				if lastMod, ok = s.ripple(pos, e, settled, tcMax); !ok {
					return math.Inf(1) // ripple crosses a deadline
				}
				return ev.energyFrom(pos, lastMod+1)
			}
			base := eval(saved[pos])
			best, bestF := opt.GoldenMin(eval, lo, hi, lineTolMs, 200)
			if bestF < base-1e-15 && !math.IsInf(bestF, 1) {
				if math.IsInf(eval(best), 1) { // re-apply; defensive
					restore()
				} else {
					// The accepted move rippled ends through lastMod: refresh
					// the memo over the whole dirty region so later positions
					// in this sweep exit into consistent entries.
					ev.resnap(pos, lastMod+1)
				}
			} else {
				restore()
			}
		}
		ev.advance(pos)
		ev.invalidate(pos)
		prevAlive = s.End[pos]
	}
}

// chainLo is the earliest end constraint (9) allows work-bearing piece q
// after a work-bearing predecessor ending at prev.
func (s *Schedule) chainLo(prev float64, q int, tcMax float64) float64 {
	return max(prev, s.Plan.Subs[q].Release) + s.WCWork[q]*tcMax
}

// settledAfter returns the last work-bearing position past pos whose end
// falls short of chainLo behind a work-bearing predecessor also past pos, or
// pos when there is none: beyond it the chain after pos is consistent, so a
// ripple there has nothing left to repair.
func (s *Schedule) settledAfter(pos int, tcMax float64) int {
	settled, prev := pos, -1
	for q := pos + 1; q < len(s.End); q++ {
		if s.WCWork[q] <= deadWork {
			continue
		}
		if prev >= 0 && s.End[q] < s.chainLo(s.End[prev], q, tcMax) {
			settled = q
		}
		prev = q
	}
	return settled
}

// ripple places end e at pos and moves every later work-bearing end forward
// to chainLo behind its predecessor where it falls short. It stops at the
// first work-bearing piece it leaves unmoved at or past settled (from
// settledAfter: the rest of the chain already holds), or with ok false on a
// move that would cross a deadline. lastMod is the last position it moved.
func (s *Schedule) ripple(pos int, e float64, settled int, tcMax float64) (lastMod int, ok bool) {
	s.End[pos] = e
	lastMod = pos
	prev := e
	for q := pos + 1; q < len(s.End); q++ {
		if s.WCWork[q] <= deadWork {
			continue
		}
		if loQ := s.chainLo(prev, q, tcMax); s.End[q] < loQ {
			if loQ > s.Plan.Subs[q].Deadline+1e-9 {
				return lastMod, false
			}
			s.End[q] = loQ
			lastMod = q
		} else if q >= settled {
			break
		}
		prev = s.End[q]
	}
	return lastMod, true
}

// deriveAvgWorkInstance recomputes the average workloads of one instance.
func deriveAvgWorkInstance(plan *preempt.Schedule, wc, avg []float64, idx int) {
	deriveLoads(plan.ByInstance[idx], plan.Set.Tasks[plan.Instances[idx].TaskIndex].ACEC, wc, avg)
}

// deriveLoads fills loads over an instance's positions, in execution order,
// from the workload left for them: each piece takes min(left, R̂) (the
// case-1/case-2 rule of deriveAvgWork).
func deriveLoads(positions []int, left float64, wc, loads []float64) {
	for _, pos := range positions {
		w := min(left, wc[pos])
		loads[pos] = w
		left -= w
	}
}

// loadLeft is the workload deriveLoads leaves after positions: total less
// each of their loads, subtracted in the same order, so it is bit for bit
// the value deriveLoads carries past them.
func loadLeft(total float64, positions []int, loads []float64) float64 {
	for _, pos := range positions {
		total -= loads[pos]
	}
	return total
}
