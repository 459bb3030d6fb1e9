// Package partition lifts the paper's single-processor ACS/WCS synthesis to
// an M-core partitioned system. Tasks are statically bin-packed onto
// identical cores under the solver's own exact schedulability test
// (core.Feasible — the all-Vmax ASAP chain), each core's subset is then an
// ordinary single-processor problem solved through the grid runner (WCS,
// then ACS warm-started from it), and the global objective is the sum of
// per-core predicted energies. Because every core's subset is
// content-addressed by the same grid key a direct solve would use,
// repartitions that leave a core's assignment untouched hit the memo and
// re-solve nothing.
//
// One core is the single-processor solve itself: nothing is packed, the
// whole set is core 0, and that core's WCS build is the admission test.
//
// Everything here is deterministic for any grid worker count and cache
// state: admission is a pure function of the task set and config, the
// per-core fan-out is index-addressed, and the cross-core improvement loop
// samples candidate moves from a seeded RNG and accepts by (energy, index)
// order — never by completion order.
package partition

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/task"
)

// Mode selects the bin-packing heuristic.
type Mode int

const (
	// FirstFitDecreasing packs each task (in decreasing-utilisation order)
	// onto the lowest-indexed core that can still schedule it — the classic
	// FFD bound, and the densest packing of the two.
	FirstFitDecreasing Mode = iota
	// WorstFit packs each task onto the least-utilised core that can still
	// schedule it — the balance-seeking mode, which spreads slack evenly
	// and tends to leave every core more room to slow down.
	WorstFit
)

func (m Mode) String() string {
	switch m {
	case FirstFitDecreasing:
		return "ffd"
	case WorstFit:
		return "worstfit"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config tunes the partitioner and the per-core solves.
type Config struct {
	// Cores is the number of identical cores (required, >= 1).
	Cores int
	// Mode selects the packing heuristic (default FirstFitDecreasing).
	Mode Mode
	// Moves bounds the cross-core improvement rounds: each round evaluates
	// a deterministic candidate set of at most moveCandidates task
	// migrations and pairwise swaps against the global energy objective
	// and greedily applies the best strictly-improving one. 0 disables the
	// loop.
	Moves int
	// Solver is the per-core solver configuration. Its Objective selects
	// what each core serves: AverageCase runs WCS then warm-started ACS per
	// core, WorstCase runs WCS only. WarmStart must be nil (the driver
	// manages warm starts itself).
	Solver core.Config
	// ACSBudget, when positive, bounds each core's ACS refinement. A core
	// whose budget expires degrades to its WCS schedule (always built
	// first, never budgeted) rather than failing the solve; Result and the
	// affected CoreSolve report Degraded. The budget is a load-shedding
	// policy, not problem content — Fingerprint excludes it.
	ACSBudget time.Duration

	// budgetFor, when non-nil, overrides ACSBudget per core index — a test
	// hook for exercising single-core degradation deterministically.
	budgetFor func(coreIdx int) time.Duration
}

// The improvement loop's candidate bound: a round whose enumeration holds
// more than moveCandidates moves evaluates a sample of that many, drawn from
// an RNG seeded with moveSeed and the round number. Fingerprint hashes both
// for a config with Moves > 0.
const (
	moveSeed       = 2005
	moveCandidates = 24
)

// Assignment maps each core to the sorted original indices (into
// set.Tasks) of the tasks placed on it. It is a partition: every task index
// appears on exactly one core; cores may be empty.
type Assignment [][]int

// Validate checks that a is a partition of [0, n) with each core's list
// sorted ascending.
func (a Assignment) Validate(n int) error {
	seen := make([]bool, n)
	total := 0
	for c, idxs := range a {
		for j, t := range idxs {
			if t < 0 || t >= n {
				return fmt.Errorf("partition: core %d holds out-of-range task index %d", c, t)
			}
			if j > 0 && idxs[j-1] >= t {
				return fmt.Errorf("partition: core %d task list not sorted ascending", c)
			}
			if seen[t] {
				return fmt.Errorf("partition: task index %d assigned twice", t)
			}
			seen[t] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("partition: %d of %d tasks assigned", total, n)
	}
	return nil
}

// homes returns the core index of every task.
func (a Assignment) homes(n int) []int {
	home := make([]int, n)
	for c, idxs := range a {
		for _, t := range idxs {
			home[t] = c
		}
	}
	return home
}

// CoreSolve is one core's solved sub-problem.
type CoreSolve struct {
	// Core is the core index.
	Core int
	// TaskIdx are the original set indices assigned to this core (sorted).
	TaskIdx []int
	// Set is the core's task subset (nil when the core is empty).
	Set *task.Set
	// WCS is the core's worst-case schedule (nil when the core is empty).
	WCS *core.Schedule
	// ACS is the warm-started average-case schedule; nil for the WorstCase
	// objective, for empty cores, and when the core degraded.
	ACS *core.Schedule
	// Key is the grid content address of the schedule the core serves —
	// identical to the fingerprint a direct single-core submit of the same
	// subset and config would get (for a degraded core, which serves its
	// WCS, that of a WorstCase submit).
	Key string
	// Degraded reports that the core's ACS budget expired and WCS is
	// served in its place.
	Degraded bool
}

// Schedule returns the schedule the core serves: ACS when present,
// otherwise WCS; nil for an empty core.
func (cs *CoreSolve) Schedule() *core.Schedule {
	if cs.ACS != nil {
		return cs.ACS
	}
	return cs.WCS
}

// Energy returns the served schedule's predicted energy (0 for an empty
// core).
func (cs *CoreSolve) Energy() float64 {
	if s := cs.Schedule(); s != nil {
		return s.Energy
	}
	return 0
}

// WCSAtAverage evaluates the core's WCS schedule under the average
// workload trajectory — the per-core WCS-at-average baseline the global
// improvement figures are measured against. Returns 0 for an empty core.
func (cs *CoreSolve) WCSAtAverage() (float64, error) {
	if cs.WCS == nil {
		return 0, nil
	}
	avg := make([]float64, len(cs.WCS.Plan.Instances))
	for i := range avg {
		avg[i] = cs.WCS.Plan.Set.Tasks[cs.WCS.Plan.Instances[i].TaskIndex].ACEC
	}
	e, _, err := cs.WCS.EnergyUnder(avg)
	return e, err
}

// Result is a solved partitioned system.
type Result struct {
	// Assignment is the final task→core mapping (after any accepted
	// moves).
	Assignment Assignment
	// Cores holds one solved sub-problem per core, in core-index order.
	Cores []CoreSolve
	// Energy is the global objective: the sum of per-core predicted
	// energies in core-index order.
	Energy float64
	// AcceptedMoves counts improvement-loop moves applied.
	AcceptedMoves int
}

// Degraded reports whether any core degraded to its WCS schedule.
func (r *Result) Degraded() bool {
	for i := range r.Cores {
		if r.Cores[i].Degraded {
			return true
		}
	}
	return false
}

// subSet builds the task subset for one core. Tasks keep their names, so
// the subset's content (and grid key) is a pure function of which tasks are
// on the core.
func subSet(set *task.Set, idxs []int) (*task.Set, error) {
	tasks := make([]task.Task, len(idxs))
	for i, t := range idxs {
		tasks[i] = set.Tasks[t]
	}
	return task.NewSet(tasks)
}

// utilization is the task's worst-case utilisation at maximum speed.
func utilization(t *task.Task, tcMax float64) float64 {
	return t.WCEC * tcMax / float64(t.Period)
}

// Admit bin-packs set onto cfg.Cores cores under the exact per-core
// schedulability test. The packing is a pure function of (set, cfg): tasks
// are placed in decreasing-utilisation order (ties by original index), each
// onto the first core — in cfg.Mode's preference order — whose subset stays
// feasible. It fails if some task fits no core.
func Admit(set *task.Set, cfg Config) (Assignment, error) {
	asg, _, err := admit(set, cfg, nil)
	return asg, err
}

// admit is Admit plus the placement order (for rollback) and a banned
// (task, core) placement set the rollback loop grows.
func admit(set *task.Set, c Config, banned map[[2]int]bool) (Assignment, [][2]int, error) {
	if c.Cores < 1 {
		return nil, nil, fmt.Errorf("partition: core count must be >= 1, got %d", c.Cores)
	}
	solver := c.Solver.Canonical()
	tcMax := solver.Model.CycleTime(solver.Model.VMax())
	n := set.N()

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua := utilization(&set.Tasks[order[a]], tcMax)
		ub := utilization(&set.Tasks[order[b]], tcMax)
		if ua != ub {
			return ua > ub
		}
		return order[a] < order[b]
	})

	asg := make(Assignment, c.Cores)
	for i := range asg {
		asg[i] = []int{}
	}
	util := make([]float64, c.Cores)
	placed := make([][2]int, 0, n)

	fits := func(coreIdx, t int) bool {
		if banned[[2]int{t, coreIdx}] {
			return false
		}
		if util[coreIdx]+utilization(&set.Tasks[t], tcMax) > 1+1e-9 {
			return false
		}
		grown := append(append([]int(nil), asg[coreIdx]...), t)
		sort.Ints(grown)
		sub, err := subSet(set, grown)
		if err != nil {
			return false
		}
		return core.Feasible(sub, c.Solver) == nil
	}

	for _, t := range order {
		cands := make([]int, c.Cores)
		for i := range cands {
			cands[i] = i
		}
		if c.Mode == WorstFit {
			sort.SliceStable(cands, func(a, b int) bool {
				if util[cands[a]] != util[cands[b]] {
					return util[cands[a]] < util[cands[b]]
				}
				return cands[a] < cands[b]
			})
		}
		placedOn := -1
		for _, coreIdx := range cands {
			if fits(coreIdx, t) {
				placedOn = coreIdx
				break
			}
		}
		if placedOn < 0 {
			return nil, nil, fmt.Errorf(
				"partition: admission failed — task %q (u=%.3f) fits no core (%d cores, mode %s)",
				set.Tasks[t].Name, utilization(&set.Tasks[t], tcMax), c.Cores, c.Mode)
		}
		asg[placedOn] = append(asg[placedOn], t)
		sort.Ints(asg[placedOn])
		util[placedOn] += utilization(&set.Tasks[t], tcMax)
		placed = append(placed, [2]int{t, placedOn})
	}
	return asg, placed, nil
}

// BuildError is a core's failed WCS or ACS build. Its text is the build's
// own; Objective names which of the two builds failed.
type BuildError struct {
	Objective core.Objective
	Err       error
}

func (e *BuildError) Error() string { return e.Err.Error() }
func (e *BuildError) Unwrap() error { return e.Err }

// coreOut separates a core solve's three outcomes: solved, infeasible on
// this core (→ admission rollback), or a hard failure (cancellation, model
// errors) that aborts the whole solve.
type coreOut struct {
	cs         CoreSolve
	infeasible error
	fatal      error
}

// solveCore solves one core's subset: WCS (never budgeted — it is the
// degraded-mode floor), then ACS warm-started from WCS under the core's
// budget when the objective is AverageCase; the ACS solves over the WCS's
// plan (core.Build), so the pair pins one. A core holding every task
// solves the set itself.
func solveCore(ctx context.Context, r *grid.Runner, set *task.Set, idxs []int, coreIdx int, c Config) coreOut {
	cs := CoreSolve{Core: coreIdx, TaskIdx: append([]int(nil), idxs...)}
	if len(idxs) == 0 {
		return coreOut{cs: cs}
	}
	sub := set
	if len(idxs) < set.N() {
		var err error
		if sub, err = subSet(set, idxs); err != nil {
			return coreOut{fatal: fmt.Errorf("partition: core %d subset: %w", coreIdx, err)}
		}
	}
	cs.Set = sub

	wcsCfg := c.Solver
	wcsCfg.Objective = core.WorstCase
	wcsCfg.WarmStart = nil
	wcsDone := obs.StartSpan(ctx, "solve_wcs")
	wcs, err := r.BuildScheduleContext(ctx, sub, wcsCfg)
	wcsDone()
	if err != nil {
		err = &BuildError{Objective: core.WorstCase, Err: err}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return coreOut{fatal: err}
		}
		return coreOut{infeasible: err}
	}
	cs.WCS = wcs
	servedCfg := wcsCfg

	if c.Solver.Objective == core.AverageCase {
		budget := c.ACSBudget
		if c.budgetFor != nil {
			budget = c.budgetFor(coreIdx)
		}
		acsCtx, cancel := ctx, context.CancelFunc(nil)
		if budget > 0 {
			acsCtx, cancel = context.WithTimeout(ctx, budget)
		}
		acsCfg := c.Solver
		acsCfg.Objective = core.AverageCase
		acsCfg.WarmStart = wcs
		acsDone := obs.StartSpan(acsCtx, "solve_acs")
		acs, err := r.BuildScheduleContext(acsCtx, sub, acsCfg)
		acsDone()
		if cancel != nil {
			cancel()
		}
		switch {
		case err == nil:
			cs.ACS = acs
			servedCfg = acsCfg
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// This core's budget expired while the request is still live:
			// serve its WCS schedule, marked degraded.
			cs.Degraded = true
		default:
			return coreOut{fatal: &BuildError{Objective: core.AverageCase, Err: err}}
		}
	}

	// The warm start is a solver accelerant, not part of the sub-problem's
	// identity: keyed without it, Key is a single-core submit's fingerprint.
	servedCfg.WarmStart = nil
	if key, ok := grid.ScheduleKey(sub, servedCfg); ok {
		cs.Key = key.String()
	}
	return coreOut{cs: cs}
}

// solveCores fans the per-core solves across the grid runner and folds the
// results in core-index order. badCore >= 0 names the lowest-indexed core
// whose WCS build reported infeasibility (the rollback trigger).
func solveCores(ctx context.Context, r *grid.Runner, set *task.Set, asg Assignment, c Config) (cores []CoreSolve, badCore int, err error) {
	outs := grid.Collect(r, len(asg), func(i int) coreOut {
		return solveCore(ctx, r, set, asg[i], i, c)
	})
	cores = make([]CoreSolve, len(outs))
	badCore = -1
	for i, o := range outs {
		if o.fatal != nil {
			return nil, -1, o.fatal
		}
		if o.infeasible != nil && badCore < 0 {
			badCore = i
		}
		cores[i] = o.cs
	}
	return cores, badCore, nil
}

// totalEnergy sums per-core energies in core-index order — the global
// objective, and (summation order fixed) a deterministic float.
func totalEnergy(cores []CoreSolve) float64 {
	sum := 0.0
	for i := range cores {
		sum += cores[i].Energy()
	}
	return sum
}

// Solve partitions set onto cfg.Cores cores and solves every core: admit →
// parallel per-core WCS/ACS → (optionally) the cross-core improvement
// loop. When a core's WCS build reports infeasibility despite passing the
// admission test's schedulability check (split caps and expansion limits
// can diverge), the most recent placement on that core is banned and the
// packing retried — the rollback rule.
//
// One core packs nothing: the whole set is core 0, its WCS build is the
// admission test, and a failed build comes back as a *BuildError around
// the build's own error (a *core.InfeasibleError for an unschedulable set).
func Solve(ctx context.Context, r *grid.Runner, set *task.Set, c Config) (*Result, error) {
	if c.Solver.WarmStart != nil {
		return nil, fmt.Errorf("partition: Solver.WarmStart must be nil (the driver manages warm starts)")
	}
	if c.Cores == 1 {
		return solveOneCore(ctx, r, set, c)
	}
	banned := make(map[[2]int]bool)
	rollbacks := 0
	maxRollbacks := set.N() * c.Cores
	for {
		asg, placed, err := admit(set, c, banned)
		if err != nil {
			return nil, err
		}
		cores, badCore, err := solveCores(ctx, r, set, asg, c)
		if err != nil {
			return nil, err
		}
		if badCore >= 0 {
			last := [2]int{-1, badCore}
			for i := len(placed) - 1; i >= 0; i-- {
				if placed[i][1] == badCore {
					last = [2]int{placed[i][0], badCore}
					break
				}
			}
			if last[0] < 0 || banned[last] {
				return nil, fmt.Errorf("partition: core %d unschedulable with no placement left to roll back", badCore)
			}
			banned[last] = true
			rollbacks++
			if rollbacks > maxRollbacks {
				return nil, fmt.Errorf("partition: admission failed after %d rollbacks", rollbacks)
			}
			continue
		}
		res := &Result{
			Assignment: asg,
			Cores:      cores,
			Energy:     totalEnergy(cores),
		}
		if c.Moves > 0 && c.Cores > 1 && !res.Degraded() {
			if err := improve(ctx, r, set, c, res); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
}

// solveOneCore is Solve on one core: the whole set is core 0 as it is, with
// no packing and no rollback, so the core's failed build fails the solve.
func solveOneCore(ctx context.Context, r *grid.Runner, set *task.Set, c Config) (*Result, error) {
	all := make([]int, set.N())
	for i := range all {
		all[i] = i
	}
	o := solveCore(ctx, r, set, all, 0, c)
	if o.fatal != nil {
		return nil, o.fatal
	}
	if o.infeasible != nil {
		return nil, o.infeasible
	}
	cores := []CoreSolve{o.cs}
	return &Result{Assignment: Assignment{all}, Cores: cores, Energy: totalEnergy(cores)}, nil
}

// move is one improvement-loop candidate: a migration of task t from core
// `from` to core `to`, or (swap) an exchange of t@from with u@to.
type move struct {
	swap     bool
	t, u     int
	from, to int
}

// enumerateMoves lists every candidate in a fixed deterministic order:
// migrations by (task, destination core), then swaps by (t, u) pairs.
func enumerateMoves(asg Assignment, home []int) []move {
	var out []move
	n := len(home)
	for t := 0; t < n; t++ {
		for c := 0; c < len(asg); c++ {
			if c == home[t] {
				continue
			}
			out = append(out, move{t: t, from: home[t], to: c})
		}
	}
	for t := 0; t < n; t++ {
		for u := t + 1; u < n; u++ {
			if home[t] == home[u] {
				continue
			}
			out = append(out, move{swap: true, t: t, u: u, from: home[t], to: home[u]})
		}
	}
	return out
}

// sampleMoves draws k candidates without replacement from the seeded RNG
// and returns them in enumeration order, so the evaluated set — like
// everything else — is independent of worker count.
func sampleMoves(cands []move, k int, rng *stats.RNG) []move {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	sel := append([]int(nil), idx[:k]...)
	sort.Ints(sel)
	out := make([]move, k)
	for i, j := range sel {
		out[i] = cands[j]
	}
	return out
}

// moveEval is one candidate's outcome: the re-solved source and destination
// cores and the candidate global energy (delta-composed so every candidate
// is costed with identical arithmetic).
type moveEval struct {
	ok   bool
	e    float64
	a, b CoreSolve
}

// without returns idxs minus t; with returns idxs plus t, sorted.
func without(idxs []int, t int) []int {
	out := make([]int, 0, len(idxs))
	for _, x := range idxs {
		if x != t {
			out = append(out, x)
		}
	}
	return out
}

func with(idxs []int, t int) []int {
	out := append(append([]int(nil), idxs...), t)
	sort.Ints(out)
	return out
}

// evalMove re-solves the two cores a candidate touches. Growing cores are
// feasibility-checked first so infeasible candidates cost one exact check,
// not a full solve. Any failure marks the candidate invalid (ok=false);
// cancellation surfaces through ctx at the fold.
func evalMove(ctx context.Context, r *grid.Runner, set *task.Set, c Config, res *Result, mv move) moveEval {
	var aIdx, bIdx []int
	if mv.swap {
		aIdx = with(without(res.Assignment[mv.from], mv.t), mv.u)
		bIdx = with(without(res.Assignment[mv.to], mv.u), mv.t)
	} else {
		aIdx = without(res.Assignment[mv.from], mv.t)
		bIdx = with(res.Assignment[mv.to], mv.t)
	}
	grown := [][]int{bIdx}
	if mv.swap {
		grown = append(grown, aIdx)
	}
	for _, g := range grown {
		sub, err := subSet(set, g)
		if err != nil || core.Feasible(sub, c.Solver) != nil {
			return moveEval{}
		}
	}
	ra := solveCore(ctx, r, set, aIdx, mv.from, c)
	rb := solveCore(ctx, r, set, bIdx, mv.to, c)
	if ra.fatal != nil || ra.infeasible != nil || rb.fatal != nil || rb.infeasible != nil {
		return moveEval{}
	}
	e := res.Energy - res.Cores[mv.from].Energy() - res.Cores[mv.to].Energy() +
		ra.cs.Energy() + rb.cs.Energy()
	return moveEval{ok: true, e: e, a: ra.cs, b: rb.cs}
}

// improve runs the cross-core improvement loop: up to c.Moves rounds, each
// evaluating a seeded candidate set in parallel and greedily applying the
// best strictly-improving move (ties break to the lowest enumeration
// index). The loop never runs budgeted — it is offline refinement — so
// candidate evaluation clears the ACS budget.
func improve(ctx context.Context, r *grid.Runner, set *task.Set, c Config, res *Result) error {
	home := res.Assignment.homes(set.N())
	cEval := c
	cEval.ACSBudget = 0
	cEval.budgetFor = nil
	for round := 0; round < c.Moves; round++ {
		cands := enumerateMoves(res.Assignment, home)
		if len(cands) > moveCandidates {
			rng := stats.NewRNG(moveSeed + 0x9e3779b97f4a7c15*uint64(round+1))
			cands = sampleMoves(cands, moveCandidates, rng)
		}
		evals := grid.Collect(r, len(cands), func(i int) moveEval {
			return evalMove(ctx, r, set, cEval, res, cands[i])
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		best := -1
		bestE := res.Energy - 1e-9*math.Max(1, math.Abs(res.Energy))
		for i := range evals {
			if evals[i].ok && evals[i].e < bestE {
				bestE = evals[i].e
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		mv, ev := cands[best], evals[best]
		res.Assignment[mv.from] = append([]int(nil), ev.a.TaskIdx...)
		res.Assignment[mv.to] = append([]int(nil), ev.b.TaskIdx...)
		res.Cores[mv.from] = ev.a
		res.Cores[mv.to] = ev.b
		if mv.swap {
			home[mv.t], home[mv.u] = mv.to, mv.from
		} else {
			home[mv.t] = mv.to
		}
		res.AcceptedMoves++
		res.Energy = totalEnergy(res.Cores)
	}
	return nil
}

// Fingerprint content-addresses a partitioned request: the single-core grid
// key of (set, Solver) — task-set content, model identity, every solver
// field a solve is a function of — extended with the partition knobs.
// ACSBudget (and the test-only budget hook) are load policy, not problem
// content, and are excluded, mirroring the server's SolveBudget. A config
// with Moves > 0 also hashes the sampling constants (moveSeed and
// moveCandidates); with the loop off they hash as zero. One core has no
// knobs to add: its fingerprint is the single-core key itself. ok=false
// mirrors grid.ScheduleKey: the config is not canonically encodable.
func Fingerprint(set *task.Set, c Config) (string, bool) {
	solver := c.Solver
	solver.WarmStart = nil
	key, ok := grid.ScheduleKey(set, solver)
	if !ok {
		return "", false
	}
	if c.Cores == 1 {
		return key.String(), true
	}
	h := sha256.New()
	h.Write([]byte("partition/v1"))
	h.Write(key[:])
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wr(uint64(c.Cores))
	wr(uint64(c.Mode))
	wr(uint64(c.Moves))
	if c.Moves > 0 {
		wr(moveSeed)
		wr(moveCandidates)
	} else {
		wr(0)
		wr(0)
	}
	return hex.EncodeToString(h.Sum(nil)), true
}
