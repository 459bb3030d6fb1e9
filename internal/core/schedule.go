// Package core implements the paper's contribution: ACS, the average-case-
// aware offline voltage scheduler for preemptive hard real-time systems
// (§3), together with the WCS worst-case-only baseline it is evaluated
// against (§4).
//
// The NLP of §3.2 is solved in a reduced variable space. Equations (11)–(14)
// make the average workloads a deterministic function of the worst-case
// workload splits (sub-instances of an instance are filled in execution
// order, each taking min(remaining ACEC, R̂)); equation (2) determines both
// voltages from workloads and windows; and constraint (10) holds with
// equality under greedy slack reclamation, which pins the average start
// times. The free variables are therefore the per-sub-instance end-times e_u
// and the worst-case splits R̂_u (summing to WCEC per instance), subject to
//
//	e_u ≤ deadline(u)                                  (7)
//	R̂_u · tc(Vmax) ≤ e_u − max(e_{u−1}, release(u))    (9)
//	R̂_u ≥ 0, Σ_k R̂_{i,j,k} = WCEC_i                   (11)–(12)
//
// and the objective is the energy of the greedy-reclamation runtime at the
// average workload (ACS) or the worst-case workload (WCS). See DESIGN.md §2.
package core

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/task"
)

// Objective selects what the static schedule optimises.
type Objective int

const (
	// AverageCase is ACS: minimise expected runtime energy when tasks take
	// their average workload, subject to worst-case feasibility.
	AverageCase Objective = iota
	// WorstCase is WCS: the baseline that minimises energy assuming every
	// task consumes its WCEC.
	WorstCase
)

// String names the objective for reports.
func (o Objective) String() string {
	switch o {
	case AverageCase:
		return "ACS"
	case WorstCase:
		return "WCS"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Schedule is a solved static voltage schedule: the artefact the offline
// phase hands to the online DVS dispatcher. Only End and WCWork cross that
// boundary (paper §3.2: "only the end-time and the worst-case workload
// variables will be passed to the online DVS phase"); the remaining fields
// are diagnostics.
type Schedule struct {
	// Plan is the fully-preemptive expansion the schedule is defined over.
	Plan *preempt.Schedule
	// Model is the processor model voltages were solved against.
	Model power.Model
	// End holds the static end-time (ms) of each sub-instance, indexed in
	// the plan's total order.
	End []float64
	// WCWork holds the worst-case workload R̂ (cycles) of each sub-instance.
	WCWork []float64
	// AvgWork holds the derived average workload R̄ of each sub-instance
	// (the case-1/case-2 construction of §3.2, Fig. 5).
	AvgWork []float64
	// Objective records what was optimised.
	Objective Objective
	// Energy is the objective value at the solution: expected runtime
	// energy under greedy reclamation for ACS, worst-case energy for WCS.
	Energy float64
	// Sweeps is the number of coordinate-descent sweeps the solver used.
	// Under multi-start (Config.Starts > 1) it aggregates the sweeps of
	// every start — total optimisation work, not the winner's convergence
	// length.
	Sweeps int

	// Specialised evaluation parameters for the SimpleInverse power model
	// (the model every paper experiment runs on): evalStep is the solver's
	// innermost function, and devirtualising the two Model calls per step is
	// worth ~2x there. Populated by initFastModel; zero-valued schedules
	// fall back to the generic Model interface.
	fastOK                    bool
	fastK, fastVMin, fastVMax float64
	fastTcVMin, fastTcVMax    float64
}

// initFastModel caches the SimpleInverse parameters when the schedule's
// model is one, enabling the allocation- and interface-free evalStep path.
// The fast path computes the same quantities as the interface path with one
// division per step instead of three; results agree to within a few ulps
// (well inside every tolerance the solver and its verifier use).
func (s *Schedule) initFastModel() {
	if m, ok := s.Model.(*power.SimpleInverse); ok {
		s.fastOK = true
		s.fastK, s.fastVMin, s.fastVMax = m.K, m.Vmin, m.Vmax
		s.fastTcVMin, s.fastTcVMax = m.K/m.Vmin, m.K/m.Vmax
	}
}

// deriveAvgWork fills avg[pos] for every sub-instance position of the plan
// given worst-case splits wc, implementing the paper's case-1/case-2 rule:
// walk the instance's pieces in execution order, each executing
// min(remaining ACEC, R̂); later pieces run only the residue (possibly zero —
// they exist purely as worst-case reservations).
func deriveAvgWork(plan *preempt.Schedule, wc, avg []float64) {
	for idx := range plan.ByInstance {
		deriveAvgWorkInstance(plan, wc, avg, idx)
	}
}

// Retarget returns the worst-case schedule s bound to set, a task set that
// differs from s's own only in ACEC and BCEC. A WCS solve reads those
// fields only to fill the derived AvgWork: the plan expansion, the Vmax
// start, the WCWork-load objective and the sweeps see only periods, WCEC and
// Ceff. So for a WCS built without a warm start the result equals
// Build(set, cfg) field for field: the plan is a shallow copy with Set
// swapped, End, WCWork, Energy and Sweeps are shared, and AvgWork is
// re-derived from set's ACEC. ok is false for an
// AverageCase schedule, whose objective reads ACEC, and for a set that
// differs in anything else (names, periods, WCEC, Ceff or task count).
func (s *Schedule) Retarget(set *task.Set) (*Schedule, bool) {
	if s.Objective != WorstCase || set == nil || !task.SameWorstCase(s.Plan.Set, set) {
		return nil, false
	}
	plan := *s.Plan
	plan.Set = set
	out := *s
	out.Plan = &plan
	out.AvgWork = make([]float64, len(s.WCWork))
	deriveAvgWork(&plan, out.WCWork, out.AvgWork)
	return &out, true
}

// evalState carries the greedy-reclamation recursion so sweeps can resume
// evaluation mid-order (prefix caching).
type evalState struct {
	t      float64 // current time: actual finish of the previous piece
	energy float64 // accumulated energy
}

// evalStep advances the recursion across sub-instance pos executing `work`
// cycles with a worst-case budget wc[pos] ending at end[pos]. It mirrors the
// online dispatcher exactly: the runtime voltage is the lowest at which the
// *worst-case* budget would still meet the static end-time from the actual
// start (that is the deadline-safety contract), and the piece then runs only
// `work` cycles at that voltage, finishing early and donating slack. It
// returns the energy the piece added.
func (s *Schedule) evalStep(st *evalState, pos int, work float64) float64 {
	su := &s.Plan.Subs[pos]
	a := st.t
	if su.Release > a {
		a = su.Release
	}
	if s.WCWork[pos] <= deadWork || work <= 0 {
		return 0 // empty reservation or no actual work: no time, no energy
	}
	var v float64
	if s.fastOK {
		// Inlined SimpleInverse VoltageForWindow + CycleTime, reformulated
		// around the cycle time so the common (unclamped) case needs two
		// divisions and the clamped cases one.
		window := s.End[pos] - a
		var tc float64
		if window <= 0 {
			v, tc = s.fastVMax, s.fastTcVMax
		} else if tc = window / s.WCWork[pos]; tc > s.fastTcVMin {
			v, tc = s.fastVMin, s.fastTcVMin
		} else if tc < s.fastTcVMax {
			v, tc = s.fastVMax, s.fastTcVMax
		} else {
			v = s.fastK / tc
		}
		inc := pieceEnergy(s.Plan.Set.Tasks[su.TaskIndex].Ceff, v, work)
		st.energy += inc
		st.t = a + work*tc
		return inc
	}
	v, _ = power.VoltageForWindow(s.Model, s.WCWork[pos], s.End[pos]-a)
	inc := pieceEnergy(s.Plan.Set.Tasks[su.TaskIndex].Ceff, v, work)
	st.energy += inc
	st.t = a + work*s.Model.CycleTime(v)
	return inc
}

// evalFrom runs the recursion over positions [from, len) using workloads
// `loads` (AvgWork for the ACS objective, WCWork for WCS) starting from st.
func (s *Schedule) evalFrom(st evalState, from int, loads []float64) evalState {
	for pos := from; pos < len(s.Plan.Subs); pos++ {
		s.evalStep(&st, pos, loads[pos])
	}
	return st
}

// ObjectiveEnergy recomputes the schedule's objective value from scratch.
func (s *Schedule) ObjectiveEnergy() float64 {
	loads := s.AvgWork
	if s.Objective == WorstCase {
		loads = s.WCWork
	}
	return s.evalFrom(evalState{}, 0, loads).energy
}

// EnergyUnder evaluates the schedule's greedy-reclamation runtime energy
// when every instance of every task consumes the given actual cycle counts.
// actual is indexed by instance index (plan.Instances order); each
// instance's cycles are consumed across its pieces in execution order, up to
// each piece's worst-case budget. It returns the energy and the worst
// deadline overshoot in ms (0 when all deadlines hold). A dead reservation
// (WCWork ≤ DeadWork) still consumes its sliver of cycles but never runs, so
// it has no deadline to meet (DESIGN.md §2).
func (s *Schedule) EnergyUnder(actual []float64) (energy, worstOvershoot float64, err error) {
	if len(actual) != len(s.Plan.Instances) {
		return 0, 0, fmt.Errorf("core: got %d actual workloads for %d instances",
			len(actual), len(s.Plan.Instances))
	}
	remaining := append([]float64(nil), actual...)
	var st evalState
	for pos := range s.Plan.Subs {
		su := &s.Plan.Subs[pos]
		w := min(remaining[su.InstanceIndex], s.WCWork[pos])
		remaining[su.InstanceIndex] -= w
		if w <= 0 || s.WCWork[pos] <= deadWork {
			continue // empty piece or dead reservation: executes nothing
		}
		s.evalStep(&st, pos, w)
		if over := st.t - su.Deadline; over > worstOvershoot {
			worstOvershoot = over
		}
	}
	return st.energy, worstOvershoot, nil
}

// DeadWork is the workload threshold below which a sub-instance counts as an
// empty reservation: the worst case provably never executes it, so the
// deadline and chaining constraints are vacuous for it (see the package
// comment on the zero-budget relaxation). The online compiler (internal/sim)
// shares this threshold so solver and simulator agree about which pieces are
// dead.
const DeadWork = 1e-9

// deadWork is the internal alias the solver's hot paths use.
const deadWork = DeadWork

// Verify checks every constraint of the reduced NLP at the stored solution:
// deadline bounds (7), worst-case chaining at Vmax (9), non-negative splits
// summing to WCEC (11)–(12), and that the all-WCEC execution meets every
// deadline. Zero-budget sub-instances are exempt from (7) and (9): they
// never execute, so only work-bearing pieces form the worst-case chain.
// tol is an absolute time tolerance in ms (1e-6 is appropriate for
// millisecond-scale schedules).
func (s *Schedule) Verify(tol float64) error {
	n := len(s.Plan.Subs)
	if len(s.End) != n || len(s.WCWork) != n || len(s.AvgWork) != n {
		return fmt.Errorf("core: schedule arrays have inconsistent lengths")
	}
	tcMax := s.Model.CycleTime(s.Model.VMax())
	prevEnd := 0.0 // end of the last work-bearing piece
	for pos := 0; pos < n; pos++ {
		su := &s.Plan.Subs[pos]
		if s.WCWork[pos] < -tol {
			return fmt.Errorf("core: sub %d has negative worst-case workload %g", pos, s.WCWork[pos])
		}
		if s.AvgWork[pos] < -tol || s.AvgWork[pos] > s.WCWork[pos]+tol {
			return fmt.Errorf("core: sub %d average workload %g outside [0, %g]",
				pos, s.AvgWork[pos], s.WCWork[pos])
		}
		if s.WCWork[pos] <= deadWork {
			continue // empty reservation: constraints vacuous
		}
		if s.End[pos] > su.Deadline+tol {
			return fmt.Errorf("core: sub %d end %g violates deadline %g", pos, s.End[pos], su.Deadline)
		}
		start := max(prevEnd, su.Release)
		if need := s.WCWork[pos] * tcMax; s.End[pos]-start < need-tol {
			return fmt.Errorf("core: sub %d worst-case chain violated: window %g < %g at Vmax",
				pos, s.End[pos]-start, need)
		}
		prevEnd = s.End[pos]
	}
	for idx, positions := range s.Plan.ByInstance {
		var sum float64
		for _, pos := range positions {
			sum += s.WCWork[pos]
		}
		wcec := s.Plan.Set.Tasks[s.Plan.Instances[idx].TaskIndex].WCEC
		if math.Abs(sum-wcec) > tol+1e-9*wcec {
			return fmt.Errorf("core: instance %d splits sum to %g, want WCEC %g", idx, sum, wcec)
		}
	}
	// All-WCEC execution must meet all deadlines (the safety property the
	// motivational example shows naive end-time choices violate).
	wcActual := make([]float64, len(s.Plan.Instances))
	for idx := range wcActual {
		wcActual[idx] = s.Plan.Set.Tasks[s.Plan.Instances[idx].TaskIndex].WCEC
	}
	if _, over, err := s.EnergyUnder(wcActual); err != nil {
		return err
	} else if over > tol {
		return fmt.Errorf("core: all-WCEC execution overshoots a deadline by %g ms", over)
	}
	return nil
}

// RuntimeVoltages returns, for a given actual per-instance workload vector,
// the voltage each sub-instance runs at under greedy reclamation, aligned
// with the plan's total order. Pieces that execute zero cycles report 0.
// Used by trace output and by the discrete-level ablation.
func (s *Schedule) RuntimeVoltages(actual []float64) ([]float64, error) {
	if len(actual) != len(s.Plan.Instances) {
		return nil, fmt.Errorf("core: got %d actual workloads for %d instances",
			len(actual), len(s.Plan.Instances))
	}
	remaining := append([]float64(nil), actual...)
	volts := make([]float64, len(s.Plan.Subs))
	var st evalState
	for pos := range s.Plan.Subs {
		su := &s.Plan.Subs[pos]
		w := min(remaining[su.InstanceIndex], s.WCWork[pos])
		remaining[su.InstanceIndex] -= w
		if s.WCWork[pos] > 0 && w > 0 {
			a := max(st.t, su.Release)
			v, _ := power.VoltageForWindow(s.Model, s.WCWork[pos], s.End[pos]-a)
			volts[pos] = v
		}
		s.evalStep(&st, pos, w)
	}
	return volts, nil
}
