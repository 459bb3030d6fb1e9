package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

func feasibleRandom(t *testing.T, seed uint64, n int, ratio float64) *task.Set {
	t.Helper()
	rng := stats.NewRNG(seed)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: n, Ratio: ratio, Utilization: 0.7,
	}, 50, func(s *task.Set) bool { return Feasible(s, Config{}) == nil })
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestScheduleVerifies: every solved schedule passes its own Verify — both
// objectives, multiple seeds and ratios.
func TestScheduleVerifies(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, ratio := range []float64{0.1, 0.9} {
			set := feasibleRandom(t, seed, 4, ratio)
			for _, obj := range []Objective{AverageCase, WorstCase} {
				s, err := Build(set, Config{Objective: obj})
				if err != nil {
					t.Fatalf("seed %d ratio %g %v: %v", seed, ratio, obj, err)
				}
				if err := s.Verify(1e-6); err != nil {
					t.Errorf("seed %d ratio %g %v: %v", seed, ratio, obj, err)
				}
			}
		}
	}
}

// TestSplitsSumToWCEC (paper eq. (11)–(12)): worst-case splits of every
// instance sum exactly to the task's WCEC.
func TestSplitsSumToWCEC(t *testing.T) {
	set := feasibleRandom(t, 5, 5, 0.1)
	s, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	for idx, positions := range s.Plan.ByInstance {
		var sum float64
		for _, pos := range positions {
			sum += s.WCWork[pos]
		}
		wcec := set.Tasks[s.Plan.Instances[idx].TaskIndex].WCEC
		if math.Abs(sum-wcec) > 1e-6*wcec {
			t.Errorf("instance %d: splits sum %g, WCEC %g", idx, sum, wcec)
		}
	}
}

// TestAvgWorkCaseRule (paper §3.2, Fig. 5): pieces fill with ACEC in
// execution order — each piece takes min(remaining, R̂); the total equals
// ACEC; later pieces may be pure reservations with zero average work.
func TestAvgWorkCaseRule(t *testing.T) {
	set := feasibleRandom(t, 6, 5, 0.1)
	s, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	for idx, positions := range s.Plan.ByInstance {
		tk := set.Tasks[s.Plan.Instances[idx].TaskIndex]
		remaining := tk.ACEC
		var total float64
		for _, pos := range positions {
			want := math.Min(remaining, s.WCWork[pos])
			if math.Abs(s.AvgWork[pos]-want) > 1e-9*(1+tk.ACEC) {
				t.Fatalf("instance %d pos %d: avg %g, want %g", idx, pos, s.AvgWork[pos], want)
			}
			remaining -= want
			total += s.AvgWork[pos]
		}
		if math.Abs(total-tk.ACEC) > 1e-6*tk.ACEC {
			t.Errorf("instance %d: avg sums to %g, ACEC %g", idx, total, tk.ACEC)
		}
	}
}

// TestWorstCaseExecutionMeetsDeadlines: the guarantee the whole paper hinges
// on — under all-WCEC draws, the solved ACS schedule misses nothing.
func TestWorstCaseExecutionMeetsDeadlines(t *testing.T) {
	for _, seed := range []uint64{7, 8, 9, 10} {
		set := feasibleRandom(t, seed, 6, 0.1)
		s, err := Build(set, Config{Objective: AverageCase})
		if err != nil {
			t.Fatal(err)
		}
		wc := make([]float64, len(s.Plan.Instances))
		for i, in := range s.Plan.Instances {
			wc[i] = set.Tasks[in.TaskIndex].WCEC
		}
		if _, over, err := s.EnergyUnder(wc); err != nil {
			t.Fatal(err)
		} else if over > 1e-9 {
			t.Errorf("seed %d: worst case overshoots by %g ms", seed, over)
		}
	}
}

// TestACSBeatsWCSOnAvgObjective: with warm start, ACS's average-case energy
// never exceeds the WCS schedule's (the WCS solution is ACS-feasible).
func TestACSBeatsWCSOnAvgObjective(t *testing.T) {
	for _, seed := range []uint64{11, 12, 13} {
		set := feasibleRandom(t, seed, 6, 0.1)
		wcs, err := Build(set, Config{Objective: WorstCase})
		if err != nil {
			t.Fatal(err)
		}
		acs, err := Build(set, Config{Objective: AverageCase, WarmStart: wcs})
		if err != nil {
			t.Fatal(err)
		}
		wcsAvg := CloneSchedule(wcs)
		wcsAvg.Objective = AverageCase
		if acs.Energy > wcsAvg.ObjectiveEnergy()*(1+1e-9) {
			t.Errorf("seed %d: ACS %g > WCS-as-avg %g", seed, acs.Energy, wcsAvg.ObjectiveEnergy())
		}
	}
}

// TestWCSNotBelowYDS: the WCS worst-case energy is bounded below by the YDS
// optimum for the same jobs (YDS relaxes fixed priorities to EDF and allows
// arbitrary preemption, so it can only do better). Guards against the solver
// "cheating" its own energy accounting.
func TestWCSNotBelowYDS(t *testing.T) {
	set := feasibleRandom(t, 14, 4, 0.5)
	wcs, err := Build(set, Config{Objective: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	lower := ydsLowerBound(t, set)
	if wcs.Energy < lower*(1-1e-6) {
		t.Errorf("WCS energy %g below YDS lower bound %g", wcs.Energy, lower)
	}
}

// ydsLowerBound computes the YDS optimal energy without importing the yds
// package (which would be an import cycle through experiments): it re-uses
// the classic two-point check on the critical-interval structure via the
// penalty NLP instead. To stay simple it returns the uniform-speed energy
// lower bound: running the total worst-case work at the single speed that
// exactly fills the busiest prefix is a valid lower bound for convex power.
func ydsLowerBound(t *testing.T, set *task.Set) float64 {
	t.Helper()
	m := power.DefaultModel()
	h, err := set.Hyperperiod()
	if err != nil {
		t.Fatal(err)
	}
	var work float64
	for _, tk := range set.Tasks {
		work += tk.WCEC * float64(h/tk.Period)
	}
	// Jensen: for E ∝ V² with t ∝ 1/V, spreading all work uniformly over
	// the hyper-period minimises energy over any schedule of that work.
	v := m.VoltageForCycleTime(float64(h) / work)
	return power.Energy(1, v, work)
}

// TestDeterministicSolve: same inputs, same schedule, bit for bit.
func TestDeterministicSolve(t *testing.T) {
	set := feasibleRandom(t, 15, 4, 0.3)
	a, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.End {
		if a.End[i] != b.End[i] || a.WCWork[i] != b.WCWork[i] {
			t.Fatal("solver is not deterministic")
		}
	}
}

// TestMoreSweepsNeverWorse: increasing the sweep budget cannot worsen the
// objective (descent property).
func TestMoreSweepsNeverWorse(t *testing.T) {
	set := feasibleRandom(t, 16, 5, 0.1)
	prev := math.Inf(1)
	for _, sweeps := range []int{2, 10, 40} {
		s, err := Build(set, Config{Objective: AverageCase, MaxSweeps: sweeps, Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if s.Energy > prev*(1+1e-9) {
			t.Errorf("objective rose from %g to %g at %d sweeps", prev, s.Energy, sweeps)
		}
		prev = s.Energy
	}
}

// TestInfeasibleSetRejected: utilisation above 1 at Vmax cannot be
// scheduled and must be reported, not silently mangled. Every build over
// such a set — either objective, single- or multi-start — fails with the
// *InfeasibleError Feasible reports, text for text, which is what lets a
// server use the WCS build as its admission check.
func TestInfeasibleSetRejected(t *testing.T) {
	tasks := []task.Task{
		{Name: "a", Period: 10, WCEC: 30, ACEC: 15, BCEC: 5, Ceff: 1},
		{Name: "b", Period: 10, WCEC: 30, ACEC: 15, BCEC: 5, Ceff: 1},
	}
	set, err := task.NewSet(tasks)
	if err != nil {
		t.Fatal(err)
	}
	// U = 60 cycles per 10ms at max rate 4/ms = 40 cycles per 10ms: U=1.5.
	ferr := Feasible(set, Config{})
	var inf *InfeasibleError
	if !errors.As(ferr, &inf) {
		t.Fatalf("Feasible returned %v, want an *InfeasibleError", ferr)
	}
	for _, cfg := range []Config{{Objective: WorstCase}, {Objective: AverageCase}, {Objective: WorstCase, Starts: 3}} {
		_, err := Build(set, cfg)
		if !errors.As(err, &inf) || err.Error() != ferr.Error() {
			t.Errorf("Build(%v, starts %d) = %v, want the *InfeasibleError %q",
				cfg.Objective, cfg.Starts, err, ferr)
		}
	}
}

// TestSingleTaskOptimal: one task, one instance — the optimal end-time is
// the deadline, and the objective matches the closed-form energy.
func TestSingleTaskOptimal(t *testing.T) {
	m, err := power.NewSimpleInverse(1, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	set, err := task.NewSet([]task.Task{{Name: "x", Period: 10, WCEC: 20, ACEC: 10, BCEC: 5, Ceff: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(set, Config{Objective: AverageCase, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.End[0]-10) > 1e-3 {
		t.Errorf("single-task end %g, want 10", s.End[0])
	}
	// V = 20 cycles / 10 ms = 2 V; E = 2²·10 executed cycles = 40.
	if math.Abs(s.Energy-40) > 0.1 {
		t.Errorf("objective %g, want 40", s.Energy)
	}
}

// TestNonPreemptiveFrame: equal periods mean no preemption; the plan has
// one piece per instance and the solver matches the motivational example's
// structure (already validated numerically in internal/experiments).
func TestNonPreemptiveFrame(t *testing.T) {
	set, err := task.NewSet([]task.Task{
		{Name: "a", Period: 20, WCEC: 20, ACEC: 10, BCEC: 5, Ceff: 1},
		{Name: "b", Period: 20, WCEC: 20, ACEC: 10, BCEC: 5, Ceff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Plan.Subs) != 2 {
		t.Fatalf("%d pieces, want 2", len(s.Plan.Subs))
	}
}

// TestWarmStartNeverHurts: a warm-started solve is never worse than the
// cold solve on the same objective.
func TestWarmStartNeverHurts(t *testing.T) {
	for _, seed := range []uint64{21, 22, 23} {
		set := feasibleRandom(t, seed, 6, 0.1)
		cold, err := Build(set, Config{Objective: AverageCase})
		if err != nil {
			t.Fatal(err)
		}
		wcs, err := Build(set, Config{Objective: WorstCase})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Build(set, Config{Objective: AverageCase, WarmStart: wcs})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Energy > cold.Energy*(1+1e-9) {
			t.Errorf("seed %d: warm %g > cold %g", seed, warm.Energy, cold.Energy)
		}
	}
}

// TestWarmStartIgnoresIncompatible: a warm start from a different plan
// shape must be ignored, not crash.
func TestWarmStartIgnoresIncompatible(t *testing.T) {
	setA := feasibleRandom(t, 24, 3, 0.5)
	setB := feasibleRandom(t, 25, 5, 0.5)
	ws, err := Build(setB, Config{Objective: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(setA, Config{Objective: AverageCase, WarmStart: ws}); err != nil {
		t.Errorf("incompatible warm start crashed the solve: %v", err)
	}
}

// TestVerifyCatchesCorruption: Verify must reject hand-corrupted schedules.
func TestVerifyCatchesCorruption(t *testing.T) {
	set := feasibleRandom(t, 26, 4, 0.5)
	base, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		name string
		mut  func(*Schedule)
	}{
		{"end past deadline", func(s *Schedule) { s.End[0] = s.Plan.Subs[0].Deadline + 1 }},
		{"negative split", func(s *Schedule) { s.WCWork[len(s.WCWork)-1] = -1 }},
		{"broken conservation", func(s *Schedule) { s.WCWork[0] *= 2 }},
		{"avg above wc", func(s *Schedule) { s.AvgWork[0] = s.WCWork[0] + 1 }},
		{"starved chain", func(s *Schedule) {
			// Find a work-bearing piece and pull its end below the
			// minimum execution time.
			for pos := range s.WCWork {
				if s.WCWork[pos] > 1 {
					s.End[pos] = math.Max(0, s.Plan.Subs[pos].Release+1e-6)
					return
				}
			}
		}},
	}
	for _, c := range corruptions {
		s := CloneSchedule(base)
		c.mut(s)
		if err := s.Verify(1e-6); err == nil {
			t.Errorf("%s: Verify accepted the corruption", c.name)
		}
	}
}

// TestNLPCrossCheckSmall: on a small instance, the reference solvers agree
// with coordinate descent to within a few percent (they are weaker
// optimisers, so they may be slightly worse — never meaningfully better).
func TestNLPCrossCheckSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("reference solvers are slow")
	}
	set := feasibleRandom(t, 27, 3, 0.5)
	wcs, err := Build(set, Config{Objective: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	acs, err := Build(set, Config{Objective: AverageCase, WarmStart: wcs})
	if err != nil {
		t.Fatal(err)
	}

	nm := CloneSchedule(acs)
	nmObj, err := NewNLP(nm).SolveNelderMead(opt.NelderMeadOptions{MaxEvals: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if nmObj < acs.Energy*(1-0.05) {
		t.Errorf("Nelder-Mead found %g, 5%%+ better than CD's %g — CD is under-converged", nmObj, acs.Energy)
	}

	pen := CloneSchedule(acs)
	penObj, viol, err := NewNLP(pen).SolvePenalty(opt.PenaltyOptions{Rounds: 3, StepIters: 80}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if viol <= 1e-3 && penObj < acs.Energy*(1-0.05) {
		t.Errorf("penalty solver found %g, 5%%+ better than CD's %g", penObj, acs.Energy)
	}
}

// TestNLPPackUnpackRoundTrip: the flat-vector view is lossless.
func TestNLPPackUnpackRoundTrip(t *testing.T) {
	set := feasibleRandom(t, 28, 3, 0.5)
	s, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	p := NewNLP(CloneSchedule(s))
	x := p.Pack()
	if len(x) != p.Dim() {
		t.Fatalf("Pack length %d != Dim %d", len(x), p.Dim())
	}
	if err := p.Unpack(x); err != nil {
		t.Fatal(err)
	}
	y := p.Pack()
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("round trip changed the vector")
		}
	}
	if err := p.Unpack(x[:3]); err == nil {
		t.Error("short vector accepted")
	}
	// The NLP objective at the packed point equals the schedule's energy.
	if obj := p.Objective(x); math.Abs(obj-s.Energy) > 1e-9*s.Energy {
		t.Errorf("NLP objective %g != schedule energy %g", obj, s.Energy)
	}
	if v := opt.MaxViolation(p.Constraints(), x); v > 1e-6 {
		t.Errorf("solved schedule violates its own NLP constraints by %g", v)
	}
}

// TestPropertySolvedSchedulesValid is the big property test: random
// feasible sets at random ratios solve, verify, conserve workload, and meet
// worst-case deadlines.
func TestPropertySolvedSchedulesValid(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	if err := quick.Check(func(seedRaw uint16, nRaw, ratioRaw uint8) bool {
		n := int(nRaw%6) + 1
		ratio := float64(ratioRaw%10) / 10
		rng := stats.NewRNG(uint64(seedRaw) + 1)
		set, err := workload.RandomFeasible(rng, workload.RandomConfig{
			N: n, Ratio: ratio, Utilization: 0.7,
		}, 50, func(s *task.Set) bool { return Feasible(s, Config{}) == nil })
		if err != nil {
			return true // generation failed; nothing to check
		}
		s, err := Build(set, Config{Objective: AverageCase, MaxSweeps: 6})
		if err != nil {
			return false
		}
		if err := s.Verify(1e-6); err != nil {
			return false
		}
		wc := make([]float64, len(s.Plan.Instances))
		for i, in := range s.Plan.Instances {
			wc[i] = set.Tasks[in.TaskIndex].WCEC
		}
		_, over, err := s.EnergyUnder(wc)
		return err == nil && over <= 1e-9
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRuntimeVoltagesWithinRange: every executing piece's runtime voltage
// lies inside the model's range.
func TestRuntimeVoltagesWithinRange(t *testing.T) {
	set := feasibleRandom(t, 30, 5, 0.1)
	s, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	avg := make([]float64, len(s.Plan.Instances))
	for i, in := range s.Plan.Instances {
		avg[i] = set.Tasks[in.TaskIndex].ACEC
	}
	volts, err := s.RuntimeVoltages(avg)
	if err != nil {
		t.Fatal(err)
	}
	for pos, v := range volts {
		if v == 0 {
			continue // piece executed nothing
		}
		if v < s.Model.VMin()-1e-12 || v > s.Model.VMax()+1e-12 {
			t.Errorf("piece %d voltage %g outside [%g, %g]", pos, v, s.Model.VMin(), s.Model.VMax())
		}
	}
}

// TestRMSplitsMatchPreemptiveExecution: on a hand-checkable two-task set
// the RM-simulation splits are exactly the classic preemptive trace.
func TestRMSplitsMatchPreemptiveExecution(t *testing.T) {
	// hi: P=10, WCEC=20 (5 ms at Vmax=4). lo: P=20, WCEC=20.
	// RM at Vmax: hi [0,5), lo [5,10)+[10,12.5)... lo's window [0,20) is cut
	// at 10 → two pieces. In [0,10): hi takes 5ms (20 cycles), lo gets the
	// next 5ms = 20 cycles → all of lo's work lands in piece 0.
	set, err := task.NewSet([]task.Task{
		{Name: "hi", Period: 10, WCEC: 20, ACEC: 10, BCEC: 5, Ceff: 1},
		{Name: "lo", Period: 20, WCEC: 20, ACEC: 10, BCEC: 5, Ceff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := preempt.Build(set)
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{
		Plan:    plan,
		Model:   power.DefaultModel(),
		End:     make([]float64, len(plan.Subs)),
		WCWork:  make([]float64, len(plan.Subs)),
		AvgWork: make([]float64, len(plan.Subs)),
	}
	if err := s.rmVmaxSplits(); err != nil {
		t.Fatal(err)
	}
	for pos, su := range plan.Subs {
		id := su.ID(set)
		want := map[string]float64{
			"hi,0,0": 20, "hi,1,0": 20, "lo,0,0": 20, "lo,0,1": 0,
		}[id]
		if math.Abs(s.WCWork[pos]-want) > 1e-9 {
			t.Errorf("%s: RM split %g, want %g", id, s.WCWork[pos], want)
		}
	}
}
