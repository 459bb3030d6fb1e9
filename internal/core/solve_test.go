package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// newScratch builds an un-optimised schedule shell with proportional splits
// for white-box tests of the chain passes.
func newScratch(t *testing.T, set *task.Set) *Schedule {
	t.Helper()
	plan, err := preempt.Build(set)
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.Subs)
	s := &Schedule{
		Plan:    plan,
		Model:   power.DefaultModel(),
		End:     make([]float64, n),
		WCWork:  make([]float64, n),
		AvgWork: make([]float64, n),
	}
	s.proportionalSplits()
	deriveAvgWork(plan, s.WCWork, s.AvgWork)
	return s
}

// TestAsapAlapOrdering: for feasible sets with proportional splits, the ASAP
// chain never exceeds the ALAP chain at any work-bearing position.
func TestAsapAlapOrdering(t *testing.T) {
	rng := stats.NewRNG(60)
	for trial := 0; trial < 20; trial++ {
		set, err := workload.RandomFeasible(rng, workload.RandomConfig{
			N: 4, Ratio: 0.5, Utilization: 0.6,
		}, 50, func(s *task.Set) bool { return Feasible(s, Config{}) == nil })
		if err != nil {
			t.Fatal(err)
		}
		s := newScratch(t, set)
		asap, err := s.asapEnds(make([]float64, len(s.Plan.Subs)))
		if err != nil {
			continue // proportional splits can be chain-infeasible; fine
		}
		alap := s.alapEnds(make([]float64, len(s.Plan.Subs)))
		for pos := range asap {
			if s.WCWork[pos] <= deadWork {
				continue
			}
			if alap[pos] < asap[pos]-1e-9 {
				t.Fatalf("trial %d pos %d: ALAP %g < ASAP %g", trial, pos, alap[pos], asap[pos])
			}
			if alap[pos] > s.Plan.Subs[pos].Deadline+1e-9 {
				t.Fatalf("trial %d pos %d: ALAP %g past deadline %g",
					trial, pos, alap[pos], s.Plan.Subs[pos].Deadline)
			}
		}
	}
}

// TestProportionalSplitsConserve: proportional splits sum to WCEC and are
// all strictly positive (every piece stays alive).
func TestProportionalSplitsConserve(t *testing.T) {
	rng := stats.NewRNG(61)
	set, err := workload.Random(rng, workload.RandomConfig{N: 5, Ratio: 0.5, Utilization: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	s := newScratch(t, set)
	for idx, positions := range s.Plan.ByInstance {
		var sum float64
		for _, pos := range positions {
			if s.WCWork[pos] <= 0 {
				t.Fatalf("proportional split %d is not positive", pos)
			}
			sum += s.WCWork[pos]
		}
		wcec := set.Tasks[s.Plan.Instances[idx].TaskIndex].WCEC
		if math.Abs(sum-wcec) > 1e-9*wcec {
			t.Fatalf("instance %d proportional splits sum %g != %g", idx, sum, wcec)
		}
	}
}

// TestRMSplitsConserveProperty: the RM-execution splits conserve WCEC for
// every instance on feasible random sets.
func TestRMSplitsConserveProperty(t *testing.T) {
	if err := quick.Check(func(seedRaw uint16) bool {
		rng := stats.NewRNG(uint64(seedRaw) + 7)
		set, err := workload.RandomFeasible(rng, workload.RandomConfig{
			N: 5, Ratio: 0.5, Utilization: 0.7,
		}, 50, func(s *task.Set) bool { return Feasible(s, Config{}) == nil })
		if err != nil {
			return true
		}
		s, err := Build(set, Config{Objective: WorstCase, MaxSweeps: 1})
		if err != nil {
			return false
		}
		// Re-run the RM splits on the solved shell and check conservation.
		if err := s.rmVmaxSplits(); err != nil {
			return false
		}
		for idx, positions := range s.Plan.ByInstance {
			var sum float64
			for _, pos := range positions {
				if s.WCWork[pos] < 0 {
					return false
				}
				sum += s.WCWork[pos]
			}
			wcec := set.Tasks[s.Plan.Instances[idx].TaskIndex].WCEC
			if math.Abs(sum-wcec) > 1e-6*wcec {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestScenarioLoadsConservation: every scenario's per-piece loads sum to the
// scenario's instance cycles, and never exceed the worst-case budgets.
func TestScenarioLoadsConservation(t *testing.T) {
	set := feasibleRandom(t, 62, 4, 0.1)
	s, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	sc := s.buildScenarios(6, 17)
	for k := range sc.loads {
		for idx, positions := range s.Plan.ByInstance {
			var sum float64
			for _, pos := range positions {
				if sc.loads[k][pos] > s.WCWork[pos]+1e-9 {
					t.Fatalf("scenario %d pos %d load %g exceeds budget %g",
						k, pos, sc.loads[k][pos], s.WCWork[pos])
				}
				sum += sc.loads[k][pos]
			}
			if math.Abs(sum-sc.cycles[k][idx]) > 1e-9*(1+sc.cycles[k][idx]) {
				t.Fatalf("scenario %d instance %d loads sum %g != cycles %g",
					k, idx, sum, sc.cycles[k][idx])
			}
			tk := set.Tasks[s.Plan.Instances[idx].TaskIndex]
			if sc.cycles[k][idx] < tk.BCEC-1e-9 || sc.cycles[k][idx] > tk.WCEC+1e-9 {
				t.Fatalf("scenario cycles %g outside [BCEC, WCEC]", sc.cycles[k][idx])
			}
		}
	}
}

// TestObjEvalPrefixConsistency: energyFrom(0) equals full() for any mix of
// load sets — the cache machinery must not change the value.
func TestObjEvalPrefixConsistency(t *testing.T) {
	set := feasibleRandom(t, 63, 4, 0.3)
	s, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Plan.Subs)
	for _, sc := range []*scenarioSet{nil, s.buildScenarios(3, 5)} {
		var ev objEval
		ev.reset(s, sc)
		if a, b := ev.energyFrom(0, n), ev.full(); math.Abs(a-b) > 1e-9*(1+b) {
			t.Errorf("energyFrom(0)=%g != full()=%g", a, b)
		}
		// Mid-order evaluation after advancing must also agree.
		mid := n / 2
		for pos := 0; pos < mid; pos++ {
			ev.advance(pos)
		}
		if a, b := ev.energyFrom(mid, n), ev.full(); math.Abs(a-b) > 1e-9*(1+b) {
			t.Errorf("energyFrom(mid)=%g != full()=%g", a, b)
		}
		// The suffix memo must not change values beyond float re-association:
		// with a stable suffix from mid on, the memoised walk must agree with
		// the full re-evaluation to near machine precision.
		if a, b := ev.energyFrom(mid, mid), ev.energyFrom(mid, n); math.Abs(a-b) > 1e-12*(1+b) {
			t.Errorf("memoised energyFrom(mid)=%g != plain %g", a, b)
		}
	}
}

// rippleRef is sweepPush's ripple as it was before the early stop: it
// repairs the chain all the way to the end of the order.
func rippleRef(s *Schedule, pos int, e, tcMax float64) (lastMod int, ok bool) {
	s.End[pos] = e
	lastMod = pos
	prev := e
	for q := pos + 1; q < len(s.End); q++ {
		if s.WCWork[q] <= deadWork {
			continue
		}
		loQ := math.Max(prev, s.Plan.Subs[q].Release) + s.WCWork[q]*tcMax
		if s.End[q] < loQ {
			if loQ > s.Plan.Subs[q].Deadline+1e-9 {
				return lastMod, false
			}
			s.End[q] = loQ
			lastMod = q
		}
		prev = s.End[q]
	}
	return lastMod, true
}

// TestRippleStopMatchesFullRipple: sweepPush's ripple stops at the first
// unmoved work-bearing piece past settledAfter. On solved schedules with
// chain shortfalls injected — down to the single ulp float rounding leaves
// behind — the stopped ripple must move exactly the ends rippleRef moves, to
// the same bits, and report the same lastMod and deadline verdict.
func TestRippleStopMatchesFullRipple(t *testing.T) {
	for k := 1; k <= 4; k++ {
		s, err := Build(splitSet(t, 66, k, 4, 0.5), Config{Objective: WorstCase})
		if err != nil {
			t.Fatal(err)
		}
		tcMax := s.Model.CycleTime(s.Model.VMax())
		var alive []int
		for pos := range s.End {
			if s.WCWork[pos] > deadWork {
				alive = append(alive, pos)
			}
		}
		solved := append([]float64(nil), s.End...)
		rng := stats.NewRNG(uint64(k))
		for probe := 0; probe < 400; probe++ {
			copy(s.End, solved)
			for j := rng.Intn(4); j > 0; j-- {
				a := 1 + rng.Intn(len(alive)-1)
				q, prev := alive[a], alive[a-1]
				s.End[q] = math.Nextafter(s.chainLo(s.End[prev], q, tcMax), math.Inf(-1))
				if rng.Intn(2) == 0 {
					s.End[q] -= rng.Float64() * 1e-3
				}
			}
			pos := alive[rng.Intn(len(alive))]
			e := s.End[pos] + (2*rng.Float64()-1)*math.Pow(10, -float64(rng.Intn(6)))
			injected := append([]float64(nil), s.End...)

			lastMod, ok := s.ripple(pos, e, s.settledAfter(pos, tcMax), tcMax)
			stopped := append([]float64(nil), s.End...)
			copy(s.End, injected)
			wantLast, wantOK := rippleRef(s, pos, e, tcMax)
			if lastMod != wantLast || ok != wantOK {
				t.Fatalf("set %d probe %d: stopped ripple (lastMod %d, ok %v), full ripple (%d, %v)",
					k, probe, lastMod, ok, wantLast, wantOK)
			}
			for q := range stopped {
				if math.Float64bits(stopped[q]) != math.Float64bits(s.End[q]) {
					t.Fatalf("set %d probe %d: end %d is %v after the stopped ripple, %v after the full one",
						k, probe, q, stopped[q], s.End[q])
				}
			}
		}
	}
}
