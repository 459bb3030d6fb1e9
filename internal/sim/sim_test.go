package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

func buildPair(t *testing.T, seed uint64, n int, ratio float64) (*core.Schedule, *core.Schedule) {
	t.Helper()
	rng := stats.NewRNG(seed)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: n, Ratio: ratio, Utilization: 0.7,
	}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		t.Fatal(err)
	}
	wcs, err := core.Build(set, core.Config{Objective: core.WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	acs, err := core.Build(set, core.Config{Objective: core.AverageCase, WarmStart: wcs})
	if err != nil {
		t.Fatal(err)
	}
	return acs, wcs
}

func TestRunDeterminism(t *testing.T) {
	acs, _ := buildPair(t, 1, 4, 0.3)
	a, err := Run(acs, Config{Hyperperiods: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(acs, Config{Hyperperiods: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy || a.Switches != b.Switches {
		t.Error("identical seeds produced different results")
	}
	c, err := Run(acs, Config{Hyperperiods: 50, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy == c.Energy {
		t.Error("different seeds produced identical energy")
	}
}

// TestWorkersDeterminism is the determinism contract of the parallel
// hyper-period engine: the full Result — energy, per-hyper-period summary,
// switch counts, everything — is bit-identical for any worker count (same
// shape as core's multi-start determinism test).
func TestWorkersDeterminism(t *testing.T) {
	acs, wcs := buildPair(t, 1, 4, 0.3)
	cfgs := map[string]Config{
		"greedy":   {Policy: Greedy, Hyperperiods: 50, Seed: 9},
		"static":   {Policy: Static, Hyperperiods: 50, Seed: 9},
		"nodvs":    {Policy: NoDVS, Hyperperiods: 50, Seed: 9},
		"overhead": {Policy: Greedy, Hyperperiods: 50, Seed: 9, Overhead: Overhead{TimeMs: 0.01, EnergyPerSwitch: 0.5, Epsilon: 0.01}},
	}
	for name, cfg := range cfgs {
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			c := cfg
			c.Workers = workers
			r, err := Run(acs, c)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = r
			} else if !reflect.DeepEqual(ref, r) {
				t.Errorf("%s: Workers=%d result differs from Workers=1:\n%+v\nvs\n%+v", name, workers, ref, r)
			}
		}
	}
	// Compare (concurrent a/b runs) inherits the same contract.
	var refImp float64
	for i, workers := range []int{1, 4} {
		imp, _, _, err := Compare(acs, wcs, Config{Hyperperiods: 40, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refImp = imp
		} else if imp != refImp {
			t.Errorf("Compare at Workers=%d gave %g, want %g", workers, imp, refImp)
		}
	}
}

// TestCompiledMatchesReference cross-checks the compiled dispatcher — the
// SimpleInverse-specialised fast path and the precomputed Static/NoDVS
// voltages — against the generic per-piece power.Model path, bit for bit, on
// both model families and under all three slack policies.
func TestCompiledMatchesReference(t *testing.T) {
	alpha, err := power.NewAlpha(1.0, 0.4, 1.5, 0.7, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]power.Model{
		"simpleinverse": power.DefaultModel(),
		"alpha":         alpha,
	}
	for mName, m := range models {
		rng := stats.NewRNG(31)
		set, err := workload.RandomFeasible(rng, workload.RandomConfig{
			N: 4, Ratio: 0.3, Utilization: 0.7, Model: m,
		}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{Model: m}) == nil })
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Build(set, core.Config{Objective: core.AverageCase, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []SlackPolicy{Greedy, Static, NoDVS} {
			for _, ov := range []Overhead{{}, {TimeMs: 0.01, EnergyPerSwitch: 0.5, Epsilon: 0.01}} {
				cfg := Config{Policy: pol, Hyperperiods: 30, Seed: 17, Overhead: ov, Workers: 4}
				compiled, err := Run(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.reference = true
				cfg.Workers = 1
				generic, err := Run(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(compiled, generic) {
					t.Errorf("%s/%v (overhead=%v): compiled path diverges from generic path:\n%+v\nvs\n%+v",
						mName, pol, ov.TimeMs > 0, compiled, generic)
				}
			}
		}
	}
}

// TestSwitchesFirstPieceFree pins the voltage-transition fix: establishing
// the initial operating point is not a switch, so a single-piece schedule
// never switches and is never charged transition overhead, no matter how
// many hyper-periods run.
func TestSwitchesFirstPieceFree(t *testing.T) {
	set, err := task.NewSet([]task.Task{
		{Name: "solo", Period: 10, WCEC: 8, ACEC: 5, BCEC: 2, Ceff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(set, core.Config{Objective: core.AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := Compile(s); len(p.wcWork) != 1 {
		t.Fatalf("single-task schedule compiled to %d pieces, want 1", len(p.wcWork))
	}
	base, err := Run(s, Config{Hyperperiods: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.Switches != 0 {
		t.Errorf("single-piece schedule counted %d switches, want 0", base.Switches)
	}
	withOv, err := Run(s, Config{Hyperperiods: 20, Seed: 4,
		Overhead: Overhead{TimeMs: 0.5, EnergyPerSwitch: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if withOv.Switches != 0 {
		t.Errorf("single-piece schedule charged %d switches under overhead, want 0", withOv.Switches)
	}
	if withOv.Energy != base.Energy {
		t.Errorf("overhead charged on the initial voltage: %g vs %g", withOv.Energy, base.Energy)
	}
}

// TestStaticWindowSkipsReservations pins the DESIGN.md §2 window rule: the
// static window of a piece starts at the end of its last *work-bearing*
// predecessor; pure reservations (zero worst-case budget) do not delimit it,
// even when their unconstrained end-times land late.
func TestStaticWindowSkipsReservations(t *testing.T) {
	set, err := task.NewSet([]task.Task{
		{Name: "hi", Period: 10, WCEC: 2, ACEC: 1, BCEC: 1, Ceff: 1},
		{Name: "lo", Period: 20, WCEC: 4, ACEC: 2, BCEC: 1, Ceff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := preempt.Build(set)
	if err != nil {
		t.Fatal(err)
	}
	// Total order: hi₁ [0,10), lo₁ piece 0 [0,10), hi₂ [10,20), lo₁ piece 1
	// [10,20). lo's first piece is a pure reservation (zero budget) whose
	// end-time is deliberately late (18 ms): the buggy window rule took it
	// as hi₂'s window start, clamping hi₂ to Vmax.
	if len(plan.Subs) != 4 {
		t.Fatalf("expansion has %d pieces, want 4", len(plan.Subs))
	}
	s := &core.Schedule{
		Plan:    plan,
		Model:   power.DefaultModel(),
		End:     []float64{8, 18, 14, 20},
		WCWork:  []float64{2, 0, 2, 4},
		AvgWork: []float64{1, 0, 1, 2},
	}
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	// Reservation dropped: 3 executable pieces with windows measured from
	// the last work-bearing end (8 for hi₂ — below its release 10).
	want := []float64{8, 4, 6}
	if !reflect.DeepEqual(p.staticWin, want) {
		t.Errorf("static windows %v, want %v", p.staticWin, want)
	}
}

// TestNoDeadlineMisses is the safety property: valid schedules never miss,
// under any distribution including always-WCEC.
func TestNoDeadlineMisses(t *testing.T) {
	dists := map[string]Distribution{
		"paper":   PaperDist,
		"uniform": UniformDist,
		"bimodal": BimodalDist,
		"wcec":    AlwaysWCECDist,
		"acec":    AlwaysACECDist,
	}
	for _, seed := range []uint64{2, 3, 4} {
		acs, wcs := buildPair(t, seed, 5, 0.1)
		for name, d := range dists {
			for _, s := range []*core.Schedule{acs, wcs} {
				r, err := Run(s, Config{Hyperperiods: 30, Seed: seed, Dist: d})
				if err != nil {
					t.Fatal(err)
				}
				if r.DeadlineMisses != 0 {
					t.Errorf("seed %d dist %s %v: %d misses (worst overshoot %g ms)",
						seed, name, s.Objective, r.DeadlineMisses, r.WorstOvershoot)
				}
			}
		}
	}
}

// TestGreedyNeverWorseThanStatic: reclaiming slack can only lower energy on
// this power model (voltage monotone in window).
func TestGreedyNeverWorseThanStatic(t *testing.T) {
	for _, seed := range []uint64{5, 6} {
		acs, wcs := buildPair(t, seed, 4, 0.1)
		for _, s := range []*core.Schedule{acs, wcs} {
			g, err := Run(s, Config{Policy: Greedy, Hyperperiods: 40, Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			st, err := Run(s, Config{Policy: Static, Hyperperiods: 40, Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			if g.Energy > st.Energy*(1+1e-9) {
				t.Errorf("seed %d %v: greedy %g > static %g", seed, s.Objective, g.Energy, st.Energy)
			}
		}
	}
}

// TestStaticNeverWorseThanNoDVS: any voltage scaling beats always-Vmax.
func TestStaticNeverWorseThanNoDVS(t *testing.T) {
	acs, _ := buildPair(t, 8, 4, 0.5)
	st, err := Run(acs, Config{Policy: Static, Hyperperiods: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Run(acs, Config{Policy: NoDVS, Hyperperiods: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Energy > nd.Energy*(1+1e-9) {
		t.Errorf("static %g > nodvs %g", st.Energy, nd.Energy)
	}
}

// TestEnergyScalesWithWork: pinning all workloads at WCEC must cost at least
// as much as pinning at ACEC under the same schedule and policy.
func TestEnergyScalesWithWork(t *testing.T) {
	acs, _ := buildPair(t, 9, 4, 0.3)
	wc, err := Run(acs, Config{Hyperperiods: 10, Seed: 1, Dist: AlwaysWCECDist})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := Run(acs, Config{Hyperperiods: 10, Seed: 1, Dist: AlwaysACECDist})
	if err != nil {
		t.Fatal(err)
	}
	if ac.Energy > wc.Energy*(1+1e-9) {
		t.Errorf("ACEC energy %g > WCEC energy %g", ac.Energy, wc.Energy)
	}
}

// TestACECEnergyMatchesObjective cross-checks the simulator against the
// solver's objective evaluator, two independent implementations of the
// DESIGN.md §2 greedy-reclamation recursion: with every instance pinned at
// ACEC the simulated energy per hyper-period must equal the ACS objective,
// and at WCEC the WCS one, without a miss. The table holds generated sets
// plus the two whose WCS once failed verification over a dead reservation
// (the 19th and 636th Split of stats.NewRNG(100)).
func TestACECEnergyMatchesObjective(t *testing.T) {
	type pick struct {
		seed     uint64
		split, n int
		ratio    float64
	}
	picks := []pick{{100, 19, 4, 0.5}, {100, 636, 4, 0.5}}
	for k := 1; k <= 39; k++ {
		picks = append(picks, pick{2005, k, 3 + k%3, []float64{0.1, 0.5, 0.9}[k%3]})
	}
	const hps = 3
	var worstACS, worstWCS float64
	for _, p := range picks {
		master := stats.NewRNG(p.seed)
		var rng *stats.RNG
		for i := 0; i < p.split; i++ {
			rng = master.Split()
		}
		set, err := workload.RandomFeasible(rng, workload.RandomConfig{
			N: p.n, Ratio: p.ratio, Utilization: 0.7,
		}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
		if err != nil {
			t.Fatal(err)
		}
		wcs, err := core.Build(set, core.Config{Objective: core.WorstCase})
		if err != nil {
			t.Fatalf("seed %d split %d: WCS: %v", p.seed, p.split, err)
		}
		acs, err := core.Build(set, core.Config{Objective: core.AverageCase, WarmStart: wcs})
		if err != nil {
			t.Fatalf("seed %d split %d: ACS: %v", p.seed, p.split, err)
		}
		for _, c := range []struct {
			s     *core.Schedule
			dist  Distribution
			worst *float64
		}{{acs, AlwaysACECDist, &worstACS}, {wcs, AlwaysWCECDist, &worstWCS}} {
			r, err := Run(c.s, Config{Hyperperiods: hps, Seed: 1, Dist: c.dist})
			if err != nil {
				t.Fatal(err)
			}
			gap := math.Abs(r.Energy/hps-c.s.Energy) / c.s.Energy
			*c.worst = math.Max(*c.worst, gap)
			if gap > 1e-9 || r.DeadlineMisses != 0 {
				t.Errorf("seed %d split %d %v: simulated %g per hyper-period vs objective %g (gap %.2g), %d misses",
					p.seed, p.split, c.s.Objective, r.Energy/hps, c.s.Energy, gap, r.DeadlineMisses)
			}
		}
	}
	t.Logf("worst relative gap over %d sets: ACS %.2g, WCS %.2g", len(picks), worstACS, worstWCS)
}

func TestOverheadAccounting(t *testing.T) {
	acs, _ := buildPair(t, 11, 3, 0.5)
	base, err := Run(acs, Config{Hyperperiods: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	withOv, err := Run(acs, Config{Hyperperiods: 20, Seed: 2,
		Overhead: Overhead{EnergyPerSwitch: 1, Epsilon: 0.001}})
	if err != nil {
		t.Fatal(err)
	}
	if withOv.Energy <= base.Energy {
		t.Error("switch energy not charged")
	}
	if withOv.Switches == 0 {
		t.Error("no switches counted")
	}
	extra := withOv.Energy - base.Energy
	if math.Abs(extra-float64(withOv.Switches)) > 1e-6*extra {
		t.Errorf("switch energy %g does not match %d switches", extra, withOv.Switches)
	}
}

func TestCompareUsesIdenticalDraws(t *testing.T) {
	acs, wcs := buildPair(t, 12, 4, 0.5)
	imp1, _, _, err := Compare(acs, wcs, Config{Hyperperiods: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	imp2, _, _, err := Compare(acs, wcs, Config{Hyperperiods: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if imp1 != imp2 {
		t.Error("Compare not deterministic")
	}
	// Comparing a schedule against itself must give exactly zero.
	self, _, _, err := Compare(acs, acs, Config{Hyperperiods: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if self != 0 {
		t.Errorf("self-comparison improvement = %g", self)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("nil schedule accepted")
	}
	acs, _ := buildPair(t, 13, 2, 0.5)
	if _, err := Run(acs, Config{Policy: SlackPolicy(99), Hyperperiods: 1}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestMeanVoltageWithinModelRange(t *testing.T) {
	acs, _ := buildPair(t, 14, 4, 0.1)
	r, err := Run(acs, Config{Hyperperiods: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanVoltage < acs.Model.VMin() || r.MeanVoltage > acs.Model.VMax() {
		t.Errorf("mean voltage %g outside model range", r.MeanVoltage)
	}
	if r.BusyTime <= 0 {
		t.Error("no busy time recorded")
	}
}

// TestMissesUnderRandomSchedules is the property test backing the paper's
// feasibility claim: for random feasible sets and seeds, neither ACS nor
// WCS ever misses a deadline, and ACS's simulated energy is finite and
// positive.
func TestMissesUnderRandomSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	if err := quick.Check(func(seedRaw uint16, nRaw, ratioRaw uint8) bool {
		n := int(nRaw%6) + 2
		ratio := float64(ratioRaw%9+1) / 10
		rng := stats.NewRNG(uint64(seedRaw))
		set, err := workload.RandomFeasible(rng, workload.RandomConfig{
			N: n, Ratio: ratio, Utilization: 0.7,
		}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
		if err != nil {
			return true // generation failure is not this property's concern
		}
		wcs, err := core.Build(set, core.Config{Objective: core.WorstCase, MaxSweeps: 8})
		if err != nil {
			return false
		}
		acs, err := core.Build(set, core.Config{Objective: core.AverageCase, MaxSweeps: 8, WarmStart: wcs})
		if err != nil {
			return false
		}
		for _, s := range []*core.Schedule{acs, wcs} {
			r, err := Run(s, Config{Hyperperiods: 5, Seed: rng.Uint64()})
			if err != nil || r.DeadlineMisses != 0 || !(r.Energy > 0) || math.IsInf(r.Energy, 0) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
