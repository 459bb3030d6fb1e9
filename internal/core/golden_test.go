package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// splitSet draws the set the k-th Split (1-based) of stats.NewRNG(seed)
// yields through workload.RandomFeasible at utilisation 0.7.
func splitSet(t testing.TB, seed uint64, k, n int, ratio float64) *task.Set {
	t.Helper()
	master := stats.NewRNG(seed)
	var rng *stats.RNG
	for i := 0; i < k; i++ {
		rng = master.Split()
	}
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: n, Ratio: ratio, Utilization: 0.7,
	}, 50, func(s *task.Set) bool { return Feasible(s, Config{}) == nil })
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestDeadReservationHasNoDeadline: the verifier must not charge a dead
// reservation (0 < WCWork ≤ DeadWork) with a deadline. evalStep never runs
// one and the simulator drops it, so comparing the previous piece's finish
// against its deadline is a false positive. On these two sets the WCS solve
// used to fail its own Verify with a 1.74 ms and a 1.15 ms "overshoot" on a
// piece with WCWork 9.998e-10.
func TestDeadReservationHasNoDeadline(t *testing.T) {
	for _, k := range []int{19, 636} {
		set := splitSet(t, 100, k, 4, 0.5)
		wcs, err := Build(set, Config{Objective: WorstCase})
		if err != nil {
			t.Fatalf("split %d: WCS: %v", k, err)
		}
		if _, err := Build(set, Config{Objective: AverageCase, WarmStart: wcs}); err != nil {
			t.Fatalf("split %d: ACS: %v", k, err)
		}
		dead := 0
		for _, w := range wcs.WCWork {
			if w > 0 && w <= DeadWork {
				dead++
			}
		}
		if dead == 0 {
			t.Errorf("split %d: WCS holds no dead reservation; the set no longer exercises the rule", k)
		}
	}
}

// goldenSets are the fixed N=4 sets TestSolverGolden solves, cycling the
// ACEC/WCEC ratio so both objectives see tight and loose average cases.
func goldenSets(t *testing.T) []*task.Set {
	t.Helper()
	ratios := []float64{0.1, 0.5, 0.9}
	master := stats.NewRNG(1205)
	sets := make([]*task.Set, 40)
	for i := range sets {
		set, err := workload.RandomFeasible(master.Split(), workload.RandomConfig{
			N: 4, Ratio: ratios[i%len(ratios)], Utilization: 0.7,
		}, 50, func(s *task.Set) bool { return Feasible(s, Config{}) == nil })
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// TestSolverGolden pins the solver's output bit for bit across versions: a
// SHA-256 over the encoded bytes, sweep count and energy bits of WCS and
// warm-started ACS on fixed generated sets. A change meant to leave the
// schedules alone (a speed-up, a refactor) must leave every hash unchanged.
//
// The default configuration runs on all 40 sets; the costlier variants on
// a share each. Alpha runs the evaluator's generic (interface-dispatched)
// walk, whose bisection voltage solve makes an uncapped solve take seconds,
// so it takes only the small plans and a sweep cap. The pin holds on amd64;
// other ports may fuse multiply-adds, which Go permits, and so round
// differently.
func TestSolverGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("solver output is pinned for amd64 floating point")
	}
	alpha, err := power.NewAlpha(0.2, 0.3, 1.5, 0.7, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	sets := goldenSets(t)
	for _, v := range []struct {
		name string
		cfg  Config
		use  func(i, pieces int) bool
		hash string
	}{
		{"default", Config{}, func(int, int) bool { return true },
			"3e53a3c9a5a60ac74581099dea6ddefb1b3940191938f2dbd5ec01ea4ef01270"},
		{"scenarios", Config{Scenarios: 5, ScenarioSeed: 7}, func(i, _ int) bool { return i%4 == 1 },
			"bece22fb2db5bcfaa5fa9a5ce0fa0fe08986934bc954e9328590b28f42693d16"},
		{"starts", Config{Starts: 3}, func(i, _ int) bool { return i%4 == 2 },
			"38ee381a6c61bd30ea41384f3e96695500b556a66e615af375f199d005960dfe"},
		{"alpha", Config{Model: alpha, MaxSweeps: 3}, func(_, pieces int) bool { return pieces <= 24 },
			"9a1d74120a834a4497288388e34e634da456e7d92f6e3584d04b3735ccc8fabf"},
	} {
		t.Run(v.name, func(t *testing.T) {
			h := sha256.New()
			var word [8]byte
			put := func(x uint64) {
				binary.LittleEndian.PutUint64(word[:], x)
				h.Write(word[:])
			}
			for i, set := range sets {
				plan, err := preempt.Build(set)
				if err != nil {
					t.Fatal(err)
				}
				if !v.use(i, len(plan.Subs)) {
					continue
				}
				cfg := v.cfg
				cfg.Objective = WorstCase
				wcs, err := Solve(plan, cfg)
				if err != nil {
					t.Fatalf("set %d: WCS: %v", i, err)
				}
				cfg.Objective, cfg.WarmStart = AverageCase, wcs
				acs, err := Solve(plan, cfg)
				if err != nil {
					t.Fatalf("set %d: ACS: %v", i, err)
				}
				for _, s := range []*Schedule{wcs, acs} {
					b, err := EncodeSchedule(s)
					if err != nil {
						t.Fatal(err)
					}
					put(uint64(len(b)))
					h.Write(b)
					put(uint64(s.Sweeps))
					put(math.Float64bits(s.Energy))
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != v.hash {
				t.Errorf("solver output hash %s, pinned %s", got, v.hash)
			}
		})
	}
}
