package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
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
// against its deadline is a false positive. The WCS solve of split 636 used
// to fail its own Verify that way, with an "overshoot" of over a millisecond
// on a piece with WCWork 9.998e-10. Split 19 did too, but its WCS is now the
// certified YDS optimum, which holds no dead reservation; split 1287, found
// by searching the same stream, takes its place. Both sets fall back to
// coordinate descent, whose WCS holds one.
func TestDeadReservationHasNoDeadline(t *testing.T) {
	for _, k := range []int{636, 1287} {
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

// goldenFallback lists the golden sets whose WCS the YDS seed does not
// certify (TestWCSMatchesYDS checks the list), so their builds run
// coordinate descent from the usual start.
var goldenFallback = []int{1, 10, 13, 15, 16, 23, 24, 27, 28, 30, 34, 35, 37}

// TestSolverGolden pins the solver's output bit for bit across versions: a
// SHA-256 over the encoded bytes, sweep count and energy bits of WCS and
// warm-started ACS on fixed generated sets. A change meant to leave the
// schedules alone (a speed-up, a refactor) must leave every hash unchanged.
//
// The default configuration runs on all 40 sets; the costlier variants on
// a share each. Fallback is the default configuration on the sets the seed
// does not certify: its hash is the one the solver had before the seed
// existed, so it pins that descent byte for byte. Alpha runs the
// evaluator's generic (interface-dispatched) walk, whose bisection voltage
// solve makes an uncapped solve take seconds, so it takes only the small
// plans and a sweep cap; the seed never applies to it. The pin holds on
// amd64; other ports may fuse multiply-adds, which Go permits, and so round
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
			"8c60a33a5d3faa1117a0399e78b96e6003a41f57e63bef57e7f4c3e5fc51bc38"},
		{"scenarios", Config{Scenarios: 5, ScenarioSeed: 7}, func(i, _ int) bool { return i%4 == 1 },
			"e7ec12d91d26574d656fd747d9007f1db525f3eb720e8b2e1e0a989395b6c606"},
		{"starts", Config{Starts: 3}, func(i, _ int) bool { return i%4 == 2 },
			"c1caeaffd1b9723d1dc6070c85f7ccaf669bb557ee00c716e2989be990b759bc"},
		{"fallback", Config{}, func(i, _ int) bool { return slices.Contains(goldenFallback, i) },
			"b14d3c078973395dbeb4880ec5e6ab16e612885f7d5767098f33d174928cd083"},
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
