package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/task"
)

// averageVariants returns copies of set that move only ACEC and BCEC: every
// ACEC at its BCEC, every ACEC at its WCEC, and a mix that halves BCEC and
// spreads ACEC across the support.
func averageVariants(t *testing.T, set *task.Set) []*task.Set {
	t.Helper()
	moves := []func(i int, tk *task.Task){
		func(_ int, tk *task.Task) { tk.ACEC = tk.BCEC },
		func(_ int, tk *task.Task) { tk.ACEC = tk.WCEC },
		func(i int, tk *task.Task) {
			tk.BCEC /= 2
			tk.ACEC = tk.BCEC + float64(i+1)/float64(set.N()+1)*(tk.WCEC-tk.BCEC)
		},
	}
	out := make([]*task.Set, len(moves))
	for k, move := range moves {
		ts := append([]task.Task(nil), set.Tasks...)
		for i := range ts {
			move(i, &ts[i])
		}
		v, err := task.NewSet(ts)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = v
	}
	return out
}

// requireSameSchedule fails unless a and b encode to the same bytes and
// carry the same energy bits and sweep count.
func requireSameSchedule(t *testing.T, what string, a, b *Schedule) {
	t.Helper()
	ab, err := EncodeSchedule(a)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	bb, err := EncodeSchedule(b)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(ab, bb) {
		t.Errorf("%s: encoded schedules differ", what)
	}
	if math.Float64bits(a.Energy) != math.Float64bits(b.Energy) || a.Sweeps != b.Sweeps {
		t.Errorf("%s: energy %v/%d sweeps, want %v/%d", what, a.Energy, a.Sweeps, b.Energy, b.Sweeps)
	}
}

// TestRetargetMatchesBuild: a WCS retargeted to its own set, or to one that
// differs only in ACEC and BCEC, is the WCS a build of that set returns, and
// ACS warm-started from either is the same schedule. The golden helper's sets
// cover ratios 0.1, 0.5 and 0.9; multi-start, the Alpha model, Fig. 6(b)'s
// piece cap and NoSplitOpt (which skips the YDS seed) take a few sets each.
// The grid memo serves every WCS this way (grid.Runner.BuildScheduleContext).
func TestRetargetMatchesBuild(t *testing.T) {
	alpha, err := power.NewAlpha(0.2, 0.3, 1.5, 0.7, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	sets := goldenSets(t)
	for _, v := range []struct {
		name string
		cfg  Config
		use  func(i, pieces int) bool
	}{
		{"single start", Config{Starts: 1}, func(i, _ int) bool { return i < 3 }},
		{"starts", Config{Starts: 3}, func(i, _ int) bool { return i >= 1 && i <= 3 }},
		{"alpha", Config{Model: alpha, MaxSweeps: 1}, func(i, pieces int) bool { return pieces <= 16 && i < 20 }},
		{"subcap 12", Config{Preempt: preempt.Options{MaxSubsPerInstance: 12}}, func(i, _ int) bool { return i < 4 }},
		{"no split opt", Config{NoSplitOpt: true}, func(i, _ int) bool { return i < 3 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			ran := 0
			for i, base := range sets {
				plan, err := preempt.Build(base)
				if err != nil {
					t.Fatal(err)
				}
				if !v.use(i, len(plan.Subs)) {
					continue
				}
				ran++
				wcsCfg, acsCfg := v.cfg, v.cfg
				wcsCfg.Objective, acsCfg.Objective = WorstCase, AverageCase
				wcs, err := Build(base, wcsCfg)
				if err != nil {
					t.Fatalf("set %d: WCS: %v", i, err)
				}
				for k, variant := range append(averageVariants(t, base), base) {
					got, ok := wcs.Retarget(variant)
					if !ok {
						t.Fatalf("set %d variant %d: Retarget refused an ACEC/BCEC move", i, k)
					}
					want, err := Build(variant, wcsCfg)
					if err != nil {
						t.Fatalf("set %d variant %d: WCS: %v", i, k, err)
					}
					requireSameSchedule(t, "WCS", got, want)
					acsCfg.WarmStart = got
					fromGot, err := Build(variant, acsCfg)
					if err != nil {
						t.Fatalf("set %d variant %d: ACS: %v", i, k, err)
					}
					acsCfg.WarmStart = want
					fromWant, err := Build(variant, acsCfg)
					if err != nil {
						t.Fatalf("set %d variant %d: ACS: %v", i, k, err)
					}
					requireSameSchedule(t, "warm ACS", fromGot, fromWant)
				}
			}
			if ran < 2 {
				t.Fatalf("only %d sets ran; the variant no longer covers anything", ran)
			}
		})
	}
}

// TestRetargetRefuses: any move outside ACEC and BCEC, and any
// average-case schedule, is refused.
func TestRetargetRefuses(t *testing.T) {
	base := goldenSets(t)[0]
	wcs, err := Build(base, Config{Objective: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	acs, err := Build(base, Config{Objective: AverageCase, WarmStart: wcs})
	if err != nil {
		t.Fatal(err)
	}
	moved := func(move func(ts []task.Task) []task.Task) *task.Set {
		return &task.Set{Tasks: move(append([]task.Task(nil), base.Tasks...))}
	}
	for _, c := range []struct {
		name  string
		sched *Schedule
		set   *task.Set
	}{
		{"period", wcs, moved(func(ts []task.Task) []task.Task { ts[0].Period *= 2; return ts })},
		{"wcec", wcs, moved(func(ts []task.Task) []task.Task { ts[1].WCEC *= 0.9; return ts })},
		{"ceff", wcs, moved(func(ts []task.Task) []task.Task { ts[2].Ceff += 1; return ts })},
		{"name", wcs, moved(func(ts []task.Task) []task.Task { ts[3].Name += "x"; return ts })},
		{"task count", wcs, moved(func(ts []task.Task) []task.Task { return ts[:len(ts)-1] })},
		{"nil set", wcs, nil},
		{"average case", acs, averageVariants(t, base)[0]},
		{"average case, own set", acs, base},
	} {
		if got, ok := c.sched.Retarget(c.set); ok || got != nil {
			t.Errorf("%s: Retarget accepted (%v, %v)", c.name, got != nil, ok)
		}
	}
}
