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
// cover ratios 0.1, 0.5 and 0.9; multi-start, the Alpha model (which skips
// the YDS seed) and Fig. 6(b)'s piece cap take a few sets each.
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

// sharesPlan reports whether a and b hold the same Subs, Instances and
// ByInstance backing arrays.
func sharesPlan(a, b *preempt.Schedule) bool {
	return &a.Subs[0] == &b.Subs[0] && &a.Instances[0] == &b.Instances[0] &&
		&a.ByInstance[0] == &b.ByInstance[0]
}

// TestWarmStartSharesPlan: an ACS warm-started from a WCS of a set with the
// same worst-case fields, expanded under the same piece cap, solves over the
// WCS's plan. It holds the plan's Subs, Instances and ByInstance, bound to
// its own set, and encodes to the bytes Solve gives over a fresh expansion,
// with and without a cap that merges pieces. A warm start with another WCEC
// or another cap lends nothing: the build expands its own plan.
func TestWarmStartSharesPlan(t *testing.T) {
	sets := goldenSets(t)[:4]
	wcsOf := func(set *task.Set, subcap int) *Schedule {
		t.Helper()
		wcs, err := Build(set, Config{Objective: WorstCase, Preempt: preempt.Options{MaxSubsPerInstance: subcap}})
		if err != nil {
			t.Fatal(err)
		}
		return wcs
	}
	// solveFresh is the build over a fresh expansion, the schedule the
	// shared plan must reproduce.
	solveFresh := func(set *task.Set, cfg Config) *Schedule {
		t.Helper()
		plan, err := preempt.BuildWith(set, cfg.Preempt)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Solve(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	merged := 0
	for _, subcap := range []int{0, 3} {
		for i, base := range sets {
			wcs := wcsOf(base, subcap)
			if full, err := preempt.Build(base); err != nil {
				t.Fatal(err)
			} else if len(full.Subs) > len(wcs.Plan.Subs) {
				merged++
			}
			for k, variant := range append(averageVariants(t, base), base) {
				warm, ok := wcs.Retarget(variant)
				if !ok {
					t.Fatalf("set %d variant %d: Retarget refused an ACEC/BCEC move", i, k)
				}
				cfg := Config{Objective: AverageCase, WarmStart: warm, Preempt: preempt.Options{MaxSubsPerInstance: subcap}}
				acs, err := Build(variant, cfg)
				if err != nil {
					t.Fatalf("cap %d set %d variant %d: ACS: %v", subcap, i, k, err)
				}
				if acs.Plan.Set != variant || !sharesPlan(acs.Plan, wcs.Plan) {
					t.Errorf("cap %d set %d variant %d: the ACS does not solve over its warm start's plan", subcap, i, k)
				}
				requireSameSchedule(t, "shared-plan ACS", acs, solveFresh(variant, cfg))
			}
		}
	}
	if merged == 0 {
		t.Fatal("the piece cap merges no plan's pieces; the capped case covers nothing")
	}

	base := sets[0]
	ts := append([]task.Task(nil), base.Tasks...)
	ts[0].WCEC *= 0.9
	ts[0].ACEC = min(ts[0].ACEC, ts[0].WCEC)
	ts[0].BCEC = min(ts[0].BCEC, ts[0].WCEC)
	lighter, err := task.NewSet(ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		warm   *Schedule
		subcap int
	}{
		{"another WCEC", wcsOf(lighter, 0), 0},
		{"a capped warm start", wcsOf(base, 3), 0},
		{"an uncapped warm start", wcsOf(base, 0), 3},
	} {
		cfg := Config{Objective: AverageCase, WarmStart: c.warm, Preempt: preempt.Options{MaxSubsPerInstance: c.subcap}}
		acs, err := Build(base, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sharesPlan(acs.Plan, c.warm.Plan) {
			t.Errorf("%s: the ACS solves over the warm start's plan", c.name)
		}
		requireSameSchedule(t, c.name, acs, solveFresh(base, cfg))
	}
}
