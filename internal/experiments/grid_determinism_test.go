package experiments

import (
	"fmt"
	"testing"

	"repro/internal/grid"
)

// TestGridDeterminism pins the grid engine's output contract: every figure
// and table is byte-identical for any worker count and with the memo on or
// off. It renders Fig. 6(a) (Table + CSV), Fig. 6(b) (AppTable + AppCSV) and
// the slack ablation under Workers ∈ {1, 2, 8} × cache ∈ {on, off} and
// compares every rendering against the Workers=1/cache-on reference.
func TestGridDeterminism(t *testing.T) {
	render := func(g *grid.Runner) string {
		c := Common{Sets: 2, Reps: 5, Seed: 5, Grid: g}
		cells, err := Fig6a(Fig6aConfig{
			Common:     c,
			TaskCounts: []int{2, 3},
			Ratios:     []float64{0.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := Table(cells, "determinism") + "\n" + CSV(cells)

		apps, err := Fig6b(Fig6bConfig{Common: c, Apps: []string{"CNC"}, Ratios: []float64{0.1, 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		out += "\n" + AppTable(apps) + "\n" + AppCSV(apps)

		slack, err := SlackPolicyAblation(c, 3, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		out += "\n" + SlackTable(slack)

		// The weighted ablation is the adversarial case for cache on/off
		// identity: its K>0 ACS builds always miss while their WarmStart is
		// a cross-harness WCS hit, so a warm start that behaved differently
		// for cached schedules would surface here (it once did: the solver
		// compared task sets by pointer).
		weighted, err := WeightedObjectiveAblation(c, 3, 0.1, []int{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		return out + "\n" + WeightedTable(weighted)
	}

	var want string
	for _, workers := range []int{1, 2, 8} {
		for _, cache := range []bool{true, false} {
			var memo *grid.Memo
			if cache {
				memo = grid.NewMemo()
			}
			got := render(grid.New(workers, memo))
			if want == "" {
				want = got // workers=1, cache=on reference
				continue
			}
			if got != want {
				t.Errorf("output diverges at workers=%d cache=%v:\n--- got ---\n%s\n--- want ---\n%s",
					workers, cache, got, want)
			}
		}
	}
}

// TestCrossHarnessSolveSharing proves the memoization the grid exists for:
// harnesses sweeping the same (N, ratio) cell derive identical task sets, so
// a shared memo resolves their WCS/ACS pipelines without new solves.
func TestCrossHarnessSolveSharing(t *testing.T) {
	memo := grid.NewMemo()
	g := grid.New(2, memo)
	c := Common{Sets: 2, Reps: 5, Seed: 5, Grid: g}

	if _, err := Fig6a(Fig6aConfig{Common: c, TaskCounts: []int{3}, Ratios: []float64{0.1}}); err != nil {
		t.Fatal(err)
	}
	after6a := memo.Stats()
	if after6a.ScheduleMisses == 0 {
		t.Fatal("Fig6a solved nothing")
	}

	// The slack and overhead ablations at the same cell reuse every solve.
	if _, err := SlackPolicyAblation(c, 3, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := TransitionOverheadAblation(c, 3, 0.1, nil); err != nil {
		t.Fatal(err)
	}
	final := memo.Stats()
	if final.ScheduleMisses != after6a.ScheduleMisses {
		t.Errorf("ablations re-solved %d schedules the Fig6a cell already solved (stats %+v)",
			final.ScheduleMisses-after6a.ScheduleMisses, final)
	}
	if final.ScheduleHits <= after6a.ScheduleHits {
		t.Errorf("ablations hit the memo %d times, want > %d",
			final.ScheduleHits, after6a.ScheduleHits)
	}

	// E10 at the same cell shares the WCS and the point-ACEC ACS of every
	// set: the K=2 ACS is its only new solve per set.
	if _, err := WeightedObjectiveAblation(c, 3, 0.1, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if got := memo.Stats().ScheduleMisses - final.ScheduleMisses; got != int64(c.Sets) {
		t.Errorf("E10 solved %d schedules, want %d (one per set)", got, c.Sets)
	}
}

// TestFig6bSeedsVaryByRatio pins the PR 3 seed-derivation fix: two ratios of
// the same application must not share simulation seed streams (they did
// before, making per-seed spreads spuriously correlated across ratios).
func TestFig6bSeedsVaryByRatio(t *testing.T) {
	cells, err := Fig6b(Fig6bConfig{
		Common: Common{Sets: 3, Reps: 5, Seed: 7},
		Apps:   []string{"CNC"},
		Ratios: []float64{0.1, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	// With shared streams the per-seed summaries would be draw-for-draw
	// correlated; distinct streams make equality of the spread fingerprint
	// astronomically unlikely.
	fp := func(c AppCell) string {
		return fmt.Sprintf("%.12g|%.12g|%.12g", c.Seeds.Min(), c.Seeds.Max(), c.Seeds.Std())
	}
	if fp(cells[0]) == fp(cells[1]) {
		t.Errorf("ratios 0.1 and 0.5 share seed streams: %s", fp(cells[0]))
	}
}
