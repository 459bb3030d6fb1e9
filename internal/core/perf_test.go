package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// TestSolvePerformance records how long the production solver takes on the
// largest Fig. 6(a) configuration (N=10 at 70% utilisation); it fails only
// if solving becomes pathologically slow, keeping the experiment harness
// honest about its budget.
func TestSolvePerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("performance probe skipped in -short mode")
	}
	rng := stats.NewRNG(7)
	set, err := workload.Random(rng, workload.RandomConfig{N: 10, Ratio: 0.1, Utilization: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s, err := Build(set, Config{Objective: AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("N=10: %d subs, %d sweeps, %v", len(s.Plan.Subs), s.Sweeps, elapsed)
	if elapsed > 2*time.Minute {
		t.Errorf("ACS solve took %v; expected well under 2 minutes", elapsed)
	}
}

// BenchmarkSolvePair measures the solver work of a cold submit — WCS, then
// ACS warm-started from it — over 8 fixed sets of the benchmark's cold_solve
// shape (N=4, ratio 0.5, utilisation 0.7). One op solves all 8 pairs.
func BenchmarkSolvePair(b *testing.B) {
	sets := make([]*task.Set, 8)
	for i := range sets {
		sets[i] = splitSet(b, 2005, i+1, 4, 0.5)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, set := range sets {
			wcs, err := Build(set, Config{Objective: WorstCase})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Build(set, Config{Objective: AverageCase, WarmStart: wcs}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestSolvePairAllocs pins the allocations of a cold submit's solver work
// on golden set 2 (16 pieces): a WCS Build, then the ACS warm-started from
// it. The ACS solves over the WCS's plan; expanding its own took 53 more
// (203). The count is go1.24's median of three readings, pinned exactly. A
// race build read the same count, but only bounds it, as the server's
// allocation pins do. A change that moves the count re-pins it and says why.
func TestSolvePairAllocs(t *testing.T) {
	const allocs, raceMax float64 = 150, 150
	set := goldenSets(t)[2]
	var err error
	var reads [3]float64
	for i := range reads {
		reads[i] = testing.AllocsPerRun(20, func() {
			var wcs *Schedule
			if wcs, err = Build(set, Config{Objective: WorstCase}); err == nil {
				_, err = Build(set, Config{Objective: AverageCase, WarmStart: wcs})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(reads[:])
	got := reads[1]
	switch {
	case raceEnabled && got > raceMax:
		t.Errorf("%g allocations per WCS/ACS pair in a race build, want at most %g", got, raceMax)
	case !raceEnabled && got != allocs:
		t.Errorf("%g allocations per WCS/ACS pair, want %g", got, allocs)
	}
}
