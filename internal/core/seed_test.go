package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/preempt"
)

// TestWCSMatchesYDS cross-checks WCS against the YDS optimum on the golden
// sets and on 40 sets of cmd/bench's cold_solve shape (N=4, ratio 0.5,
// utilisation 0.7). Every set has one Ceff, so on the default model no
// feasible schedule beats the bound: WCS sits at or above it everywhere
// (YDSBound's floor, which is 1e-12 under it unless a dead reservation
// leaves cycles uncharged), and equals it to 1e-12 wherever the seed
// certifies. The seed must certify most sets, and on the golden sets
// exactly those outside goldenFallback.
func TestWCSMatchesYDS(t *testing.T) {
	sets := goldenSets(t)
	golden := len(sets)
	for _, seed := range []uint64{2005, 9127} {
		for k := 1; k <= 20; k++ {
			sets = append(sets, splitSet(t, seed, k, 4, 0.5))
		}
	}
	var fallback []int
	for i, set := range sets {
		plan, err := preempt.Build(set)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Objective: WorstCase}
		wcs, err := Solve(plan, cfg)
		if err != nil {
			t.Fatalf("set %d: WCS: %v", i, err)
		}
		bound, floor, ok, err := YDSBound(wcs)
		if err != nil || !ok {
			t.Fatalf("set %d: no YDS bound (%v)", i, err)
		}
		if wcs.Energy < floor {
			t.Errorf("set %d: WCS %.17g below the YDS bound %.17g", i, wcs.Energy, bound)
		}
		seeded, err := solveSeeded(plan, cfg.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if seeded == nil {
			fallback = append(fallback, i)
			continue
		}
		if math.Abs(wcs.Energy-bound) > 1e-12*bound {
			t.Errorf("set %d: certified WCS %.17g, YDS bound %.17g", i, wcs.Energy, bound)
		}
	}
	n, _ := slices.BinarySearch(fallback, golden)
	if !slices.Equal(fallback[:n], goldenFallback) {
		t.Errorf("golden sets that fall back: %v, goldenFallback lists %v", fallback[:n], goldenFallback)
	}
	certified := len(sets) - len(fallback)
	t.Logf("the seed certifies %d of %d sets", certified, len(sets))
	if 10*certified < 6*len(sets) {
		t.Errorf("the seed certifies %d of %d sets, want at least 60%%", certified, len(sets))
	}
}
