package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// FuzzBuildSchedule drives the solver-invariant properties (property_test.go)
// over fuzzer-chosen generator coordinates: seed, task count, BCEC/WCEC
// ratio and utilisation. The seed corpus spans the paper's sweep — the cells
// of Fig. 6(a) plus the frozen input of the split-revival regression — and
// runs as ordinary unit tests on every `go test`; `go test -fuzz` explores
// beyond it (CI runs a short -fuzztime smoke). WCS is also checked against
// the YDS optimum (assertYDSOracle), an independent implementation.
//
// The workload generator, not the raw bytes, defines the search space: every
// input decodes to a generator configuration, so each fuzz execution
// exercises the preemptive expansion, both solver objectives, the warm-start
// path, and the greedy-reclamation simulation on a structurally valid task
// set. Inputs whose configuration cannot produce a feasible set are skipped.
func FuzzBuildSchedule(f *testing.F) {
	// Paper sweep corners and midpoints.
	for _, n := range []uint8{2, 4, 6} {
		for _, ratio := range []float64{0.1, 0.5, 0.9} {
			f.Add(uint64(2005), n, ratio, 0.7)
		}
	}
	// Degenerate and boundary coordinates.
	f.Add(uint64(1), uint8(1), 0.0, 0.3)
	f.Add(uint64(7), uint8(8), 1.0, 0.95)
	f.Add(uint64(42), uint8(3), 0.25, 0.05)
	// The split-revival regression's generator coordinates (see
	// TestSplitRevivalKeepsDeadlines).
	f.Add(uint64(0x99cd), uint8(0x3b%6+2), 0.5, 0.7)
	// A set whose WCS falls back to the descent and holds a dead
	// reservation: its energy sits 1.7e-11 relative under the YDS bound,
	// because the reservation's cycles are never charged.
	f.Add(uint64(101), uint8('#'), -1572.75, 0.15)

	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, ratio, util float64) {
		n := int(nRaw%8) + 1
		if math.IsNaN(ratio) || ratio < 0 || ratio > 1 {
			ratio = 0.5
		}
		if math.IsNaN(util) || util <= 0.01 || util > 1 {
			util = 0.7
		}
		rng := stats.NewRNG(seed)
		set, err := workload.RandomFeasible(rng, workload.RandomConfig{
			N: n, Ratio: ratio, Utilization: util,
		}, 20, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
		if err != nil {
			t.Skip("no feasible set for these coordinates")
		}

		// Bounded sweeps keep each execution cheap; the invariants must hold
		// at every sweep count, converged or not.
		cfg := core.Config{MaxSweeps: 8}
		acs, wcs := solvePair(t, set, cfg)
		assertScheduleInvariants(t, "ACS", acs, seed)
		assertScheduleInvariants(t, "WCS", wcs, seed)
		assertPairInvariants(t, "pair", acs, wcs)
		assertYDSOracle(t, "WCS", wcs, cfg)
	})
}
