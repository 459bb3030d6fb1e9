package experiments

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// --- E10: probability-weighted objective --------------------------------------

// WeightedCell compares the paper's point-ACEC objective against the
// probability-weighted (scenario) objective it sketches in §3.2.
type WeightedCell struct {
	Scenarios int // 0 = point-ACEC
	// SimEnergy is the realised mean runtime energy under the paper's
	// stochastic workloads, relative to the WCS baseline (improvement %).
	Improvement stats.Summary
	// ObjGap is |objective − realised mean energy| / realised, measuring
	// how well each offline objective predicts the online outcome.
	ObjGap stats.Summary
}

// WeightedObjectiveAblation (E10) solves ACS with the point-ACEC objective
// and with K-scenario probability-weighted objectives, then simulates all of
// them under identical stochastic workloads. It quantifies the paper's claim
// that the average workload is "a good enough approximation" of the expected
// energy: if the claim holds, the scenario objectives should improve little
// over point-ACEC while predicting the realised energy more accurately.
// Sets are sweep jobs; the WCS baseline and the K=0 ACS build are the same
// memo entries the other harnesses at this (N, ratio) cell use.
func WeightedObjectiveAblation(c Common, n int, ratio float64, scenarioCounts []int) ([]WeightedCell, error) {
	cc := c.withDefaults()
	if len(scenarioCounts) == 0 {
		scenarioCounts = []int{0, 5, 10}
	}
	cells := make([]WeightedCell, len(scenarioCounts))
	for i, k := range scenarioCounts {
		cells[i] = WeightedCell{Scenarios: k}
	}

	type setRes struct {
		imp, gap []float64 // per scenario count
	}
	results, errs := sweep(cc, 1, func(_, i int) (setRes, error) {
		set, rng, err := randomCellSet(cc, n, ratio, i)
		if err != nil {
			return setRes{}, err
		}
		simSeed := rng.Uint64()
		// Scenario streams must be independent of the set-generation prefix
		// (rng is mid-stream here) and *identical* between the solve and the
		// ExpectedEnergy prediction: the solver ORs ScenarioSeed with 1, so
		// pre-set that bit and pass the same value to both.
		scenSeed := rng.Uint64() | 1

		res := setRes{imp: make([]float64, len(scenarioCounts)), gap: make([]float64, len(scenarioCounts))}
		var base *sim.Result
		for ci, k := range scenarioCounts {
			// A WCS never reads the scenario fields, so every count shares
			// one WCS.
			p, err := solvePair(cc, set, core.Config{Scenarios: k, ScenarioSeed: scenSeed})
			if err != nil {
				return setRes{}, err
			}
			if ci == 0 {
				if base, err = p.wcsPlan.Run(cc.greedy(simSeed)); err != nil {
					return setRes{}, err
				}
			}
			r, err := p.acsPlan.Run(cc.greedy(simSeed))
			if err != nil {
				return setRes{}, err
			}
			res.imp[ci] = 100 * (base.Energy - r.Energy) / base.Energy

			realised := r.Energy / float64(cc.Reps)
			predicted := p.acs.Energy // point objective
			if k > 0 {
				if predicted, err = p.acs.ExpectedEnergy(k, scenSeed); err != nil {
					return setRes{}, err
				}
			}
			res.gap[ci] = 100 * math.Abs(predicted-realised) / realised
		}
		return res, nil
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}

	for _, r := range results {
		for ci := range cells {
			cells[ci].Improvement.Add(r.imp[ci])
			cells[ci].ObjGap.Add(r.gap[ci])
		}
	}
	return cells, nil
}

// WeightedTable renders E10.
func WeightedTable(cells []WeightedCell) string {
	var b strings.Builder
	b.WriteString("E10 probability-weighted objective: scenarios vs point-ACEC\n")
	fmt.Fprintf(&b, "%-10s %-18s %-20s\n", "scenarios", "improvement", "objective gap")
	for _, c := range cells {
		label := fmt.Sprintf("%d", c.Scenarios)
		if c.Scenarios == 0 {
			label = "ACEC"
		}
		fmt.Fprintf(&b, "%-10s %6.1f%% ±%-8.1f %6.1f%% ±%.1f\n",
			label, c.Improvement.Mean(), c.Improvement.CI95(),
			c.ObjGap.Mean(), c.ObjGap.CI95())
	}
	return b.String()
}
