package core

import (
	"slices"

	"repro/internal/preempt"
)

// workspace holds every transient buffer one Solve needs: scratch end-time
// vectors, the sweep-local chain bounds, the split-transfer pair list, and
// the objective evaluator with its prefix caches and suffix memo. It is
// allocated once per solve and reused across all coordinate-descent sweeps,
// so the golden-section inner loop runs with zero heap allocations.
type workspace struct {
	eMin      []float64 // ASAP scratch (initialize, Feasible)
	eMax      []float64 // ALAP scratch (initialize)
	prevAlive []float64 // forward chain scratch, length n+1 (sweepEnds)
	nextCap   []float64 // backward chain scratch, length n+1 (sweepEnds)
	saved     []float64 // end-time save buffer (sweepPush)
	left      []float64 // per-load-set workload left at a pair (sweepSplits)
	pairs     []splitPair
	ev        objEval
}

// fillEvalArrays caches the plan-constant per-position inputs of the
// greedy-reclamation recursion (release time and effective capacitance) as
// flat float64 arrays. The evaluator's inner walk reads these instead of
// chasing the 80-byte SubInstance structs and the task table, cutting the
// cache traffic of the solver's innermost loop by an order of magnitude.
func (e *objEval) fillEvalArrays(plan *preempt.Schedule) {
	n := len(plan.Subs)
	if cap(e.rel) < n {
		e.rel = make([]float64, n)
		e.ceff = make([]float64, n)
	}
	e.rel = e.rel[:n]
	e.ceff = e.ceff[:n]
	for pos := range plan.Subs {
		e.rel[pos] = plan.Subs[pos].Release
		e.ceff[pos] = plan.Set.Tasks[plan.Subs[pos].TaskIndex].Ceff
	}
}

// splitPair is one workload-transfer coordinate of sweepSplits: adjacent
// pieces (pa, pb) of instance idx, pa at index k of its positions.
type splitPair struct{ pa, pb, idx, k int }

func newWorkspace(plan *preempt.Schedule) *workspace {
	n := len(plan.Subs)
	ws := &workspace{
		eMin:      make([]float64, n),
		eMax:      make([]float64, n),
		prevAlive: make([]float64, n+1),
		nextCap:   make([]float64, n+1),
		saved:     make([]float64, n),
	}
	// The transfer pairs depend only on the plan, not on the solution state:
	// build them once, sorted by earlier position so the evaluator's prefix
	// caches advance monotonically during a split sweep. Positions are unique
	// across instances, so the sort order is total and deterministic.
	for idx, positions := range plan.ByInstance {
		for k := 0; k+1 < len(positions); k++ {
			ws.pairs = append(ws.pairs, splitPair{positions[k], positions[k+1], idx, k})
		}
	}
	slices.SortFunc(ws.pairs, func(a, b splitPair) int { return a.pa - b.pa })
	return ws
}
