// Package feedback closes the loop between the online runtime and the
// offline solver (DESIGN.md §8): constant-memory streaming estimators learn
// each task's observed execution-cycle moments from per-job observations, a
// deterministic drift detector decides when the observed work has diverged
// from what the model the current schedule was solved against predicts,
// and an adaptation controller rebuilds the task set's average-case model
// and re-solves it with the serving layer's own pipeline (a one-core
// partition.Solve: the shared WCS, then a warm-started ACS), hot-swapping
// the compiled plan at a hyper-period boundary.
//
// Everything in the package is deterministic: estimators and the drift
// detector are pure fold functions of the observation sequence, and the
// controller's re-solve points are a function of the observation history
// alone — never of worker count, cache state, or timing. That is what lets
// the closed loop inherit the repository-wide byte-determinism contract.
package feedback

import (
	"fmt"
	"math"

	"repro/internal/task"
)

// TaskEstimator is a constant-memory streaming estimator of one task's
// actual execution cycles: online mean/variance (Welford) and observed
// min/max. Updates are pure float folds of the observation order, so two
// estimators fed the same sequence are bit-identical. The zero value is
// ready to use.
type TaskEstimator struct {
	count int64
	mean  float64
	m2    float64 // Σ (x − mean)²: Welford's running sum of squared deviations
	min   float64
	max   float64
}

// Observe folds one execution-cycle observation into the estimator.
func (e *TaskEstimator) Observe(x float64) {
	e.count++
	d := x - e.mean
	e.mean += d / float64(e.count)
	e.m2 += d * (x - e.mean)
	if e.count == 1 || x < e.min {
		e.min = x
	}
	if e.count == 1 || x > e.max {
		e.max = x
	}
}

// Count returns the number of observations folded in.
func (e *TaskEstimator) Count() int64 { return e.count }

// Mean returns the streaming mean (0 before any observation).
func (e *TaskEstimator) Mean() float64 { return e.mean }

// Variance returns the (population) variance of the observations.
func (e *TaskEstimator) Variance() float64 {
	if e.count < 2 {
		return 0
	}
	return e.m2 / float64(e.count)
}

// Std returns the standard deviation.
func (e *TaskEstimator) Std() float64 { return math.Sqrt(e.Variance()) }

// Min and Max return the observed extremes (0 before any observation).
func (e *TaskEstimator) Min() float64 { return e.min }
func (e *TaskEstimator) Max() float64 { return e.max }

// Reset drops every observation.
func (e *TaskEstimator) Reset() { *e = TaskEstimator{} }

// SetEstimator aggregates one TaskEstimator per task of a set, fed from
// per-instance observation rows in plan order.
type SetEstimator struct {
	set   *task.Set
	tasks []TaskEstimator
}

// NewSetEstimator returns one empty estimator per task of set.
func NewSetEstimator(set *task.Set) *SetEstimator {
	return &SetEstimator{set: set, tasks: make([]TaskEstimator, set.N())}
}

// Task returns task i's estimator.
func (se *SetEstimator) Task(i int) *TaskEstimator { return &se.tasks[i] }

// ObserveInstances folds one hyper-period's per-instance observations:
// taskOf[i] is the owning task of instance i (the preemptive plan's
// Instances order), actual[i] its observed cycles.
func (se *SetEstimator) ObserveInstances(taskOf []int, actual []float64) error {
	if len(taskOf) != len(actual) {
		return fmt.Errorf("feedback: %d instances but %d observations", len(taskOf), len(actual))
	}
	for i, t := range taskOf {
		if t < 0 || t >= len(se.tasks) {
			return fmt.Errorf("feedback: instance %d names task %d of %d", i, t, len(se.tasks))
		}
		se.tasks[t].Observe(actual[i])
	}
	return nil
}

// Reset drops all observations.
func (se *SetEstimator) Reset() {
	for i := range se.tasks {
		se.tasks[i].Reset()
	}
}

// AdaptedSet returns a copy of the base set whose ACEC is each task's
// estimated mean clamped into [BCEC, WCEC] — the average-case model a
// re-solve runs against. Tasks with fewer than minCount observations keep
// their stated ACEC (too little evidence to move the model).
func (se *SetEstimator) AdaptedSet(minCount int64) (*task.Set, error) {
	ts := append([]task.Task(nil), se.set.Tasks...)
	for i := range ts {
		e := &se.tasks[i]
		if e.count < minCount {
			continue
		}
		ts[i].ACEC = math.Min(ts[i].WCEC, math.Max(ts[i].BCEC, e.mean))
	}
	return task.NewSet(ts)
}
