// Package feedback closes the loop between the online runtime and the
// offline solver (DESIGN.md §8): bounded-memory streaming estimators learn
// each task's observed execution-cycle distribution from per-job
// observations, a deterministic drift detector decides when the learned
// distribution has diverged from the one the current schedule was solved
// against, and an adaptation controller rebuilds the task set's average-case
// model and re-solves it with the serving layer's own pipeline (a one-core
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

// TaskEstimator is a bounded-memory streaming estimator of one task's actual
// execution cycles: online mean/variance (Welford), observed min/max, and a
// fixed-bin histogram over the task's [BCEC, WCEC] support. Memory is
// constant (the bin count is fixed at construction); updates are pure float
// folds of the observation order, so two estimators fed the same sequence
// are bit-identical; and estimators over equal supports merge associatively
// block-by-block (Chan et al.'s parallel variance combination).
type TaskEstimator struct {
	lo, hi float64
	count  int64
	mean   float64
	m2     float64 // Σ (x − mean)²: Welford's running sum of squared deviations
	min    float64
	max    float64
	bins   []int64
}

// NewTaskEstimator returns an estimator over the support [lo, hi] with the
// given histogram resolution (bins ≥ 1).
func NewTaskEstimator(lo, hi float64, bins int) (*TaskEstimator, error) {
	if !(hi > lo) {
		return nil, fmt.Errorf("feedback: estimator support [%g, %g] is empty", lo, hi)
	}
	if bins < 1 {
		return nil, fmt.Errorf("feedback: estimator needs at least one bin, got %d", bins)
	}
	return &TaskEstimator{lo: lo, hi: hi, bins: make([]int64, bins)}, nil
}

// Observe folds one execution-cycle observation into the estimator.
// Observations are clamped into the support for binning (the generators
// guarantee the support, but a defensive clamp keeps the histogram total
// equal to the count under any input).
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
	b := int(float64(len(e.bins)) * (x - e.lo) / (e.hi - e.lo))
	if b < 0 {
		b = 0
	}
	if b >= len(e.bins) {
		b = len(e.bins) - 1
	}
	e.bins[b]++
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

// Histogram returns a copy of the bin counts.
func (e *TaskEstimator) Histogram() []int64 {
	return append([]int64(nil), e.bins...)
}

// Quantile returns the p-quantile estimated from the histogram (linear
// interpolation within the selected bin). It returns the support midpoint
// before any observation.
func (e *TaskEstimator) Quantile(p float64) float64 {
	if e.count == 0 {
		return 0.5 * (e.lo + e.hi)
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(e.count)
	var cum float64
	width := (e.hi - e.lo) / float64(len(e.bins))
	for b, n := range e.bins {
		next := cum + float64(n)
		if next >= target && n > 0 {
			frac := 0.0
			if n > 0 {
				frac = (target - cum) / float64(n)
			}
			return e.lo + (float64(b)+frac)*width
		}
		cum = next
	}
	return e.hi
}

// Merge folds o's observations into e as one block (Chan et al.): the result
// is a deterministic function of the two summaries and is exact for count,
// min/max, histogram and mean/m2 up to float association. Supports and bin
// counts must match.
func (e *TaskEstimator) Merge(o *TaskEstimator) error {
	if e.lo != o.lo || e.hi != o.hi || len(e.bins) != len(o.bins) {
		return fmt.Errorf("feedback: merging estimators with different supports or resolutions")
	}
	if o.count == 0 {
		return nil
	}
	if e.count == 0 {
		*e = TaskEstimator{lo: e.lo, hi: e.hi, count: o.count, mean: o.mean,
			m2: o.m2, min: o.min, max: o.max, bins: e.bins}
		copy(e.bins, o.bins)
		return nil
	}
	na, nb := float64(e.count), float64(o.count)
	d := o.mean - e.mean
	n := na + nb
	e.mean += d * nb / n
	e.m2 += o.m2 + d*d*na*nb/n
	e.count += o.count
	if o.min < e.min {
		e.min = o.min
	}
	if o.max > e.max {
		e.max = o.max
	}
	for b := range e.bins {
		e.bins[b] += o.bins[b]
	}
	return nil
}

// Reset drops every observation, keeping support and resolution.
func (e *TaskEstimator) Reset() {
	e.count, e.mean, e.m2, e.min, e.max = 0, 0, 0, 0, 0
	for b := range e.bins {
		e.bins[b] = 0
	}
}

// SetEstimator aggregates one TaskEstimator per task of a set, fed from
// per-instance observation rows in plan order.
type SetEstimator struct {
	set   *task.Set
	tasks []*TaskEstimator
}

// NewSetEstimator builds estimators over each task's [BCEC, WCEC] support.
// Tasks whose BCEC equals WCEC (no variation possible) get a degenerate
// ±0.5% support around the common value so binning stays well-defined.
func NewSetEstimator(set *task.Set, bins int) (*SetEstimator, error) {
	if set == nil || set.N() == 0 {
		return nil, fmt.Errorf("feedback: estimator needs a non-empty task set")
	}
	se := &SetEstimator{set: set, tasks: make([]*TaskEstimator, set.N())}
	for i := range se.tasks {
		t := &set.Tasks[i]
		lo, hi := t.BCEC, t.WCEC
		if !(hi > lo) {
			lo, hi = 0.995*t.WCEC, 1.005*t.WCEC
		}
		e, err := NewTaskEstimator(lo, hi, bins)
		if err != nil {
			return nil, fmt.Errorf("feedback: task %q: %w", t.Name, err)
		}
		se.tasks[i] = e
	}
	return se, nil
}

// Task returns task i's estimator.
func (se *SetEstimator) Task(i int) *TaskEstimator { return se.tasks[i] }

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

// Merge folds o's per-task estimators into se block-by-block.
func (se *SetEstimator) Merge(o *SetEstimator) error {
	if len(se.tasks) != len(o.tasks) {
		return fmt.Errorf("feedback: merging estimators over different task counts")
	}
	for i := range se.tasks {
		if err := se.tasks[i].Merge(o.tasks[i]); err != nil {
			return err
		}
	}
	return nil
}

// Reset drops all observations.
func (se *SetEstimator) Reset() {
	for _, e := range se.tasks {
		e.Reset()
	}
}

// AdaptedSet returns a copy of the base set whose ACEC is each task's
// estimated mean clamped into [BCEC, WCEC] — the average-case model a
// re-solve runs against. Tasks with fewer than minCount observations keep
// their stated ACEC (too little evidence to move the model).
func (se *SetEstimator) AdaptedSet(minCount int64) (*task.Set, error) {
	ts := append([]task.Task(nil), se.set.Tasks...)
	for i := range ts {
		e := se.tasks[i]
		if e.count < minCount {
			continue
		}
		ts[i].ACEC = math.Min(ts[i].WCEC, math.Max(ts[i].BCEC, e.mean))
	}
	return task.NewSet(ts)
}
