package feedback

import (
	"context"
	"fmt"

	"repro/internal/task"
)

// Checkpoint/restore (DESIGN.md §9): a Controller is a deterministic fold of
// its observation stream, so its entire identity is (a) the fold state below
// and (b) the model the current schedule was solved against. A snapshot is
// therefore small and plain — estimator moments, detector accumulators,
// counters — and restore re-solves the model instead of deserialising
// schedules: the solve flows through the runner's content-addressed store,
// so on a warm restart it is a disk hit, and either way the rebuilt schedule
// is bit-identical to the one the snapshot's owner held (solves are pure).
// A controller restored from hyper-period k continues exactly as the
// original would have: same estimator states, same drift points, same
// re-solve points, same response bytes.

// TaskEstimatorState is the serialisable state of one TaskEstimator.
// Snapshots written before the estimator lost its histogram also carry
// "lo", "hi" and "bins"; decoding ignores them.
type TaskEstimatorState struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// PageHinkleyState is the serialisable state of the drift detector.
type PageHinkleyState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Up   float64 `json:"up"`
	Down float64 `json:"down"`
}

// ControllerState is a complete controller snapshot. Schedules are not part
// of it: Model is re-solved on restore (a store hit on a warm restart).
// All floats are finite, so the state survives JSON encoding exactly (Go
// renders float64 with round-trip precision).
type ControllerState struct {
	// Base is the stated task set the controller started from; Model is the
	// set the current schedule was solved against (equal to Base until the
	// first adaptation re-solve). Both are stored in set order, which
	// task.NewSet's stable sort preserves.
	Base  []task.Task `json:"base"`
	Model []task.Task `json:"model"`

	Life    []TaskEstimatorState `json:"life"`
	Relearn []TaskEstimatorState `json:"relearn"`
	Drift   PageHinkleyState     `json:"drift"`

	State       int     `json:"state"`
	RelearnLeft int     `json:"relearn_left"`
	Observed    int64   `json:"observed"`
	Resolves    int64   `json:"resolves"`
	DriftsFired int64   `json:"drifts_fired"`
	ResolveAt   []int64 `json:"resolve_at"`
}

func setEstimatorState(se *SetEstimator) []TaskEstimatorState {
	out := make([]TaskEstimatorState, len(se.tasks))
	for i, e := range se.tasks {
		out[i] = TaskEstimatorState{Count: e.count, Mean: e.mean, M2: e.m2, Min: e.min, Max: e.max}
	}
	return out
}

// Snapshot captures the controller's complete fold state. The caller owns
// serialisation; the state is plain data with no references back into the
// controller. Like every Controller method, Snapshot must be externally
// serialised with ObserveChunk.
func (c *Controller) Snapshot() *ControllerState {
	return &ControllerState{
		Base:        append([]task.Task(nil), c.base.Tasks...),
		Model:       append([]task.Task(nil), c.model.Tasks...),
		Life:        setEstimatorState(c.life),
		Relearn:     setEstimatorState(c.relearn),
		Drift:       PageHinkleyState{N: c.ph.n, Mean: c.ph.mean, Up: c.ph.up, Down: c.ph.down},
		State:       int(c.state),
		RelearnLeft: c.relearnLeft,
		Observed:    c.observed,
		Resolves:    c.resolves,
		DriftsFired: c.driftsFired,
		ResolveAt:   append([]int64(nil), c.resolveAt...),
	}
}

// restoreSetEstimator rebuilds a SetEstimator over set from snapshotted
// per-task states, validating shape (one state per task, no negative count)
// so a corrupted snapshot fails loudly instead of folding observations into
// garbage.
func restoreSetEstimator(set *task.Set, states []TaskEstimatorState) (*SetEstimator, error) {
	if len(states) != set.N() {
		return nil, fmt.Errorf("feedback: snapshot has %d estimators for %d tasks", len(states), set.N())
	}
	se := NewSetEstimator(set)
	for i, st := range states {
		// Welford's sum of squared deviations never goes negative; a
		// negative one would report a NaN standard deviation.
		if st.Count < 0 || st.M2 < 0 {
			return nil, fmt.Errorf("feedback: snapshot estimator %d has a negative count or M2", i)
		}
		se.tasks[i] = TaskEstimator{count: st.Count, mean: st.Mean, m2: st.M2, min: st.Min, max: st.Max}
	}
	return se, nil
}

// RestoreController rebuilds a controller from a snapshot under opts (the
// same options its original was constructed with — they are configuration,
// not state, so the session layer re-derives them from its own checkpoint).
// The model is re-solved through opts.Runner — a content-store hit on a warm
// restart, a fresh solve otherwise, bit-identical either way — and every
// fold counter is restored, so the controller continues the observation
// stream exactly where the snapshot left it. A model that is not the base
// set with other ACEC and BCEC is refused: no controller writes one, and
// the estimators, one per base task, index the model's tasks. ctx bounds
// the re-solve.
func RestoreController(ctx context.Context, st *ControllerState, opts Options) (*Controller, error) {
	if st == nil {
		return nil, fmt.Errorf("feedback: nil controller snapshot")
	}
	if st.State != int(Tracking) && st.State != int(Relearning) {
		return nil, fmt.Errorf("feedback: snapshot has unknown state %d", st.State)
	}
	if st.Observed < 0 || st.Resolves < 0 || st.DriftsFired < 0 || st.RelearnLeft < 0 {
		return nil, fmt.Errorf("feedback: snapshot has negative counters")
	}
	base, err := task.NewSet(append([]task.Task(nil), st.Base...))
	if err != nil {
		return nil, fmt.Errorf("feedback: snapshot base set: %w", err)
	}
	model, err := task.NewSet(append([]task.Task(nil), st.Model...))
	if err != nil {
		return nil, fmt.Errorf("feedback: snapshot model set: %w", err)
	}
	if !task.SameWorstCase(base, model) {
		return nil, fmt.Errorf("feedback: the model differs from the base set beyond ACEC and BCEC")
	}
	o := opts.withDefaults()
	if err := o.Drift.validate(); err != nil {
		return nil, err
	}
	c := &Controller{opts: o, base: base, state: State(st.State)}
	if c.life, err = restoreSetEstimator(base, st.Life); err != nil {
		return nil, err
	}
	if c.relearn, err = restoreSetEstimator(base, st.Relearn); err != nil {
		return nil, err
	}
	if c.ph, err = NewPageHinkley(o.Drift); err != nil {
		return nil, err
	}
	c.ph.n, c.ph.mean, c.ph.up, c.ph.down = st.Drift.N, st.Drift.Mean, st.Drift.Up, st.Drift.Down
	if err := c.resolve(ctx, model); err != nil {
		return nil, err
	}
	// resolve() advanced the adaptation counters as if this were a live
	// re-solve; the snapshot's history overrides them wholesale.
	c.observed = st.Observed
	c.resolves = st.Resolves
	c.driftsFired = st.DriftsFired
	c.resolveAt = append([]int64(nil), st.ResolveAt...)
	c.relearnLeft = st.RelearnLeft
	c.taskOf = make([]int, len(c.acs.Plan.Instances))
	for i := range c.taskOf {
		c.taskOf[i] = c.acs.Plan.Instances[i].TaskIndex
	}
	return c, nil
}
