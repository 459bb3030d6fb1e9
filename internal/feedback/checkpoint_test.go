package feedback

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/workload"
)

// feedRows feeds rows one hyper-period at a time, returning the decisions.
func feedRows(t *testing.T, c *Controller, rows [][]float64) []Decision {
	t.Helper()
	out := make([]Decision, len(rows))
	for i, row := range rows {
		d, err := c.ObserveChunk(context.Background(), [][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

// TestCheckpointRestoreContinuesIdentically is the warm-restart contract for
// adaptive sessions: a controller snapshotted at ANY hyper-period — before
// drift, mid-relearn, after a re-solve — then serialised through JSON and
// restored in a "fresh process" (new memo, new controller) continues the
// observation stream with the identical decisions, fingerprints, and final
// fold state as the uninterrupted original.
func TestCheckpointRestoreContinuesIdentically(t *testing.T) {
	set := loopSet(t)
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{
		Kind: workload.ModeSwitch, Seed: 3, SwitchEvery: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Runner: grid.New(2, grid.NewMemo())}
	ref, err := NewController(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sc.Actuals(120, ref.TaskOf())
	if err != nil {
		t.Fatal(err)
	}
	refDecisions := feedRows(t, ref, rows)
	refFinal := ref.Snapshot()

	// Locate the drift and re-solve points so the restore points cover every
	// phase: pre-drift, the hyper-period right after drift fired (freshly
	// relearning), mid-relearn, and post-re-solve.
	drift, resolve := -1, -1
	for i, d := range refDecisions {
		if d.Drift && drift < 0 {
			drift = i
		}
		if d.Resolved && resolve < 0 {
			resolve = i
		}
	}
	if drift < 0 || resolve < 0 {
		t.Fatalf("scenario fired no drift/re-solve (drift=%d resolve=%d) — restore coverage would be vacuous", drift, resolve)
	}
	points := []int{3, drift + 1, (drift + resolve) / 2, resolve + 4}

	coveredRelearning := false
	for _, k := range points {
		// Original process: observe the first k hyper-periods, snapshot, and
		// serialise the snapshot as the daemon's blob store would.
		orig, err := NewController(context.Background(), set, opts)
		if err != nil {
			t.Fatal(err)
		}
		feedRows(t, orig, rows[:k])
		blob, err := json.Marshal(orig.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var st ControllerState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		if State(st.State) == Relearning {
			coveredRelearning = true
		}
		// Fresh process: new options, new memo (cold cache — restore must not
		// depend on cache state), restore, continue the stream.
		restored, err := RestoreController(context.Background(), &st,
			Options{Runner: grid.New(1, grid.NewMemo())})
		if err != nil {
			t.Fatalf("restore at %d: %v", k, err)
		}
		if restored.Observed() != int64(k) || restored.Fingerprint() != refDecisions[k-1].Fingerprint {
			t.Fatalf("restore at %d resumed at observed=%d fp=%q", k, restored.Observed(), restored.Fingerprint())
		}
		got := feedRows(t, restored, rows[k:])
		if !reflect.DeepEqual(got, refDecisions[k:]) {
			t.Errorf("restore at %d: decision stream diverged from uninterrupted run", k)
		}
		if !reflect.DeepEqual(restored.Snapshot(), refFinal) {
			t.Errorf("restore at %d: final controller state diverged from uninterrupted run", k)
		}
	}
	if !coveredRelearning {
		t.Error("no restore point landed mid-relearn — coverage hole")
	}
}

// TestRestoreRejectsCorruptSnapshots: structurally damaged snapshots fail
// loudly instead of building a controller over garbage.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	set := loopSet(t)
	ctrl, err := NewController(context.Background(), set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := ctrl.Snapshot()
	damage := map[string]func(st *ControllerState){
		"nil":                 nil,
		"unknown state":       func(st *ControllerState) { st.State = 7 },
		"negative observed":   func(st *ControllerState) { st.Observed = -1 },
		"missing estimator":   func(st *ControllerState) { st.Life = st.Life[1:] },
		"negative count":      func(st *ControllerState) { st.Relearn[0].Count = -1 },
		"negative m2":         func(st *ControllerState) { st.Life[0].M2 = -1 },
		"empty base set":      func(st *ControllerState) { st.Base = nil },
		"model task mismatch": func(st *ControllerState) { st.Model = st.Model[1:] },
		"invalid model task":  func(st *ControllerState) { st.Model[0].WCEC = -1 },
		"model wcec moved":    func(st *ControllerState) { st.Model[0].WCEC *= 1.5 },
		"model period moved":  func(st *ControllerState) { st.Model[0].Period *= 2 },
		"model ceff moved":    func(st *ControllerState) { st.Model[1].Ceff *= 2 },
		"model task renamed":  func(st *ControllerState) { st.Model[1].Name += "x" },
		"model task added": func(st *ControllerState) {
			extra := st.Model[len(st.Model)-1]
			extra.Name += "x"
			extra.WCEC, extra.ACEC, extra.BCEC = extra.WCEC/100, extra.ACEC/100, extra.BCEC/100
			st.Model = append(st.Model, extra)
		},
	}
	for name, mutate := range damage {
		var st *ControllerState
		if mutate != nil {
			// Deep-copy through JSON so each case damages its own snapshot.
			blob, err := json.Marshal(good)
			if err != nil {
				t.Fatal(err)
			}
			st = new(ControllerState)
			if err := json.Unmarshal(blob, st); err != nil {
				t.Fatal(err)
			}
			mutate(st)
		}
		if _, err := RestoreController(context.Background(), st, Options{}); err == nil {
			t.Errorf("%s: restore accepted a damaged snapshot", name)
		}
	}
}
