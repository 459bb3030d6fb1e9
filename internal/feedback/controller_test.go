package feedback

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

func loopSet(t *testing.T) *task.Set {
	t.Helper()
	rng := stats.NewRNG(1)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{N: 4, Ratio: 0.1, Utilization: 0.7}, 50,
		func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func runLoop(t *testing.T, set *task.Set, kind workload.ScenarioKind, memo *grid.Memo, simWorkers int) *LoopResult {
	t.Helper()
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: kind, Seed: 3, SwitchEvery: 80, DriftOver: 160})
	if err != nil {
		t.Fatal(err)
	}
	// Vary the grid pool width alongside the sim worker count: neither may
	// influence a single byte of the loop result.
	ctrl, err := NewController(context.Background(), set, Options{Runner: grid.New(1+simWorkers%4, memo)})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sc.Actuals(240, ctrl.TaskOf())
	if err != nil {
		t.Fatal(err)
	}
	lr, err := RunReplay(context.Background(), ctrl, rows, 10,
		sim.Config{Policy: sim.Greedy, Workers: simWorkers})
	if err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestClosedLoopDeterminism is the subsystem's headline contract: for fixed
// seeds the whole adaptive run — total energy, drift firings, the re-solve
// points chosen by the detector, every fingerprint that executed — is
// byte-identical across sim worker counts and cache on/off. Run in CI under
// -race.
func TestClosedLoopDeterminism(t *testing.T) {
	set := loopSet(t)
	ref := runLoop(t, set, workload.ModeSwitch, grid.NewMemo(), 1)
	if ref.Resolves == 0 {
		t.Fatal("mode switch triggered no re-solves — the determinism check would be vacuous")
	}
	for _, workers := range []int{2, 8} {
		if got := runLoop(t, set, workload.ModeSwitch, grid.NewMemo(), workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("%d sim workers: loop differs from serial:\n%+v\nvs\n%+v", workers, got, ref)
		}
	}
	// Cache off entirely, and a shared warm cache, both reproduce the bytes.
	if got := runLoop(t, set, workload.ModeSwitch, nil, 2); !reflect.DeepEqual(got, ref) {
		t.Errorf("cache-off loop differs:\n%+v\nvs\n%+v", got, ref)
	}
	warm := grid.NewMemo()
	runLoop(t, set, workload.ModeSwitch, warm, 1)
	if got := runLoop(t, set, workload.ModeSwitch, warm, 4); !reflect.DeepEqual(got, ref) {
		t.Errorf("warm-cache loop differs:\n%+v\nvs\n%+v", got, ref)
	}
}

// TestClosedLoopStationaryMatchesStatic: under the stated model no drift
// fires, no re-solve happens, and the adaptive run's execution equals the
// static schedule's run on the same stream exactly.
func TestClosedLoopStationaryMatchesStatic(t *testing.T) {
	set := loopSet(t)
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.Stationary, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(context.Background(), set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	staticPlan := ctrl.Plan()
	rows, err := sc.Actuals(240, ctrl.TaskOf())
	if err != nil {
		t.Fatal(err)
	}
	// Execute the static arm with the loop's own chunking so the energy
	// comparison is exact (chunked summation associates floats per chunk).
	var staticEnergy float64
	for lo := 0; lo < len(rows); lo += 10 {
		r, err := staticPlan.RunActuals(sim.Config{Policy: sim.Greedy}, rows[lo:lo+10])
		if err != nil {
			t.Fatal(err)
		}
		staticEnergy += r.Energy
	}
	lr, err := RunReplay(context.Background(), ctrl, rows, 10, sim.Config{Policy: sim.Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Resolves != 0 || lr.Drifts != 0 {
		t.Errorf("stationary run re-solved %d times (%d drifts) — false positives", lr.Resolves, lr.Drifts)
	}
	if lr.Energy != staticEnergy {
		t.Errorf("stationary adaptive energy %g differs from static %g", lr.Energy, staticEnergy)
	}
	if lr.DeadlineMisses != 0 {
		t.Errorf("%d deadline misses", lr.DeadlineMisses)
	}
	if ctrl.Observed() != 240 {
		t.Errorf("observed %d hyper-periods, want 240", ctrl.Observed())
	}
}

// TestClosedLoopAdaptiveBeatsStatic: on nonstationary scenarios the adaptive
// loop re-solves and lands strictly below the static schedule's energy on
// the identical workload stream, with no deadline misses (adaptation never
// touches the worst-case model).
func TestClosedLoopAdaptiveBeatsStatic(t *testing.T) {
	set := loopSet(t)
	for _, kind := range []workload.ScenarioKind{workload.ModeSwitch, workload.DriftingMean} {
		sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: kind, Seed: 3, SwitchEvery: 80, DriftOver: 160})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewController(context.Background(), set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		staticPlan := ctrl.Plan()
		rows, err := sc.Actuals(240, ctrl.TaskOf())
		if err != nil {
			t.Fatal(err)
		}
		rs, err := staticPlan.RunActuals(sim.Config{Policy: sim.Greedy}, rows)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := RunReplay(context.Background(), ctrl, rows, 10, sim.Config{Policy: sim.Greedy})
		if err != nil {
			t.Fatal(err)
		}
		if lr.Resolves == 0 {
			t.Errorf("%v: no re-solves — drift never detected", kind)
		}
		if lr.Energy >= rs.Energy {
			t.Errorf("%v: adaptive energy %g not below static %g", kind, lr.Energy, rs.Energy)
		}
		if lr.DeadlineMisses != 0 {
			t.Errorf("%v: %d deadline misses", kind, lr.DeadlineMisses)
		}
		if len(lr.Fingerprints) != int(lr.Resolves)+1 {
			t.Errorf("%v: %d fingerprints for %d resolves", kind, len(lr.Fingerprints), lr.Resolves)
		}
		for i := 1; i < len(lr.Fingerprints); i++ {
			if lr.Fingerprints[i] == lr.Fingerprints[0] && lr.Fingerprints[i] != "" {
				// A later regime may legitimately re-learn the base model,
				// but the first adaptation must move the schedule.
				if i == 1 {
					t.Errorf("%v: first re-solve produced the initial fingerprint", kind)
				}
			}
		}
	}
}

// TestObserveChunkingTransparent: the same observation stream fed in chunks
// of 1, 7 and 240 produces identical drift points, fingerprints and final
// estimator state — chunk boundaries are invisible to the controller.
func TestObserveChunkingTransparent(t *testing.T) {
	set := loopSet(t)
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: 5, SwitchEvery: 60})
	if err != nil {
		t.Fatal(err)
	}
	memo := grid.NewMemo()
	mk := func() *Controller {
		c, err := NewController(context.Background(), set, Options{Runner: grid.New(1, memo)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	first := mk()
	rows, err := sc.Actuals(150, first.TaskOf())
	if err != nil {
		t.Fatal(err)
	}
	type trace struct {
		Swaps        []int64
		Fingerprint  string
		Resolves     int64
		Drifts       int64
		LifeMean     []float64
		ObservedHyps int64
	}
	observe := func(ctrl *Controller, chunk int) trace {
		for lo := 0; lo < len(rows); lo += chunk {
			hi := lo + chunk
			if hi > len(rows) {
				hi = len(rows)
			}
			if _, err := ctrl.ObserveChunk(context.Background(), rows[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		tr := trace{
			Swaps:        ctrl.ResolveHyperperiods(),
			Fingerprint:  ctrl.Fingerprint(),
			Resolves:     ctrl.Resolves(),
			Drifts:       ctrl.DriftsFired(),
			ObservedHyps: ctrl.Observed(),
		}
		for i := 0; i < set.N(); i++ {
			tr.LifeMean = append(tr.LifeMean, ctrl.Lifetime().Task(i).Mean())
		}
		return tr
	}
	ref := observe(first, 1)
	if ref.Resolves == 0 {
		t.Fatal("no re-solves — chunking transparency would be vacuous")
	}
	for _, chunk := range []int{7, len(rows)} {
		if got := observe(mk(), chunk); !reflect.DeepEqual(got, ref) {
			t.Errorf("chunk=%d trace differs:\n%+v\nvs\n%+v", chunk, got, ref)
		}
	}
}

// TestResolveReusesBaseWCS: a re-solve looks up the base set's WCS, which
// the controller's first solve left in the memo, and builds only the ACS of
// the adapted model — one schedule hit and one schedule miss per re-solve,
// and no schedule lookup at all between re-solves.
func TestResolveReusesBaseWCS(t *testing.T) {
	set := loopSet(t)
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: 3, SwitchEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	memo := grid.NewMemo()
	ctrl, err := NewController(context.Background(), set, Options{Runner: grid.New(1, memo)})
	if err != nil {
		t.Fatal(err)
	}
	if st := memo.Stats(); st.ScheduleMisses != 2 || st.ScheduleHits != 0 {
		t.Fatalf("session create: %d schedule misses, %d hits; want the base WCS and ACS built once",
			st.ScheduleMisses, st.ScheduleHits)
	}
	rows, err := sc.Actuals(160, ctrl.TaskOf())
	if err != nil {
		t.Fatal(err)
	}
	prev := memo.Stats()
	for i, row := range rows {
		d, err := ctrl.ObserveChunk(context.Background(), [][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		st := memo.Stats()
		hits, misses := st.ScheduleHits-prev.ScheduleHits, st.ScheduleMisses-prev.ScheduleMisses
		want := int64(0)
		if d.Resolved {
			want = 1
		}
		if hits != want || misses != want {
			t.Errorf("hyper-period %d (resolved %v): %d schedule hits, %d misses; want %d and %d",
				i, d.Resolved, hits, misses, want, want)
		}
		prev = st
	}
	if ctrl.Resolves() < 2 {
		t.Fatalf("%d re-solves; the stream must adapt more than once", ctrl.Resolves())
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(context.Background(), nil, Options{}); err == nil {
		t.Error("nil set accepted")
	}
	set := loopSet(t)
	ctrl, err := NewController(context.Background(), set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.ObserveChunk(context.Background(), [][]float64{make([]float64, len(ctrl.TaskOf())+2)}); err == nil {
		t.Error("wrong-width observation accepted")
	}
	// A value outside [0, WCEC] in a later row refuses the whole batch
	// before its first row is folded.
	valid := make([]float64, len(ctrl.TaskOf()))
	last := set.Tasks[ctrl.TaskOf()[len(valid)-1]].WCEC
	for _, x := range []float64{-1, math.Nextafter(last, math.Inf(1)), 1e200, math.NaN()} {
		bad := append([]float64(nil), valid...)
		bad[len(bad)-1] = x
		if _, err := ctrl.ObserveChunk(context.Background(), [][]float64{valid, bad}); err == nil || ctrl.Observed() != 0 {
			t.Errorf("an observation of %g cycles accepted (%d hyper-periods folded)", x, ctrl.Observed())
		}
	}
	valid[len(valid)-1] = last
	if _, err := ctrl.ObserveChunk(context.Background(), [][]float64{valid}); err != nil {
		t.Errorf("observations of 0 and WCEC cycles refused: %v", err)
	}
	if ctrl.Fingerprint() == "" {
		t.Error("default-model schedule has no fingerprint")
	}
	if ctrl.State() != Tracking {
		t.Error("fresh controller not tracking")
	}
	if got := Tracking.String() + Relearning.String(); got != "trackingrelearning" {
		t.Errorf("state names: %q", got)
	}
	if _, err := RunReplay(context.Background(), ctrl, nil, 1, sim.Config{}); err == nil {
		t.Error("empty observation stream accepted")
	}
}
