package partition

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// genSet draws a deterministic feasible M-core set. The period pool is
// coarser than the paper default (fewer instances per hyper-period) so the
// suite's many solves stay cheap.
func genSet(t testing.TB, seed uint64, n, cores int) *task.Set {
	t.Helper()
	rng := stats.NewRNG(seed)
	cfg := workload.RandomConfig{
		N: n, Ratio: 0.5, Utilization: 0.7, Cores: cores,
		Periods: []int64{25, 50, 100, 200},
	}
	set, err := workload.RandomFeasible(rng, cfg, 100, func(s *task.Set) bool {
		_, err := Admit(s, Config{Cores: cores})
		return err == nil
	})
	if err != nil {
		t.Fatalf("genSet(seed=%d, n=%d, cores=%d): %v", seed, n, cores, err)
	}
	return set
}

// solverCfg bounds sweeps well below the production default: every test
// here compares solver outputs against each other (identity, determinism,
// solve counts), so convergence depth is irrelevant — only that both sides
// run the identical config.
func solverCfg() core.Config {
	return core.Config{Objective: core.AverageCase, Starts: 1, MaxSweeps: 16}
}

// TestPartitionM1ByteIdentity pins the M=1 degeneration property: the
// partitioned path with one core must reproduce the single-core solver
// output exactly — same grid fingerprints, same encoded schedule bytes —
// across a spread of random sets. The partitioner must be a pure lift, not
// a reimplementation.
func TestPartitionM1ByteIdentity(t *testing.T) {
	r := grid.New(4, grid.NewMemo())
	for seed := uint64(1); seed <= 6; seed++ {
		set := genSet(t, seed, 5, 1)
		res, err := Solve(context.Background(), r, set, Config{Cores: 1, Solver: solverCfg()})
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if len(res.Cores) != 1 || res.Cores[0].Set == nil {
			t.Fatalf("seed %d: want 1 populated core, got %+v", seed, res.Assignment)
		}

		// Direct single-core reference, bypassing partition entirely.
		direct := grid.New(4, grid.NewMemo())
		wcsCfg := solverCfg()
		wcsCfg.Objective = core.WorstCase
		wcs, err := direct.BuildSchedule(set, wcsCfg)
		if err != nil {
			t.Fatalf("seed %d: direct wcs: %v", seed, err)
		}
		acsCfg := solverCfg()
		acsCfg.WarmStart = wcs
		acs, err := direct.BuildSchedule(set, acsCfg)
		if err != nil {
			t.Fatalf("seed %d: direct acs: %v", seed, err)
		}

		// The single-core fingerprint: the request's config, no warm start.
		key, ok := grid.ScheduleKey(set, solverCfg())
		if !ok {
			t.Fatalf("seed %d: config not encodable", seed)
		}
		if res.Cores[0].Key != key.String() {
			t.Errorf("seed %d: core fingerprint %s != direct %s", seed, res.Cores[0].Key, key)
		}
		gotBytes, err := core.EncodeSchedule(res.Cores[0].ACS)
		if err != nil {
			t.Fatalf("seed %d: encode partitioned: %v", seed, err)
		}
		wantBytes, err := core.EncodeSchedule(acs)
		if err != nil {
			t.Fatalf("seed %d: encode direct: %v", seed, err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("seed %d: partitioned M=1 schedule bytes differ from direct solve", seed)
		}
		if res.Energy != acs.Energy {
			t.Errorf("seed %d: global energy %g != direct ACS energy %g", seed, res.Energy, acs.Energy)
		}
	}
}

// TestPartitionSolveSharing pins the memo-reuse contract (the analogue of
// the grid suite's TestCrossHarnessSolveSharing): solving an assignment
// costs one WCS + one ACS miss per non-empty core, and repartitioning that
// changes a single core's subset re-solves only that core.
func TestPartitionSolveSharing(t *testing.T) {
	memo := grid.NewMemo()
	r := grid.New(4, memo)
	set := genSet(t, 3, 6, 3)
	cfg := Config{Cores: 3, Solver: solverCfg()}

	res, err := Solve(context.Background(), r, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := memo.Stats().ScheduleMisses
	occupied := 0
	for _, cs := range res.Cores {
		if cs.Set != nil {
			occupied++
		}
	}
	if base != int64(2*occupied) {
		t.Fatalf("initial solve: %d schedule misses, want %d (WCS+ACS per occupied core)", base, 2*occupied)
	}

	// Re-solving the identical assignment must be all memo hits.
	if _, bad, err := solveCores(context.Background(), r, set, res.Assignment, cfg); err != nil || bad >= 0 {
		t.Fatalf("identical re-solve: core %d infeasible, err %v", bad, err)
	}
	if got := memo.Stats().ScheduleMisses; got != base {
		t.Fatalf("identical re-solve: misses %d → %d, want no new solves", base, got)
	}

	// Repartition that changes exactly one core: add one small task to the
	// least-loaded core. Every other core's subset is content-identical
	// (same tasks, same parameters), so only the touched core re-solves:
	// +2 misses (its WCS and ACS), everything else memo hits.
	model := power.DefaultModel()
	tcMax := model.CycleTime(model.VMax())
	extra := task.Task{Name: "XTRA", Period: 200, Ceff: 1}
	extra.WCEC = 0.05 * float64(extra.Period) / tcMax
	extra.BCEC = 0.5 * extra.WCEC
	extra.ACEC = 0.75 * extra.WCEC
	set2, err := task.NewSet(append(append([]task.Task(nil), set.Tasks...), extra))
	if err != nil {
		t.Fatal(err)
	}
	indexOf := make(map[string]int, set2.N())
	for i := range set2.Tasks {
		indexOf[set2.Tasks[i].Name] = i
	}
	target, targetU := 0, math.Inf(1)
	for c, idxs := range res.Assignment {
		u := 0.0
		for _, ti := range idxs {
			u += utilization(&set.Tasks[ti], tcMax)
		}
		if u < targetU {
			target, targetU = c, u
		}
	}
	asg2 := make(Assignment, len(res.Assignment))
	for c, idxs := range res.Assignment {
		for _, ti := range idxs {
			asg2[c] = append(asg2[c], indexOf[set.Tasks[ti].Name])
		}
	}
	asg2[target] = append(asg2[target], indexOf["XTRA"])
	for c := range asg2 {
		sort.Ints(asg2[c])
	}
	if _, bad, err := solveCores(context.Background(), r, set2, asg2, cfg); err != nil || bad >= 0 {
		t.Fatalf("one-core repartition: core %d infeasible, err %v", bad, err)
	}
	if got, want := memo.Stats().ScheduleMisses, base+2; got != want {
		t.Fatalf("one-core repartition: misses %d, want %d (only the touched core re-solves)", got, want)
	}
}

// TestPartitionMoveDeterminism pins the standing determinism contract for
// the improvement loop: identical assignments, energies, accepted-move
// counts, and encoded schedules for any worker count, cache on or off. The
// set enumerates more than moveCandidates moves, so each round samples.
func TestPartitionMoveDeterminism(t *testing.T) {
	set := genSet(t, 7, 8, 4)
	cfg := Config{Cores: 4, Mode: WorstFit, Moves: 2, Solver: solverCfg()}
	asg, err := Admit(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(enumerateMoves(asg, asg.homes(set.N()))); n <= moveCandidates {
		t.Fatalf("%d candidate moves: the first round would not sample", n)
	}

	type outcome struct {
		asg      Assignment
		energy   float64
		accepted int
		encoded  [][]byte
	}
	run := func(workers int, cached bool) outcome {
		var memo *grid.Memo
		if cached {
			memo = grid.NewMemo()
		}
		r := grid.New(workers, memo)
		res, err := Solve(context.Background(), r, set, cfg)
		if err != nil {
			t.Fatalf("workers=%d cached=%v: %v", workers, cached, err)
		}
		out := outcome{asg: res.Assignment, energy: res.Energy, accepted: res.AcceptedMoves}
		for _, cs := range res.Cores {
			if cs.Set == nil {
				out.encoded = append(out.encoded, nil)
				continue
			}
			enc, err := core.EncodeSchedule(cs.Schedule())
			if err != nil {
				t.Fatal(err)
			}
			out.encoded = append(out.encoded, enc)
		}
		return out
	}

	ref := run(1, false)
	for _, workers := range []int{1, 2, 8} {
		for _, cached := range []bool{false, true} {
			got := run(workers, cached)
			if got.energy != ref.energy || got.accepted != ref.accepted {
				t.Fatalf("workers=%d cached=%v: (energy, moves) = (%g, %d), ref (%g, %d)",
					workers, cached, got.energy, got.accepted, ref.energy, ref.accepted)
			}
			for c := range ref.asg {
				if len(got.asg[c]) != len(ref.asg[c]) {
					t.Fatalf("workers=%d cached=%v: core %d assignment diverged", workers, cached, c)
				}
				for j := range ref.asg[c] {
					if got.asg[c][j] != ref.asg[c][j] {
						t.Fatalf("workers=%d cached=%v: core %d assignment diverged", workers, cached, c)
					}
				}
				if !bytes.Equal(got.encoded[c], ref.encoded[c]) {
					t.Fatalf("workers=%d cached=%v: core %d schedule bytes diverged", workers, cached, c)
				}
			}
		}
	}
}

// TestPartitionDegradeOnlyAffectedCore pins the degraded contract: a single
// core's expired ACS budget degrades that core — and only that core — to
// its WCS schedule; the others keep their full ACS solves.
func TestPartitionDegradeOnlyAffectedCore(t *testing.T) {
	r := grid.New(4, nil) // no memo: a cached ACS would dodge the budget
	set := genSet(t, 5, 6, 2)
	cfg := Config{Cores: 2, Solver: solverCfg()}
	cfg.budgetFor = func(coreIdx int) time.Duration {
		if coreIdx == 1 {
			return time.Nanosecond // expires before the first sweep, deterministically
		}
		return 0
	}
	res, err := Solve(context.Background(), r, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 || res.Cores[0].Set == nil || res.Cores[1].Set == nil {
		t.Fatalf("want both cores occupied, got %v", res.Assignment)
	}
	if res.Cores[0].Degraded || res.Cores[0].ACS == nil {
		t.Errorf("core 0 (unbudgeted) must serve full ACS: degraded=%v acs=%v",
			res.Cores[0].Degraded, res.Cores[0].ACS != nil)
	}
	if !res.Cores[1].Degraded || res.Cores[1].ACS != nil || res.Cores[1].WCS == nil {
		t.Errorf("core 1 (1ns budget) must degrade to WCS: degraded=%v acs=%v wcs=%v",
			res.Cores[1].Degraded, res.Cores[1].ACS != nil, res.Cores[1].WCS != nil)
	}
	if !res.Degraded() {
		t.Error("Result.Degraded() must report the degraded core")
	}
	// The degraded core contributes its WCS energy to the global objective.
	want := res.Cores[0].ACS.Energy + res.Cores[1].WCS.Energy
	if res.Energy != want {
		t.Errorf("global energy %g, want ACS₀+WCS₁ = %g", res.Energy, want)
	}
}

// TestPartitionAdmit covers the packing layer: FFD vs worst-fit shapes,
// validation, and failure when the set cannot fit.
func TestPartitionAdmit(t *testing.T) {
	set := genSet(t, 11, 7, 2)
	for _, mode := range []Mode{FirstFitDecreasing, WorstFit} {
		asg, err := Admit(set, Config{Cores: 2, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := asg.Validate(set.N()); err != nil {
			t.Fatalf("%v: invalid assignment: %v", mode, err)
		}
	}
	// Worst-fit must never leave a core empty while another holds 2+ tasks
	// (it always prefers the emptiest feasible core).
	asg, err := Admit(set, Config{Cores: 2, Mode: WorstFit})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg[0]) == 0 || len(asg[1]) == 0 {
		t.Errorf("worst-fit left a core empty: %v", asg)
	}
	// A 2-core set squeezed onto 1 core must fail admission.
	if _, err := Admit(set, Config{Cores: 1}); err == nil {
		t.Error("2-core-utilisation set admitted onto 1 core")
	}
	if _, err := Admit(set, Config{Cores: 0}); err == nil {
		t.Error("Cores=0 accepted")
	}
}

// TestPartitionFingerprint pins what the partition fingerprint does and
// does not depend on.
func TestPartitionFingerprint(t *testing.T) {
	set := genSet(t, 2, 6, 2)
	base := Config{Cores: 2, Solver: solverCfg()}
	fp := func(c Config) string {
		s, ok := Fingerprint(set, c)
		if !ok {
			t.Fatal("config not encodable")
		}
		return s
	}
	ref := fp(base)

	budgeted := base
	budgeted.ACSBudget = time.Second
	if fp(budgeted) != ref {
		t.Error("ACSBudget (load policy) must not change the fingerprint")
	}
	twoMore := base
	twoMore.Cores = 3
	if fp(twoMore) == ref {
		t.Error("core count must change the fingerprint")
	}
	wf := base
	wf.Mode = WorstFit
	if fp(wf) == ref {
		t.Error("packing mode must change the fingerprint")
	}
	moving := base
	moving.Moves = 2
	if fp(moving) == ref {
		t.Error("Moves must change the fingerprint")
	}
}

// TestPartitionFingerprintPinned pins literal partition fingerprints: a
// moving config (E11's two improvement rounds, whose fingerprint hashes the
// move seed and candidate bound) and a config with the loop off. A served
// "cores" fingerprint is the second kind, so a change to either hash moves
// every stored partitioned request.
func TestPartitionFingerprintPinned(t *testing.T) {
	set := genSet(t, 2, 6, 2)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"moves2", Config{Cores: 2, Mode: WorstFit, Moves: 2, Solver: solverCfg()}, "07683cd352d4825ef6cb292bf49f72612759527249b850eaa0f4c93c460759f7"},
		{"moves0", Config{Cores: 2, Solver: solverCfg()}, "dd55451d2daa252a20c83d6a3f43186c7c7da79d73b6aefca62647d4a5b3d437"},
	} {
		got, ok := Fingerprint(set, tc.cfg)
		if !ok {
			t.Fatalf("%s: config not encodable", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestPartitionOneCoreFingerprint pins the one-core rule for fingerprints:
// one core packs nothing, so the fingerprint is the single-core schedule
// key, and the packing mode and move knobs cannot split it.
func TestPartitionOneCoreFingerprint(t *testing.T) {
	set := genSet(t, 2, 5, 1)
	cfg := solverCfg()
	key, ok := grid.ScheduleKey(set, cfg)
	if !ok {
		t.Fatal("config not encodable")
	}
	for _, c := range []Config{
		{Cores: 1, Solver: cfg},
		{Cores: 1, Mode: WorstFit, Moves: 2, Solver: cfg},
	} {
		fp, ok := Fingerprint(set, c)
		if !ok || fp != key.String() {
			t.Errorf("Fingerprint(%+v) = %s, want the single-core key %s", c, fp, key)
		}
	}
}

// TestPartitionOneCoreInfeasible pins the one-core rule for admission: the
// core's WCS build is the admission test, so an unschedulable set fails
// with the build's own all-Vmax text after one schedule miss, not with a
// packing error.
func TestPartitionOneCoreInfeasible(t *testing.T) {
	// 10 cycles/ms on a unit-K model needs v=10 > Vmax=4.
	set, err := task.NewSet([]task.Task{{Name: "a", Period: 10, WCEC: 100, ACEC: 60, BCEC: 50, Ceff: 1}})
	if err != nil {
		t.Fatal(err)
	}
	memo := grid.NewMemo()
	_, err = Solve(context.Background(), grid.New(2, memo), set, Config{Cores: 1, Solver: solverCfg()})
	var inf *core.InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("one-core Solve of an infeasible set: %v, want a *core.InfeasibleError", err)
	}
	const want = "core: a#0 unschedulable at Vmax: 60 cycles never scheduled"
	if err.Error() != want || inf.Error() != want {
		t.Errorf("error %q (infeasible %q), want %q", err, inf, want)
	}
	if got := memo.Stats().ScheduleMisses; got != 1 {
		t.Errorf("%d schedule misses, want 1 (the WCS build alone)", got)
	}
}
