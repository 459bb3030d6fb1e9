// Command adaptsim is the closed-loop benchmark harness of the feedback
// subsystem (internal/feedback, DESIGN.md §8): for each nonstationary
// workload scenario it executes the same seeded workload stream under three
// arms —
//
//	static    the ACS schedule solved once against the stated model
//	adaptive  the feedback controller: estimators + drift detection +
//	          warm-started re-solves, plan swapped at chunk boundaries
//	oracle    a clairvoyant controller that re-solves from the scenario's
//	          true regime mean the moment it changes (the reported lower
//	          bound: adaptation without detection or estimation lag)
//
// — and reports simulated energies, improvement percentages, re-solve
// counts and swap points as JSON (to stdout, and to a file with -o). Every
// arm sees byte-identical workloads; the whole report is a pure function of
// the flags.
//
// The harness also closes the capture/replay loop (DESIGN.md §13):
// -record writes each scenario's observed execution-cycle stream to a
// .trace file (the internal/trace stream format), and -replay runs the
// static and adaptive arms over such a recording instead of a generated
// scenario — offline feedback analysis against exactly the workload a
// previous run saw.
//
// Usage:
//
//	adaptsim
//	adaptsim -scenarios modeswitch,drift -horizon 480 -seed 7 -o adapt.json
//	adaptsim -record traces/ -scenarios modeswitch -horizon 160
//	adaptsim -replay traces/modeswitch.trace -chunk 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	cliutil.Exit("adaptsim", run(os.Args[1:], os.Stdout))
}

// scenarioReport is one scenario's three-arm comparison.
type scenarioReport struct {
	Scenario       string  `json:"scenario"`
	Horizon        int     `json:"horizon_hyperperiods"`
	StaticEnergy   float64 `json:"static_energy"`
	AdaptiveEnergy float64 `json:"adaptive_energy"`
	OracleEnergy   float64 `json:"oracle_energy"`
	// AdaptivePct and OraclePct are energy improvements over the static
	// arm, in percent (positive = better than static).
	AdaptivePct     float64 `json:"adaptive_improvement_pct"`
	OraclePct       float64 `json:"oracle_improvement_pct"`
	Resolves        int64   `json:"resolves"`
	Drifts          int64   `json:"drifts"`
	OracleResolves  int     `json:"oracle_resolves"`
	SwapHyperperiod []int64 `json:"swap_hyperperiods"`
	DeadlineMisses  int     `json:"deadline_misses"`
}

// report is the whole run's JSON artefact.
type report struct {
	Tasks     int              `json:"tasks"`
	Ratio     float64          `json:"ratio"`
	Util      float64          `json:"util"`
	Seed      uint64           `json:"seed"`
	Chunk     int              `json:"chunk_hyperperiods"`
	Scenarios []scenarioReport `json:"scenarios"`
	Cache     grid.Stats       `json:"cache"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("adaptsim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 4, "tasks in the generated set")
		ratio     = fs.Float64("ratio", 0.1, "BCEC/WCEC ratio of the generated set")
		util      = fs.Float64("util", 0.7, "worst-case utilisation of the generated set")
		seed      = fs.Uint64("seed", 1, "master seed: task set, workload streams")
		scenarios = fs.String("scenarios", "stationary,modeswitch,drift,bursty", "comma-separated scenario kinds")
		horizon   = fs.Int("horizon", 320, "hyper-periods per scenario")
		chunk     = fs.Int("chunk", 10, "hyper-periods per execution chunk (plan swaps land on chunk boundaries)")
		swEvery   = fs.Int("switchevery", 80, "modeswitch regime length in hyper-periods")
		driftOver = fs.Int("driftover", 200, "drift transition length in hyper-periods")
		noCache   = fs.Bool("nocache", false, "disable the schedule memo (identical results, more solves)")
		out       = fs.String("o", "", "also write the JSON report to this file")
		record    = fs.String("record", "", "record each scenario's observation stream to DIR/<scenario>.trace")
		replay    = fs.String("replay", "", "replay a recorded .trace file (static vs adaptive arms) instead of generating scenarios")
	)
	if err := cliutil.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *horizon <= 0 || *chunk <= 0 {
		return fmt.Errorf("horizon and chunk must be positive")
	}
	if *replay != "" {
		return runReplay(*replay, *chunk, !*noCache, *out, stdout)
	}
	kinds, err := parseKinds(*scenarios)
	if err != nil {
		return err
	}

	rng := stats.NewRNG(*seed)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{N: *n, Ratio: *ratio, Utilization: *util}, 50,
		func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		return err
	}

	var memo *grid.Memo
	if !*noCache {
		memo = grid.NewMemo()
	}
	runner := grid.New(0, memo)
	rep := &report{Tasks: *n, Ratio: *ratio, Util: *util, Seed: *seed, Chunk: *chunk}
	ctx := context.Background()
	misses := 0

	for _, kind := range kinds {
		sc, err := workload.NewScenario(set, workload.ScenarioConfig{
			Kind: kind, Seed: *seed ^ stats.SeedFromString(kind.String()),
			SwitchEvery: *swEvery, DriftOver: *driftOver,
		})
		if err != nil {
			return err
		}
		ctrl, err := feedback.NewController(ctx, set, feedback.Options{Runner: runner})
		if err != nil {
			return err
		}
		simCfg := sim.Config{Policy: sim.Greedy}
		rows, err := sc.Actuals(*horizon, ctrl.TaskOf())
		if err != nil {
			return err
		}
		if *record != "" {
			if err := recordStream(*record, kind.String(), set, rows); err != nil {
				return err
			}
		}

		static, armMisses, lr, err := runArms(ctx, ctrl, rows, *chunk, simCfg)
		if err != nil {
			return err
		}
		sr := scenarioReport{
			Scenario: kind.String(), Horizon: *horizon,
			StaticEnergy: static, AdaptiveEnergy: lr.Energy,
			Resolves: lr.Resolves, Drifts: lr.Drifts, SwapHyperperiod: lr.SwapHyperperiods,
			DeadlineMisses: armMisses,
		}

		// Oracle arm: clairvoyant re-solve whenever the true regime mean
		// moved since the last solve (checked at chunk boundaries, the same
		// granularity the adaptive arm may swap at).
		oracleE, osolves, omisses, err := runOracle(ctx, runner, set, sc, rows, *horizon, *chunk, simCfg)
		if err != nil {
			return err
		}
		sr.OracleEnergy = oracleE
		sr.OracleResolves = osolves
		sr.DeadlineMisses += omisses

		if sr.StaticEnergy > 0 {
			sr.AdaptivePct = 100 * (sr.StaticEnergy - sr.AdaptiveEnergy) / sr.StaticEnergy
			sr.OraclePct = 100 * (sr.StaticEnergy - sr.OracleEnergy) / sr.StaticEnergy
		}
		misses += sr.DeadlineMisses
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	if memo != nil {
		rep.Cache = memo.Stats()
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if _, err := stdout.Write(buf); err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return err
		}
	}
	if misses > 0 {
		return fmt.Errorf("%d deadline misses observed — a schedule is invalid", misses)
	}
	return nil
}

// runArms executes the static and adaptive arms over rows and returns the
// static energy, both arms' deadline misses and the adaptive loop's result.
// The static arm runs the controller's initial plan over the whole stream,
// chunked exactly like the adaptive loop so the energies compare exactly;
// the adaptive arm is the full closed loop over the same rows.
func runArms(ctx context.Context, ctrl *feedback.Controller, rows [][]float64, chunk int,
	simCfg sim.Config) (static float64, misses int, lr *feedback.LoopResult, err error) {
	staticPlan := ctrl.Plan()
	for lo := 0; lo < len(rows); lo += chunk {
		r, err := staticPlan.RunActuals(simCfg, rows[lo:min(lo+chunk, len(rows))])
		if err != nil {
			return 0, 0, nil, err
		}
		static += r.Energy
		misses += r.DeadlineMisses
	}
	if lr, err = feedback.RunReplay(ctx, ctrl, rows, chunk, simCfg); err != nil {
		return 0, 0, nil, err
	}
	return static, misses + lr.DeadlineMisses, lr, nil
}

// runOracle executes the clairvoyant arm: at every chunk boundary it knows
// the scenario's true regime mean and re-solves (through the shared memo)
// whenever it moved more than 2% of the support since the last solve.
func runOracle(ctx context.Context, runner *grid.Runner, set *task.Set, sc *workload.Scenario,
	rows [][]float64, horizon, chunk int, simCfg sim.Config) (energy float64, solves, misses int, err error) {
	fSolved := math.Inf(-1)
	var plan *sim.CompiledPlan
	for lo := 0; lo < horizon; lo += chunk {
		f := sc.MeanFrac(lo)
		if plan == nil || math.Abs(f-fSolved) > 0.02 {
			ts := append([]task.Task(nil), set.Tasks...)
			for i := range ts {
				ts[i].ACEC = ts[i].BCEC + f*(ts[i].WCEC-ts[i].BCEC)
			}
			oset, err := task.NewSet(ts)
			if err != nil {
				return 0, 0, 0, err
			}
			res, err := partition.Solve(ctx, runner, oset, partition.Config{Cores: 1})
			if err != nil {
				return 0, 0, 0, err
			}
			if plan, err = sim.Compile(res.Cores[0].ACS); err != nil {
				return 0, 0, 0, err
			}
			fSolved = f
			solves++
		}
		r, err := plan.RunActuals(simCfg, rows[lo:min(lo+chunk, horizon)])
		if err != nil {
			return 0, 0, 0, err
		}
		energy += r.Energy
		misses += r.DeadlineMisses
	}
	return energy, solves, misses, nil
}

// recordStream writes one scenario's observed rows as a .trace stream —
// the same format schedd's -trace-dir recorder emits, so both feed the
// same replayer.
func recordStream(dir, name string, set *task.Set, rows [][]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	f, err := os.Create(dir + "/" + name + ".trace")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteStream(f, &trace.Stream{Tasks: set.Tasks, Instances: width, Rows: rows}); err != nil {
		return err
	}
	return f.Close()
}

// replayReport is the -replay artefact: the two arms a recording supports
// (the oracle needs the scenario's true regime means, which a recording
// does not carry).
type replayReport struct {
	Source          string  `json:"source"`
	Tasks           int     `json:"tasks"`
	Horizon         int     `json:"horizon_hyperperiods"`
	Chunk           int     `json:"chunk_hyperperiods"`
	StaticEnergy    float64 `json:"static_energy"`
	AdaptiveEnergy  float64 `json:"adaptive_energy"`
	AdaptivePct     float64 `json:"adaptive_improvement_pct"`
	Resolves        int64   `json:"resolves"`
	Drifts          int64   `json:"drifts"`
	SwapHyperperiod []int64 `json:"swap_hyperperiods"`
	DeadlineMisses  int     `json:"deadline_misses"`
}

// runReplay re-runs a recorded observation stream through the static and
// adaptive arms. The whole report is a pure function of the recording and
// the chunk size — the pool width cannot change a byte of it.
func runReplay(path string, chunk int, cache bool, out string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	s, err := trace.ReadStream(f)
	f.Close()
	if err != nil {
		return err
	}
	set, err := task.NewSet(s.Tasks)
	if err != nil {
		return fmt.Errorf("replay: recorded task set: %w", err)
	}
	var memo *grid.Memo
	if cache {
		memo = grid.NewMemo()
	}
	runner := grid.New(0, memo)
	ctx := context.Background()
	ctrl, err := feedback.NewController(ctx, set, feedback.Options{Runner: runner})
	if err != nil {
		return err
	}
	if got, want := len(ctrl.TaskOf()), s.Instances; got != want {
		return fmt.Errorf("replay: plan has %d instances per hyper-period, recording has %d", got, want)
	}
	static, misses, lr, err := runArms(ctx, ctrl, s.Rows, chunk, sim.Config{Policy: sim.Greedy})
	if err != nil {
		return err
	}
	rep := &replayReport{
		Source: path, Tasks: set.N(), Horizon: len(s.Rows), Chunk: chunk,
		StaticEnergy: static, AdaptiveEnergy: lr.Energy,
		Resolves: lr.Resolves, Drifts: lr.Drifts, SwapHyperperiod: lr.SwapHyperperiods,
		DeadlineMisses: misses,
	}
	if rep.StaticEnergy > 0 {
		rep.AdaptivePct = 100 * (rep.StaticEnergy - rep.AdaptiveEnergy) / rep.StaticEnergy
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if _, err := stdout.Write(buf); err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			return err
		}
	}
	if rep.DeadlineMisses > 0 {
		return fmt.Errorf("%d deadline misses observed — a schedule is invalid", rep.DeadlineMisses)
	}
	return nil
}

func parseKinds(s string) ([]workload.ScenarioKind, error) {
	var out []workload.ScenarioKind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, err := workload.ParseScenarioKind(name)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	return out, nil
}
