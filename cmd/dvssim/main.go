// Command dvssim simulates the online DVS runtime over a task set: it builds
// the ACS and WCS static schedules, runs both under identical stochastic
// workloads, and reports energies, voltage statistics and the improvement
// percentage (the quantity Fig. 6 plots).
//
// Usage:
//
//	dvssim -builtin cnc -ratio 0.1 -reps 1000 -seed 7
//	taskgen -n 8 -ratio 0.1 | dvssim -reps 500
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// errDeadlineMiss distinguishes the warning exit (status 2) from hard
// failures (status 1).
var errDeadlineMiss = fmt.Errorf("deadline misses observed")

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err == errDeadlineMiss {
		fmt.Fprintln(os.Stderr, "dvssim: WARNING: deadline misses observed")
		os.Exit(2)
	}
	cliutil.Exit("dvssim", err)
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("dvssim", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "task-set JSON file (default stdin; ignored with -builtin)")
		builtin = fs.String("builtin", "", "built-in task set: cnc, gap, motivation")
		ratio   = fs.Float64("ratio", 0.5, "BCEC/WCEC ratio for built-in sets")
		util    = fs.Float64("util", 0.7, "utilisation for built-in sets")
		reps    = fs.Int("reps", 1000, "hyper-periods to simulate")
		seed    = fs.Uint64("seed", 1, "workload seed")
		policy  = fs.String("policy", "greedy", "slack policy: greedy, static, nodvs")
		dist    = fs.String("dist", "paper", "workload distribution: paper, uniform, bimodal, acec, wcec")
		subCap  = fs.Int("subcap", 0, "max sub-instances per instance (0 = unlimited)")
		starts  = fs.Int("starts", 1, "solver multi-start count (>1 runs parallel starts)")
		simWork = fs.Int("simworkers", 0, "parallel hyper-period simulation workers (0 = GOMAXPROCS; results are identical for any value)")
		rtTrace = fs.Bool("trace", false, "export one hyper-period's runtime execution for the ACS schedule (observed vs predicted cycles per job, CSV + Gantt)")
	)
	if err := cliutil.ParseFlags(fs, args); err != nil {
		return err
	}

	set, err := cliutil.LoadSet(stdin, *in, *builtin, *ratio, *util)
	if err != nil {
		return err
	}

	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	d, err := parseDist(*dist)
	if err != nil {
		return err
	}

	solver := core.Config{Starts: *starts}
	solver.Preempt.MaxSubsPerInstance = *subCap
	res, err := partition.Solve(context.Background(), grid.New(1, nil), set,
		partition.Config{Cores: 1, Solver: solver})
	if err != nil {
		return err
	}
	acs, wcs := res.Cores[0].ACS, res.Cores[0].WCS

	workers := *simWork
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := sim.Config{Policy: pol, Hyperperiods: *reps, Seed: *seed, Dist: d, Workers: workers}
	imp, ra, rb, err := sim.Compare(acs, wcs, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "task set: %s (%d sub-instances)\n", set, len(acs.Plan.Subs))
	fmt.Fprintf(stdout, "policy=%s dist=%s reps=%d seed=%d\n", pol, *dist, *reps, *seed)
	report(stdout, "ACS", ra)
	report(stdout, "WCS", rb)
	fmt.Fprintf(stdout, "improvement of ACS over WCS: %.2f%%\n", imp)
	if *rtTrace {
		if err := writeRuntimeTrace(stdout, acs, d, *seed); err != nil {
			return err
		}
	}
	if ra.DeadlineMisses+rb.DeadlineMisses > 0 {
		return errDeadlineMiss
	}
	return nil
}

// writeRuntimeTrace draws one hyper-period of actual workloads from dist
// (seeded, so the export is deterministic per invocation) and prints the
// runtime-execution export for the ACS schedule: observed vs predicted
// cycles per job as CSV, plus the realised Gantt chart.
func writeRuntimeTrace(w io.Writer, acs *core.Schedule, d sim.Distribution, seed uint64) error {
	rng := stats.NewRNG(seed)
	actual := make([]float64, len(acs.Plan.Instances))
	for i := range actual {
		t := &acs.Plan.Set.Tasks[acs.Plan.Instances[i].TaskIndex]
		actual[i] = d(rng, t.BCEC, t.ACEC, t.WCEC)
	}
	csv, err := trace.RuntimeCSV(acs, actual)
	if err != nil {
		return err
	}
	gantt, err := trace.RuntimeGantt(acs, actual, 80)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nruntime execution trace (one hyper-period, seed %d):\n%s\n%s", seed, csv, gantt)
	return nil
}

func report(w io.Writer, name string, r *sim.Result) {
	fmt.Fprintf(w, "%s: energy=%.6g (per hyper-period %s) meanV=%.3f switches=%d misses=%d\n",
		name, r.Energy, r.PerHyperperiod.String(), r.MeanVoltage, r.Switches, r.DeadlineMisses)
}

func parsePolicy(s string) (sim.SlackPolicy, error) {
	switch s {
	case "greedy":
		return sim.Greedy, nil
	case "static":
		return sim.Static, nil
	case "nodvs":
		return sim.NoDVS, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

func parseDist(s string) (sim.Distribution, error) {
	switch s {
	case "paper":
		return sim.PaperDist, nil
	case "uniform":
		return sim.UniformDist, nil
	case "bimodal":
		return sim.BimodalDist, nil
	case "acec":
		return sim.AlwaysACECDist, nil
	case "wcec":
		return sim.AlwaysWCECDist, nil
	default:
		return nil, fmt.Errorf("unknown distribution %q", s)
	}
}
