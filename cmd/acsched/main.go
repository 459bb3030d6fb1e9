// Command acsched builds a static voltage schedule (ACS or WCS) for a task
// set and prints it as a table, a CSV, or an ASCII Gantt chart.
//
// Usage:
//
//	acsched -in taskset.json -objective acs -format gantt
//	taskgen -n 4 | acsched -objective wcs -format csv
//
// The built-in task sets are available without a file:
//
//	acsched -builtin cnc -ratio 0.1 -format table
//
// The solver runs a single coordinate-descent start by default; -starts N
// explores N deterministic starting points in parallel and keeps the best.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/trace"
)

func main() {
	cliutil.Exit("acsched", run(os.Args[1:], os.Stdin, os.Stdout))
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("acsched", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "task-set JSON file (default stdin; ignored with -builtin)")
		builtin   = fs.String("builtin", "", "built-in task set: cnc, gap, motivation")
		ratio     = fs.Float64("ratio", 0.5, "BCEC/WCEC ratio for built-in sets")
		util      = fs.Float64("util", 0.7, "utilisation for built-in sets")
		objective = fs.String("objective", "acs", "objective: acs or wcs")
		format    = fs.String("format", "table", "output: table, csv, gantt")
		subCap    = fs.Int("subcap", 0, "max sub-instances per instance (0 = unlimited)")
		sweeps    = fs.Int("sweeps", 0, "max coordinate-descent sweeps (0 = default)")
		starts    = fs.Int("starts", 1, "multi-start count (>1 runs parallel solver starts)")
		workers   = fs.Int("workers", 0, "multi-start worker pool (0 = GOMAXPROCS; result is identical either way)")
		startSeed = fs.Uint64("startseed", 0, "multi-start blend jitter seed (0 = default)")
	)
	if err := cliutil.ParseFlags(fs, args); err != nil {
		return err
	}

	set, err := cliutil.LoadSet(stdin, *in, *builtin, *ratio, *util)
	if err != nil {
		return err
	}

	cfg := core.Config{
		MaxSweeps:    *sweeps,
		Starts:       *starts,
		StartWorkers: *workers,
		StartSeed:    *startSeed,
	}
	cfg.Preempt.MaxSubsPerInstance = *subCap
	switch *objective {
	case "acs":
		cfg.Objective = core.AverageCase
	case "wcs":
		cfg.Objective = core.WorstCase
	default:
		return fmt.Errorf("unknown objective %q (want acs or wcs)", *objective)
	}

	// ACS is warm-started from WCS, as the experiments and the server do.
	res, err := partition.Solve(context.Background(), grid.New(1, nil), set,
		partition.Config{Cores: 1, Solver: cfg})
	if err != nil {
		return err
	}
	s := res.Cores[0].Schedule()

	switch *format {
	case "table":
		fmt.Fprintf(stdout, "%s schedule for %s: %d sub-instances, objective energy %.6g (%d sweeps)\n",
			s.Objective, set, len(s.Plan.Subs), s.Energy, s.Sweeps)
		fmt.Fprint(stdout, trace.CSV(s))
	case "csv":
		fmt.Fprint(stdout, trace.CSV(s))
	case "gantt":
		fmt.Fprint(stdout, trace.Gantt(s, 100))
	default:
		return fmt.Errorf("unknown format %q (want table, csv, gantt)", *format)
	}
	return nil
}
