// Command experiments regenerates every table and figure of the paper plus
// the ablation studies, printing text tables to stdout and optionally
// writing CSVs for plotting. See DESIGN.md §4 for the experiment index and
// §6 for the grid engine the harnesses run on.
//
// All experiments of one invocation share a single grid runner: one bounded
// worker pool and (unless -cache=false) one content-addressed memo store, so
// harnesses that sweep the same (N, ratio) cell share WCS/ACS solves.
//
// Usage:
//
//	experiments                        # everything, default budget
//	experiments -only fig6a -sets 100 -reps 1000   # the paper's budget
//	experiments -only motivation
//	experiments -csv out/              # also write CSV files
//	experiments -cache=false           # re-solve everything (debugging)
//	experiments -cpuprofile cpu.pprof  # profile a regeneration
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/grid"
)

func main() {
	cliutil.Exit("experiments", run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only = fs.String("only", "all",
			"experiment: all, motivation, fig6a, fig6b, slack, cap, overhead, levels, weighted, crosscheck, partition")
		sets       = fs.Int("sets", 20, "random task sets per configuration cell (paper: 100)")
		reps       = fs.Int("reps", 200, "hyper-periods simulated per task set (paper: 1000)")
		seed       = fs.Uint64("seed", 2005, "master seed")
		workers    = fs.Int("workers", 0, "grid worker-pool width (0 = GOMAXPROCS; results identical for any value)")
		starts     = fs.Int("starts", 0, "solver multi-start count per schedule build (0/1 = single)")
		simWork    = fs.Int("simworkers", 0, "parallel hyper-period simulation workers per sim run (0 = GOMAXPROCS; results identical for any value; harnesses whose per-set grid jobs already saturate the pool — fig6a and the random-set ablations — pin their inner sims serial and ignore this)")
		cache      = fs.Bool("cache", true, "memoize schedule solves across experiments (results identical either way)")
		csvDir     = fs.String("csv", "", "directory to write CSV results into")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the regeneration to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	)
	if err := cliutil.ParseFlags(fs, args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var memo *grid.Memo
	if *cache {
		memo = grid.NewMemo()
	}
	g := grid.New(*workers, memo)
	common := experiments.Common{
		Sets: *sets, Reps: *reps, Seed: *seed,
		Workers: *workers, Starts: *starts, SimWorkers: *simWork,
		Grid: g,
	}
	want := func(name string) bool { return *only == "all" || *only == name }
	wroteAny := false

	banner := func(s string) {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, s)
		fmt.Fprintln(stdout, strings.Repeat("=", len(s)))
	}
	writeCSV := func(name, content string) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %s\n", path)
		return nil
	}

	if want("motivation") {
		banner("E1: motivational example (Table 1 / Figs. 1-2)")
		r, err := experiments.Motivation()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, r.Render())
		wroteAny = true
	}

	if want("fig6a") {
		banner("E2: Fig. 6(a) random task sets")
		start := time.Now()
		cells, err := experiments.Fig6a(experiments.Fig6aConfig{Common: common})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.Table(cells, fmt.Sprintf(
			"Fig. 6(a): ACS improvement over WCS (%d sets x %d hyper-periods per cell, %v)",
			*sets, *reps, time.Since(start).Round(time.Second))))
		if err := writeCSV("fig6a.csv", experiments.CSV(cells)); err != nil {
			return err
		}
		wroteAny = true
	}

	if want("fig6b") {
		banner("E3/E4: Fig. 6(b) real-life applications")
		cells, err := experiments.Fig6b(experiments.Fig6bConfig{Common: common})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.AppTable(cells))
		if err := writeCSV("fig6b.csv", experiments.AppCSV(cells)); err != nil {
			return err
		}
		wroteAny = true
	}

	if want("slack") {
		banner("E5: slack-policy ablation (N=6, ratio 0.1)")
		cells, err := experiments.SlackPolicyAblation(common, 6, 0.1)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.SlackTable(cells))
		wroteAny = true
	}

	if want("cap") {
		banner("E6: sub-instance cap ablation (GAP, ratio 0.1)")
		cells, err := experiments.SubInstanceCapAblation(common, 0.1, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.CapTable(cells))
		wroteAny = true
	}

	if want("overhead") {
		banner("E7: voltage-transition overhead ablation (N=6, ratio 0.1)")
		cells, err := experiments.TransitionOverheadAblation(common, 6, 0.1, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.OverheadTable(cells))
		wroteAny = true
	}

	if want("levels") {
		banner("E8: discrete voltage levels ablation (N=6, ratio 0.1)")
		cells, err := experiments.DiscreteLevelAblation(common, 6, 0.1, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.LevelTable(cells))
		wroteAny = true
	}

	if want("weighted") {
		banner("E10: probability-weighted objective (N=6, ratio 0.1)")
		cells, err := experiments.WeightedObjectiveAblation(common, 6, 0.1, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.WeightedTable(cells))
		wroteAny = true
	}

	if want("partition") {
		banner("E11: multi-core partitioned scheduling (energy vs. M, FFD vs. worst-fit)")
		start := time.Now()
		cells, err := experiments.PartitionSweep(experiments.PartitionSweepConfig{Common: common})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.PartitionTable(cells, fmt.Sprintf(
			"E11: global ACS improvement over per-core WCS-at-average (%d sets per cell, %v)",
			*sets, time.Since(start).Round(time.Second))))
		if err := writeCSV("partition.csv", experiments.PartitionCSV(cells)); err != nil {
			return err
		}
		wroteAny = true
	}

	if want("crosscheck") {
		banner("E9: solver cross-check (N=3)")
		r, err := experiments.SolverCrossCheck(common, 3)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, r.Render())
		wroteAny = true
	}

	if !wroteAny {
		return fmt.Errorf("unknown experiment %q", *only)
	}

	if memo != nil {
		st := memo.Stats()
		fmt.Fprintf(stdout, "\ngrid cache: %d schedule solves shared %d times\n", st.ScheduleMisses, st.ScheduleHits)
	}

	if *memprofile != "" {
		runtime.GC()
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote heap profile to %s\n", *memprofile)
	}
	return nil
}
