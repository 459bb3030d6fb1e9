// Command bench is the repository's benchmark: one command that drives four
// fixed, seeded workloads against an in-process scheduling server
// (internal/server) over loopback HTTP, prints every end-to-end metric by
// name with its unit, checks that the responses are correct, and — with
// -trace 1 — replays each workload's inputs through the public functions of
// the layers underneath to price them one by one. BENCHMARK.json at the
// repository root is the contract later changes cite by metric and workload
// name; baseline.json next to this file records the machine, the sizes, the
// baseline runs and the older BENCH_*.json files this benchmark supersedes.
//
// Usage, from the repository root (run.sh builds into .bench_build/):
//
//	bash cmd/bench/run.sh --workload cold_solve --seed 7 --seconds 20 --trace 0
//	cd cmd/bench && go run .                    # all four workloads, seed 2005
//	cd cmd/bench && go run . -runs 3            # medians, quartiles, stability
//	cd cmd/bench && go run . -trace 1 -spans spans.jsonl
//
// # Load shape
//
// Every workload is a closed loop of 2 client goroutines over 2 keep-alive
// connections: design tools wait for their schedules and executors for their
// observe acknowledgements, so each caller sends its next request only after
// the reply to the last is fully read. Client and server share one process
// and the default GOMAXPROCS. The timed phase runs a fixed number of ops —
// each workload's rate times -seconds, calibrated so the phase lasts about
// -seconds on the reference host — so a parent and a change do identical
// work. -seed seeds every generated input; the server receives only the
// generated request bodies. 503s are retried with the shared backoff policy
// (internal/retry).
//
// Task sets come from fixed, numbered pools of generated sets (2000 per
// configuration); -seed picks which ones and in what order, one from each
// stratum of solve time, so every seed runs the same mix of light and heavy
// sets. pools.json ranks the sets by their solo solve time on the reference
// host. Random sets do not all solve — WCS synthesis answers 422 "solver
// produced an invalid schedule" on about one set in 700, a defect of
// internal/core — and a benchmark input must never fail, so the pools'
// seeds are ones for which every set solves. BENCH_POOLS=1 go test -run
// TestPoolsSolve re-checks that and rewrites pools.json.
//
// # Workloads
//
//   - hot_repeat: 20 single-core sets (4 tasks, BCEC/WCEC 0.5, utilisation
//     0.7) are submitted and compared once in set-up; the timed phase is a
//     seeded shuffle of submit : GET-by-fingerprint : compare at 2 : 1 : 1.
//     Every op is a memo hit, so the solver does no work and the time goes
//     to the serving layers: HTTP, decoding, fingerprinting, admission, the
//     dispatcher's batch window, the per-request feasibility check and
//     WCS-at-average evaluation, encoding, and a 200-hyper-period
//     simulation per compare.
//   - cold_solve: a distinct set of the same shape per submit. Every op
//     misses the memo, so WCS + warm-started ACS solves set the time and the
//     serving layers are a few percent of it.
//   - partitioned: distinct 8-task sets on 4 cores (utilisation 0.7 per
//     core, generated to pass the server's admission). The same solver,
//     reached through partition admission and the per-core fan-out over the
//     shared runner — about seven sub-solves per request, each a quarter the
//     size — which separates fan-out overhead from solver speed.
//   - session_durable: 24 adaptive sessions (4 tasks, BCEC/WCEC 0.1) on a
//     memory-over-disk store in a temporary directory, created in set-up.
//     Each client drives 12 sessions through seeded workloads that switch
//     mode every 480 hyper-periods, in 40-hyper-period observe batches that
//     assert their stream position. Most observes fold estimator state and
//     write a checkpoint; the 8% that re-solve set the tail and most of the
//     wall time. The device task sets are fixed and their observed
//     workloads seeded: one set's solve cost varies a hundredfold, so 24
//     seeded sets would make every metric follow the seed's draw rather
//     than the code. Devices start at staggered points of their mode-switch
//     cycles, so re-solves spread over the phase.
//
// The fleet-with-kill scenario is absent: on a 2-core host, three peers, a
// router and the clients measure the operating system's scheduler, not the
// fleet. Fault injection is absent too: injected faults trade correctness
// paths for speed by design, which a regression bound cannot judge. Both
// wait for a host with at least 4 cores.
//
// # End-to-end metrics
//
// Measured with tracing off, reported per workload:
//
//   - setup_s (s): server boot, generating the drawn sets and their request
//     bodies, and warm-up (hot_repeat's solves, the sessions' creation, a
//     fixed warm-up of four submits elsewhere). Set-up runs three times per
//     run on fresh servers; the median is reported, so work moved into
//     set-up shows.
//   - throughput_rps (ops/s): successful ops ÷ wall time of the timed phase.
//   - latency_p50_ms (ms): client-side median over the timed phase, send to
//     full body read.
//   - latency_tail_ms (ms): a high percentile with at least 10 samples
//     beyond it at the default sizes, fixed per workload: p99 for hot_repeat
//     and session_durable, p95 for cold_solve and partitioned (p98, the
//     highest partitioned's 500 ops allow, rests on its ten slowest sets and
//     moved by a quarter between seeds). When each fifth of the phase holds
//     10 samples beyond the percentile on its own (hot_repeat), the value
//     is the median of the five fifths' percentiles, so a few seconds of
//     contention from outside the process move one fifth, not the result;
//     otherwise it is taken over the whole phase. A run with fewer than 10
//     samples beyond its percentile fails.
//   - heap_live_mb (MiB): live heap bytes (HeapAlloc) after a full GC at
//     the end of the timed phase. Client-side state is a few hashes and
//     bodies, so this is the server's state.
//
// The human report also prints error_rate (failed ÷ attempted ops; the
// final JSON line carries it as "failed"), energy_saving_pct (mean
// improvement_pct of ACS over WCS-at-average across the distinct submit
// responses) and runtime_saving_pct (mean /v1/compare improvement_pct:
// simulated greedy reclamation, the paper's runtime quantity) where a
// workload's responses carry them, "n/a" elsewhere.
//
// # Correctness
//
// A failed check fails the run: per-op checks count into "failed", the rest
// set "correct" to false, and the command exits non-zero. hot_repeat
// requires every timed body to hash equal to its set-up response (so GET
// bytes equal submit bytes), zero deadline misses in every compare, and no
// memo misses during the timed phase. cold_solve requires exactly two
// schedule misses per distinct set; partitioned, no degraded response and
// a predicted_energy equal to the sum over per_core. session_durable
// requires every observe to answer 200 at the asserted position, each
// session's final observed count to equal the hyper-periods sent, the
// re-solves the responses report to equal schedd_feedback_resolves_total,
// and, after stopping the server and reopening the store directory, every
// session's status to answer the bytes it answered before. On every
// workload /metrics must parse strictly and schedd_requests_total{endpoint}
// must equal the requests the client put on the wire, retries included.
//
// # Per-layer metrics and residuals
//
// -trace 1 reruns the workload untraced, then replays its inputs in one
// goroutine through the public functions of internal/server, grid, core,
// partition, sim, store, feedback and obs, recording a span per call under
// one root span per replayed op. A layer's value is the mean self time of
// its spans (duration minus children), with the call count and p90 in the
// human report. Every layer is priced on every workload's own inputs, so
// each run reports every metric; the metric list says which end-to-end
// metric@workload each should move. Server-side waits and counts —
// admission waits, the batch window's share of request time, batch size,
// coalescing, memo hit ratio, misses per request, store tier hits,
// re-solves, request latency — are deltas of the server's /metrics over
// the timed phase. Histogram stages are read as _sum/_count means, never as
// bucket quantiles: the lowest bucket bound is 100µs, so a quantile below
// it is an interpolation artefact.
//
// Two residuals say what the layers do not explain:
//
//   - http.transport_ms = client mean latency − server.request_ms: the
//     loopback round trip, the client, and the HTTP server outside the
//     handler.
//   - server.unattributed_ms: per request, the server's request time less
//     what its own top-level stage spans cover (admission wait, batch
//     assembly, the solves, the simulation, re-solves) and less the
//     replayed means of the calls each endpoint makes outside those stages
//     (decoding, fingerprinting, the feasibility check, WCS-at-average
//     evaluation, encoding; for observes the fold, snapshot and checkpoint
//     write): routing, locks, goroutine hand-offs and whatever the replay
//     does not call. A residual that grows after a change points at code no
//     layer metric covers. The replay runs after the timed phase, so a call
//     whose cost drifts between the two — a disk write, say — can push the
//     residual below zero.
//
// The spans of every replay stay in memory and are written at exit to
// -spans FILE as JSON lines of workload, trace, span, parent, layer, name,
// start_ns and end_ns.
//
// # Output
//
// Human-readable lines first: an env line (Go version, GOOS/GOARCH, nproc,
// GOMAXPROCS, commit, seed), then each run's metrics with units and checks.
// With -runs N each metric's median and quartiles follow, flagged unstable
// when the interquartile spread exceeds its bound. The last line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, the metrics
// being the end-to-end ones (or the per-layer ones with -trace 1) as
// {"value", "unit"}, medians over the runs; with -workload all their names
// carry a "<workload>." prefix.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"

	"repro/internal/cliutil"
	"repro/internal/stats"
)

func main() {
	cliutil.Exit("bench", run(os.Args[1:], os.Stdout, defaultSizes))
}

func run(args []string, stdout io.Writer, sz sizes) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload: hot_repeat, cold_solve, partitioned, session_durable, or all")
		seed    = fs.Uint64("seed", 2005, "seed of every generated input")
		seconds = fs.Float64("seconds", 20, "op budget: each timed phase runs a fixed op count sized to about this many seconds on the reference host")
		trace   = fs.Int("trace", 0, "1: replay each workload through its layers and report the per-layer metrics instead of the end-to-end ones")
		runs    = fs.Int("runs", 1, "runs per workload; above 1 the report adds each metric's median and quartiles")
		spansTo = fs.String("spans", "", "with -trace 1, write the replay spans to this file as JSON lines")
	)
	if err := cliutil.ParseFlags(fs, args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *runs < 1 || !(*seconds > 0) {
		return errors.New("-runs and -seconds must be positive")
	}
	var selected []workloadSpec
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	b := &bench{seed: *seed, seconds: *seconds, traced: *trace == 1, sz: sz}
	fmt.Fprintln(stdout, "env", envLine(*seed))

	specs := endToEnd
	if b.traced {
		specs = layers
	}
	res := result{Correct: true, Metrics: map[string]valueUnit{}}
	var spans []span
	for _, w := range selected {
		sh := sz.shapes[w.name]
		samples := map[string][]float64{}
		for r := 0; r < *runs; r++ {
			o, err := w.run(b, sh)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			vals, err := o.values(b.traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(stdout, w.name, r, *runs, o, vals, b)
			res.Attempted += o.attempted
			res.Failed += o.failed
			for _, c := range o.checks {
				res.Correct = res.Correct && c.err == nil
			}
			for _, m := range specs {
				samples[m.Name] = append(samples[m.Name], vals[m.Name])
			}
			spans = append(spans, o.spans...)
		}
		if *runs > 1 {
			printSpread(stdout, w.name, specs, samples)
		}
		for _, m := range specs {
			key := m.Name
			if len(selected) > 1 {
				key = w.name + "." + m.Name
			}
			_, med, _ := quartiles(samples[m.Name])
			res.Metrics[key] = valueUnit{med, m.Unit}
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	if *spansTo != "" {
		if err := writeSpans(*spansTo, spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values computes a run's reported metrics: the end-to-end ones plus the
// report-only ones (NaN where a workload does not define them), or with
// traced the per-layer ones. A missing per-layer metric is an error.
func (o *outcome) values(traced bool) (map[string]float64, error) {
	v := map[string]float64{}
	if traced {
		for _, m := range layers {
			st, ok := o.layers[m.Name]
			if !ok {
				return nil, fmt.Errorf("replay produced no %s", m.Name)
			}
			v[m.Name] = st.mean
		}
		return v, nil
	}
	tail, _, _, err := o.tailLatency()
	if err != nil {
		return nil, fmt.Errorf("latency_tail_ms: %w", err)
	}
	_, v["setup_s"], _ = quartiles(o.setup)
	v["throughput_rps"] = float64(len(o.lat)) / o.wall.Seconds()
	_, v["latency_p50_ms"], _ = quartiles(o.lat)
	v["latency_tail_ms"] = tail
	v["heap_live_mb"] = o.heapMiB
	v["error_rate"] = float64(o.failed) / float64(o.attempted)
	v["energy_saving_pct"], v["runtime_saving_pct"] = math.NaN(), math.NaN()
	if len(o.energy) > 0 {
		v["energy_saving_pct"] = stats.Mean(o.energy)
	}
	if len(o.runtime) > 0 {
		v["runtime_saving_pct"] = stats.Mean(o.runtime)
	}
	return v, nil
}

func printRun(w io.Writer, name string, r, runs int, o *outcome, vals map[string]float64, b *bench) {
	fmt.Fprintf(w, "%s run %d/%d: %d ops, %d failed, %d clients, seed %d\n",
		name, r+1, runs, o.attempted, o.failed, clients, b.seed)
	if o.firstFailure != nil {
		fmt.Fprintf(w, "  first failure: %v\n", o.firstFailure)
	}
	if b.traced {
		fmt.Fprintf(w, "  %-26s %14s %14s %8s\n", "layer", "mean", "p90", "count")
		for _, m := range layers {
			st := o.layers[m.Name]
			p90 := "-"
			if !math.IsNaN(st.p90) {
				p90 = fmt.Sprintf("%.6g", st.p90)
			}
			fmt.Fprintf(w, "  %-26s %14.6g %14s %8d %s\n", m.Name, st.mean, p90, st.n, m.Unit)
		}
	} else {
		_, beyond, perRound, _ := o.tailLatency()
		over := "over the phase"
		if perRound {
			over = fmt.Sprintf("median of %d rounds, each", nRounds)
		}
		notes := map[string]string{
			"setup_s":         fmt.Sprintf("median of %d set-ups", len(o.setup)),
			"throughput_rps":  fmt.Sprintf("%.1f s timed", o.wall.Seconds()),
			"latency_p50_ms":  fmt.Sprintf("n=%d", len(o.lat)),
			"latency_tail_ms": fmt.Sprintf("p%g %s with %d samples beyond", 100*o.tail, over, beyond),
			"error_rate":      fmt.Sprintf("%d of %d", o.failed, o.attempted),
		}
		for _, m := range append(append([]metric(nil), endToEnd...), reportOnly...) {
			v := fmt.Sprintf("%.6g", vals[m.Name])
			if math.IsNaN(vals[m.Name]) {
				v = "n/a"
			}
			fmt.Fprintf(w, "  %-20s %12s %-9s %s\n", m.Name, v, m.Unit, notes[m.Name])
		}
	}
	for _, c := range o.checks {
		status := "ok"
		if c.err != nil {
			status = "FAILED: " + c.err.Error()
		}
		fmt.Fprintf(w, "  check %-24s %s\n", c.name, status)
	}
}

// printSpread reports each metric's median and quartiles over the runs,
// flagging end-to-end metrics whose interquartile spread exceeds their
// bound.
func printSpread(w io.Writer, name string, specs []metric, samples map[string][]float64) {
	fmt.Fprintf(w, "%s over %d runs: median [q1, q3] spread\n", name, len(samples[specs[0].Name]))
	for _, m := range specs {
		q1, med, q3 := quartiles(samples[m.Name])
		flag := ""
		if m.Bound > 0 && spread(samples[m.Name]) > m.Bound {
			flag = fmt.Sprintf("unstable (bound %g)", m.Bound)
		}
		fmt.Fprintf(w, "  %-26s %12.6g [%.6g, %.6g] %.3f %s %s\n", m.Name, med, q1, q3, spread(samples[m.Name]), m.Unit, flag)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// envLine describes the machine and build a report was measured on.
func envLine(seed uint64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	b, _ := json.Marshal(struct {
		Go         string `json:"go"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Commit     string `json:"commit"`
		Seed       uint64 `json:"seed"`
	}{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), commit, seed})
	return string(b)
}
