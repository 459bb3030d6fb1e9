// Command schedload is the deterministic load generator and throughput
// benchmark for the scheduling service (cmd/schedd, DESIGN.md §7).
//
// It generates a seeded stream of submit requests — a configurable mix of
// unique and repeated task sets — fires them at a server from N concurrent
// clients, and reports throughput, latency percentiles and the server's
// memo counters, read from its /metrics, as JSON. With no -addr it spins an
// in-process server, so one invocation doubles as a self-contained
// benchmark; cmd/bench is the repository's benchmark of record.
//
// Because the request stream is seeded and the serving path is
// byte-deterministic, schedload also verifies the contract as it measures:
// every repeated body must receive byte-identical response bytes, whatever
// concurrency or cache state did in between. A mismatch fails the run.
//
// With -restart the run becomes a warm-restart benchmark: the stream is
// fired against an in-process server backed by a persistent store, the
// server is fully stopped and reopened on the same directory, and the
// identical stream is replayed. The report then
// carries a "restart" section comparing cold and warm solve counts, read
// from a /metrics scrape after each phase — a correct store makes the warm
// phase avoid (nearly) every re-solve — and the determinism audit spans both
// phases, so restart-crossing byte drift fails the run.
//
// With -faults the in-process server's store runs over a fault-injected
// filesystem (internal/fault; the spec grammar is point=err:P, point=torn:F:P,
// point=slow:D:P — e.g. "fs.write=torn:0.5:0.3,fs.sync=err:0.2") with sync
// on, so every fs.* point can fire, and the server's own failpoints can be
// armed by the same string. The client retries
// shed 503s with seeded-jitter exponential backoff and the report counts
// sheds, retries, and degraded responses. Degraded bodies are excluded from
// the determinism audit (they sit outside the byte contract by design), so
// disk faults mid-stream must not change the audit's verdict. The
// solve-avoidance gate of -restart is skipped under -faults: injected write
// failures legitimately drop persists.
//
// With -fleet N the run targets an N-peer fleet (internal/fleet, DESIGN.md
// §11) instead of a single server: in-process peers behind an in-process
// router, or — with -schedd PATH — real schedd processes in -peers/-self
// fleet mode, entered through peer 0. -killpeer I hard-kills peer I after a
// third of the stream; the retry client and the surviving replicas must
// absorb the rest with zero failed requests, and the determinism audit spans
// the kill. The report gains a "fleet" section with the failover and
// transport-error counts the fleet front end's /metrics reports.
//
// Usage:
//
//	schedload -requests 200 -concurrency 8 -unique 0.25 -seed 1
//	schedload -addr http://localhost:8372 -requests 1000 -concurrency 32
//	schedload -restart -requests 200 -unique 0.25 -seed 1
//	schedload -restart -faults "fs.write=torn:0.5:0.3" -faultseed 7
//	schedload -fleet 3 -killpeer 1 -requests 200 -unique 0.25 -seed 1
//	schedload -fleet 3 -schedd ./schedd -killpeer 1 -requests 40
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/workload"
)

func main() {
	cliutil.Exit("schedload", run(os.Args[1:], os.Stdout))
}

// report is the JSON summary a run prints.
type report struct {
	Requests    int     `json:"requests"`
	UniqueSets  int     `json:"unique_sets"`
	Concurrency int     `json:"concurrency"`
	Seed        uint64  `json:"seed"`
	DurationMs  float64 `json:"duration_ms"`
	Throughput  float64 `json:"throughput_rps"`
	LatencyMs   struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	Errors     int `json:"errors"`
	Mismatches int `json:"determinism_mismatches"`
	// Robustness accounting (DESIGN.md §10), summed over all phases: Shed
	// counts 503 responses observed (each retried with backoff), Retries the
	// re-sent requests, Degraded the 200s served from the WCS fallback —
	// excluded from the determinism audit.
	Shed     int64          `json:"shed_503s"`
	Retries  int64          `json:"retries"`
	Degraded int64          `json:"degraded_responses"`
	Faults   string         `json:"faults,omitempty"`
	Restart  *restartReport `json:"restart,omitempty"`
	Fleet    *fleetReport   `json:"fleet,omitempty"`
	Metrics  *metricsReport `json:"metrics,omitempty"`
}

// metricsStage summarises one server-side stage latency histogram
// (schedd_stage_seconds{stage=...}) from the end-of-run /metrics scrape.
// Quantiles are interpolated within histogram buckets, in milliseconds.
type metricsStage struct {
	Stage string  `json:"stage"`
	Count float64 `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// metricsReport is the parsed end-of-run /metrics scrape: where the
// report's latency_ms section measures the client's wall clock, this one
// reads the server's side — its submit count, its memo's schedule hits,
// misses and eviction/byte accounting (so a load run shows whether its cache
// cap actually bound), and each pipeline stage. The scrape is also a format
// gate — unparseable exposition fails the whole run.
type metricsReport struct {
	SubmitsTotal   float64        `json:"submit_requests_total"`
	ScheduleHits   float64        `json:"schedule_hits"`
	ScheduleMisses float64        `json:"schedule_misses"`
	Evictions      float64        `json:"evictions"`
	BytesUsed      float64        `json:"bytes_used"`
	BytesCap       float64        `json:"bytes_cap"`
	Stages         []metricsStage `json:"stages,omitempty"`
}

// fleetReport describes a -fleet run: the topology, which peer (if any) was
// killed mid-stream, and the router's failovers and transport errors summed
// over peers, from the front end's end-of-run /metrics scrape.
type fleetReport struct {
	Peers      int     `json:"peers"`
	Replicas   int     `json:"replicas"`
	Processes  bool    `json:"processes"`
	KilledPeer int     `json:"killed_peer"` // -1 = none
	Failovers  float64 `json:"failovers"`
	Errors     float64 `json:"errors"`
}

// restartReport compares the cold phase (empty store, every unique set
// solved) against the warm phase (same stream replayed after a full process
// restart on the same store directory). SolveAvoidancePct is the headline:
// the fraction of cold-phase solves the recovered store made unnecessary.
type restartReport struct {
	ColdScheduleMisses int64   `json:"cold_schedule_misses"`
	WarmScheduleMisses int64   `json:"warm_schedule_misses"`
	WarmMemHits        int64   `json:"warm_mem_hits"`
	WarmDiskHits       int64   `json:"warm_disk_hits"`
	RecoveredEntries   int64   `json:"recovered_entries"`
	TornRecordsDropped int64   `json:"torn_records_dropped"`
	SolveAvoidancePct  float64 `json:"solve_avoidance_pct"`
	ColdDurationMs     float64 `json:"cold_duration_ms"`
	WarmDurationMs     float64 `json:"warm_duration_ms"`
	ColdP50Ms          float64 `json:"cold_p50_ms"`
	WarmP50Ms          float64 `json:"warm_p50_ms"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("schedload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "server base URL (empty = spin an in-process server)")
		requests  = fs.Int("requests", 200, "total submit requests to fire")
		conc      = fs.Int("concurrency", 8, "concurrent client goroutines")
		unique    = fs.Float64("unique", 0.25, "fraction of requests with a unique task set (the rest repeat)")
		seed      = fs.Uint64("seed", 1, "master seed for task-set generation and the repeat mix")
		nTasks    = fs.Int("ntasks", 4, "tasks per generated set")
		ratio     = fs.Float64("ratio", 0.5, "BCEC/WCEC ratio of generated sets")
		util      = fs.Float64("util", 0.7, "worst-case utilisation of generated sets (per core with -cores)")
		cores     = fs.Int("cores", 0, "submit partitioned requests onto this many cores (0/1 = single-core; sets are generated at util×cores total utilisation)")
		cacheMB   = fs.Int64("cachemb", 256, "in-process server: cache cap in MiB (<0 = unbounded)")
		storeDir  = fs.String("store-dir", "", "in-process server: persistent store directory (see schedd -store-dir)")
		restart   = fs.Bool("restart", false, "measure warm-restart solve avoidance: fire the stream cold, stop the in-process server, reopen the same store, replay the identical stream (in-process only; -store-dir defaults to a temp dir)")
		faults    = fs.String("faults", "", "fault-injection spec for the in-process server (comma-separated point=mode, e.g. \"fs.write=torn:0.5:0.3,fs.sync=err:0.2\")")
		faultSeed = fs.Uint64("faultseed", 1, "seed for the fault registry's deterministic fire decisions and the client's retry jitter")
		fleetN    = fs.Int("fleet", 0, "run an N-peer fleet (internal/fleet) instead of a single server: in-process peers behind an in-process router, or OS processes with -schedd")
		scheddBin = fs.String("schedd", "", "with -fleet: path to a schedd binary; each peer becomes a real -peers/-self fleet daemon process and the stream enters through peer 0")
		killPeer  = fs.Int("killpeer", -1, "with -fleet: kill this peer index (it stays dead) after a third of the stream — the surviving replicas must absorb the rest")
		replicas  = fs.Int("replicas", 2, "with -fleet: replication factor R")
	)
	if err := cliutil.ParseFlags(fs, args); err != nil {
		return err
	}
	if *requests <= 0 || *conc <= 0 {
		return fmt.Errorf("requests and concurrency must be positive")
	}
	if *unique < 0 || *unique > 1 {
		return fmt.Errorf("unique fraction must lie in [0,1], got %g", *unique)
	}
	if *addr != "" && (*restart || *storeDir != "" || *faults != "") {
		return fmt.Errorf("-restart, -store-dir and -faults drive the in-process server; they cannot be combined with -addr")
	}
	if *fleetN > 0 {
		if *addr != "" || *restart || *storeDir != "" || *faults != "" {
			return fmt.Errorf("-fleet runs its own peers; it cannot be combined with -addr, -restart, -store-dir or -faults")
		}
		if *fleetN < 2 {
			return fmt.Errorf("-fleet needs at least 2 peers, got %d", *fleetN)
		}
		if *killPeer >= *fleetN {
			return fmt.Errorf("-killpeer %d is outside the %d-peer fleet", *killPeer, *fleetN)
		}
		if *scheddBin != "" && *killPeer == 0 {
			return fmt.Errorf("-killpeer 0 would kill the fleet entry point in -schedd mode")
		}
	} else if *scheddBin != "" || *killPeer >= 0 {
		return fmt.Errorf("-schedd and -killpeer require -fleet")
	}
	var reg *fault.Registry
	if *faults != "" {
		specs, err := fault.ParseSpecs(*faults)
		if err != nil {
			return err
		}
		reg = fault.NewRegistry(*faultSeed)
		reg.ArmSpecs(specs)
	}
	if *restart && *storeDir == "" {
		dir, err := os.MkdirTemp("", "schedload-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		*storeDir = dir
	}

	// launch boots the in-process server — persistent-backed when -store-dir
	// is set — and returns its base URL plus a full-stop closure. -restart
	// calls it twice on the same directory; that stop/relaunch pair IS the
	// process restart being measured.
	memoBytes := *cacheMB << 20
	if *cacheMB < 0 {
		memoBytes = -1
	}
	launch := func() (string, func() error, error) {
		opts := server.Options{MemoBytes: memoBytes, Faults: reg}
		var disk *store.Disk
		if *storeDir != "" {
			sopts := store.Options{}
			if reg != nil {
				// Sync on, so the fs.sync point has syncs to fail.
				sopts = store.Options{Sync: true, FS: fault.Inject(fault.OS(), reg)}
			}
			d, err := store.Open(*storeDir, sopts)
			if err != nil {
				return "", nil, err
			}
			disk = d
			tiered := store.NewTiered(grid.NewMemStore(memoBytes), disk)
			opts.Store = tiered
			opts.Checkpoints = tiered
		}
		srv := server.New(opts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			if disk != nil {
				disk.Close()
			}
			return "", nil, err
		}
		hs := &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go hs.Serve(ln)
		stop := func() error {
			// Every request has been answered when stop runs. Shutdown
			// would also wait five seconds for any connection the client
			// dialed but never used; Close does not.
			hs.Close()
			srv.Close()
			if disk != nil {
				return disk.Close()
			}
			return nil
		}
		return "http://" + ln.Addr().String(), stop, nil
	}

	base := *addr
	var stop func() error
	var fh *fleetHarness
	if *fleetN > 0 {
		var err error
		fh, err = launchFleet(*fleetN, *replicas, *scheddBin, server.Options{MemoBytes: memoBytes})
		if err != nil {
			return err
		}
		defer fh.stopAll()
		base = fh.base
	} else if base == "" {
		var err error
		base, stop, err = launch()
		if err != nil {
			return err
		}
		defer func() {
			if stop != nil {
				stop()
			}
		}()
	}
	base = strings.TrimSuffix(base, "/")

	bodies, uniqueCount, err := buildBodies(*requests, *unique, *seed, workload.RandomConfig{
		N: *nTasks, Ratio: *ratio, Utilization: *util, Cores: *cores,
	})
	if err != nil {
		return err
	}

	// assignment[i] is the body index request i submits: round-robin over
	// the unique bodies (every body appears, repeats are spread evenly) then
	// a seeded Fisher–Yates shuffle — the stream is a pure function of the
	// seed, independent of concurrency.
	mixRNG := stats.NewRNG(*seed ^ 0x5eed10ad)
	assignment := make([]int, *requests)
	for i := range assignment {
		assignment[i] = i % uniqueCount
	}
	for i := len(assignment) - 1; i > 0; i-- {
		j := int(mixRNG.Uniform(0, float64(i+1)))
		if j > i {
			j = i
		}
		assignment[i], assignment[j] = assignment[j], assignment[i]
	}

	client := &http.Client{Timeout: 60 * time.Second}
	rc := &retry.HTTPClient{Client: client, Policy: retry.Policy{MaxAttempts: 5, Base: 5 * time.Millisecond}}
	var cold phaseResult
	if fh != nil && *killPeer >= 0 {
		// A third of the stream lands on the healthy fleet, then the victim
		// dies hard and stays dead: the surviving replicas must absorb every
		// remaining request (the retry client rides out the blip).
		killAt := len(assignment) / 3
		if killAt < 1 {
			killAt = 1
		}
		pre := firePhase(rc, base, bodies, assignment[:killAt], *conc, *faultSeed)
		if err := fh.kill(*killPeer); err != nil {
			return err
		}
		post := firePhase(rc, base, bodies, assignment[killAt:], *conc, *faultSeed+1000)
		cold = mergePhases(pre, post)
	} else {
		cold = firePhase(rc, base, bodies, assignment, *conc, *faultSeed)
	}
	var warm *phaseResult
	var coldFams []obs.Family
	if *restart {
		var err error
		if coldFams, err = scrape(client, base); err != nil {
			return fmt.Errorf("scraping the cold phase's /metrics: %w", err)
		}
		if err := stop(); err != nil {
			return fmt.Errorf("stopping cold server: %w", err)
		}
		stop = nil
		base, stop, err = launch()
		if err != nil {
			return fmt.Errorf("relaunching on %s: %w", *storeDir, err)
		}
		w := firePhase(rc, base, bodies, assignment, *conc, *faultSeed+1)
		warm = &w
	}

	// Determinism audit — spanning BOTH phases: a body must receive identical
	// bytes whether it was served cold, from the warm cache, or across the
	// restart from the recovered store. Degraded responses are excluded:
	// whether a solve budget expired is a property of load, not of the
	// request body, so they sit outside the byte contract — and therefore
	// injected faults must not change the audit's verdict.
	first := make(map[int]string, uniqueCount)
	mismatches := 0
	phases := []phaseResult{cold}
	if warm != nil {
		phases = append(phases, *warm)
	}
	for _, ph := range phases {
		for i, r := range ph.responses {
			if r == "" || ph.degraded[i] {
				continue
			}
			if want, ok := first[assignment[i]]; !ok {
				first[assignment[i]] = r
			} else if r != want {
				mismatches++
			}
		}
	}

	// The headline numbers describe the measured phase: the warm replay when
	// -restart, the single pass otherwise.
	measured := cold
	if warm != nil {
		measured = *warm
	}
	errCount := cold.errCount
	if warm != nil {
		errCount += warm.errCount
	}
	rep := &report{
		Requests:    *requests,
		UniqueSets:  uniqueCount,
		Concurrency: *conc,
		Seed:        *seed,
		DurationMs:  float64(measured.elapsed.Nanoseconds()) / 1e6,
		Errors:      errCount,
		Mismatches:  mismatches,
		Faults:      *faults,
	}
	for _, ph := range phases {
		rep.Shed += ph.shed
		rep.Retries += ph.retries
		rep.Degraded += ph.nDegraded
	}
	rep.Throughput = float64(*requests-measured.errCount) / measured.elapsed.Seconds()
	rep.LatencyMs.P50 = measured.percentile(0.50)
	rep.LatencyMs.P90 = measured.percentile(0.90)
	rep.LatencyMs.P99 = measured.percentile(0.99)
	rep.LatencyMs.Max = measured.percentile(1)
	// End-of-run /metrics scrape (DESIGN.md §13) of whatever the stream
	// entered through: the server, or the fleet front end. It must parse as
	// strict exposition format. Against the clean in-process server the
	// submit counter must equal exactly what this client sent: the initial
	// stream plus every retry (the server counts shed requests too — both
	// sides see the same wire).
	fams, err := scrape(client, base)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	if fh != nil {
		if obs.FindFamily(fams, "schedd_fleet_failovers_total") == nil {
			return fmt.Errorf("the fleet front end's /metrics carries no routing counters")
		}
		rep.Fleet = &fleetReport{
			Peers: *fleetN, Replicas: *replicas,
			Processes: *scheddBin != "", KilledPeer: *killPeer,
			Failovers: sumSeries(fams, "schedd_fleet_failovers_total"),
			Errors:    sumSeries(fams, "schedd_fleet_errors_total"),
		}
	} else {
		rep.Metrics = newMetricsReport(fams)
		if *addr == "" && warm == nil {
			want := float64(*requests) + float64(cold.retries)
			if rep.Metrics.SubmitsTotal != want {
				return fmt.Errorf("metrics cross-check: server counted %g submit requests, client sent %g (%d requests + %d retries)",
					rep.Metrics.SubmitsTotal, want, *requests, cold.retries)
			}
		}
	}
	if warm != nil {
		rep.Restart = newRestartReport(coldFams, fams, cold, *warm)
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if mismatches > 0 {
		return fmt.Errorf("%d determinism mismatches: identical bodies received different bytes", mismatches)
	}
	if errCount > 0 {
		return fmt.Errorf("%d of %d requests failed", errCount, *requests)
	}
	// Under injected faults the avoidance gate is meaningless: write failures
	// legitimately drop persists, so the warm phase re-solves what the faults
	// tore. The determinism and error gates above still hold — that is the
	// robustness contract being smoked.
	if rep.Restart != nil && *faults == "" && rep.Restart.SolveAvoidancePct < 90 {
		return fmt.Errorf("warm restart avoided only %.1f%% of solves (want >= 90%%): the store did not serve recovered schedules",
			rep.Restart.SolveAvoidancePct)
	}
	return nil
}

// phaseResult captures one pass of the request stream over the wire.
type phaseResult struct {
	latencies []float64 // sorted, successful requests only, milliseconds
	responses []string  // indexed by request, "" on error
	degraded  []bool    // indexed by request: 200 served from the WCS fallback
	errCount  int
	shed      int64 // 503 responses observed (each retried until attempts run out)
	retries   int64 // requests re-sent after a retryable failure
	nDegraded int64
	elapsed   time.Duration
}

// percentile returns the p-quantile of the phase's sorted latencies.
func (ph *phaseResult) percentile(p float64) float64 {
	return percentile(ph.latencies, p)
}

// fireOne sends one request through the shared retry client (internal/retry:
// seeded-jitter exponential backoff, Retry-After honored, 503s and transport
// failures retried — the same client the fleet router paces its passes with).
// It returns the final body ("" on error), whether the response was degraded,
// and the wall latency of the whole exchange in milliseconds.
func fireOne(rc *retry.HTTPClient, url, body string, rng *stats.RNG, ph *phaseResult, mu *sync.Mutex) (string, bool, float64) {
	t0 := time.Now()
	res, err := rc.Post(context.Background(), url, "application/json", []byte(body), rng)
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6
	if res != nil {
		mu.Lock()
		ph.shed += res.Sheds
		ph.retries += res.Retries
		mu.Unlock()
	}
	if err != nil || res == nil || res.Status != http.StatusOK {
		return "", false, 0
	}
	var flag struct {
		Degraded bool `json:"degraded"`
	}
	json.Unmarshal(res.Body, &flag)
	return string(res.Body), flag.Degraded, lat
}

// firePhase fires every request in assignment order from conc concurrent
// clients and collects latencies, response bytes, and robustness counters.
// jitterSeed seeds the per-worker backoff jitter streams.
func firePhase(rc *retry.HTTPClient, base string, bodies []string, assignment []int, conc int, jitterSeed uint64) phaseResult {
	n := len(assignment)
	latencies := make([]float64, n)
	ph := phaseResult{responses: make([]string, n), degraded: make([]bool, n)}
	var mu sync.Mutex
	jitterMaster := stats.NewRNG(jitterSeed ^ 0xbac0ff)
	rngs := make([]*stats.RNG, conc)
	for w := range rngs {
		rngs[w] = jitterMaster.Split()
	}

	start := time.Now()
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idxCh {
				body, deg, lat := fireOne(rc, base+"/v1/schedules",
					bodies[assignment[i]], rngs[w], &ph, &mu)
				if body == "" {
					mu.Lock()
					ph.errCount++
					mu.Unlock()
					continue
				}
				if deg {
					mu.Lock()
					ph.nDegraded++
					mu.Unlock()
				}
				latencies[i] = lat
				ph.responses[i] = body
				ph.degraded[i] = deg
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	ph.elapsed = time.Since(start)

	for i, l := range latencies {
		if ph.responses[i] != "" {
			ph.latencies = append(ph.latencies, l)
		}
	}
	sort.Float64s(ph.latencies)
	return ph
}

// mergePhases concatenates two segments of one logical stream (the pre- and
// post-kill halves of a -killpeer run) into a single phase: responses keep
// their stream order so the determinism audit spans the kill.
func mergePhases(a, b phaseResult) phaseResult {
	out := phaseResult{
		responses: append(append([]string{}, a.responses...), b.responses...),
		degraded:  append(append([]bool{}, a.degraded...), b.degraded...),
		errCount:  a.errCount + b.errCount,
		shed:      a.shed + b.shed,
		retries:   a.retries + b.retries,
		nDegraded: a.nDegraded + b.nDegraded,
		elapsed:   a.elapsed + b.elapsed,
	}
	out.latencies = append(append([]float64{}, a.latencies...), b.latencies...)
	sort.Float64s(out.latencies)
	return out
}

// fleetHarness is a running fleet under test: a base URL the stream enters
// through, a hard-kill switch for one peer, and full teardown.
type fleetHarness struct {
	base   string
	killFn func(int) error
	stopFn func()
}

func (f *fleetHarness) kill(i int) error { return f.killFn(i) }
func (f *fleetHarness) stopAll()         { f.stopFn() }

// launchFleet boots an n-peer fleet. With bin == "" the peers are in-process
// servers behind an in-process fleet router (the wiring pinned by
// TestFleetChaos); with bin set, each peer is a real schedd process in
// -peers/-self fleet mode and the stream enters through peer 0's front end —
// the multi-process smoke CI runs.
func launchFleet(n, replicas int, bin string, sopts server.Options) (*fleetHarness, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	if bin != "" {
		return launchFleetProcs(names, replicas, bin)
	}

	ring := fleet.NewRing(names, fleet.DefaultVnodes)
	// Per-peer timeout matches the serving layer's WriteTimeout: a long solve
	// is legitimate; a dead peer fails fast by refusing the connection.
	topo := fleet.NewTopology(nil, fleet.TopologyOptions{PeerTimeout: 2 * time.Minute})
	type peerProc struct {
		srv   *server.Server
		hs    *http.Server
		alive bool
	}
	peers := make([]*peerProc, 0, n)
	cleanup := func() {
		for _, p := range peers {
			if p.alive {
				p.hs.Close()
				p.srv.Close()
			}
		}
		topo.Close()
	}
	for _, name := range names {
		blobs := store.NewMemBlobs()
		po := sopts
		repl := fleet.NewReplicatedBlobs(fleet.ReplicatedBlobsOptions{
			Local: blobs, Self: name, Ring: ring, Topo: topo, Replicas: replicas,
		})
		po.Checkpoints = repl
		po.InternalBlobs = blobs
		srv := server.New(po)
		repl.RegisterMetrics(srv.Metrics())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			cleanup()
			return nil, err
		}
		hs := &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go hs.Serve(ln)
		topo.SetURL(name, "http://"+ln.Addr().String())
		peers = append(peers, &peerProc{srv: srv, hs: hs, alive: true})
	}
	router := fleet.NewRouter(fleet.Options{Ring: ring, Topology: topo, Replicas: replicas})
	// The front end serves the router's counters on /metrics, as a schedd
	// fleet peer does.
	reg := obs.NewRegistry()
	router.RegisterMetrics(reg)
	front := http.NewServeMux()
	front.Handle("GET /metrics", reg)
	front.Handle("/", router)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return nil, err
	}
	rhs := &http.Server{Handler: front, ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout: 2 * time.Minute, IdleTimeout: 2 * time.Minute}
	go rhs.Serve(rln)
	return &fleetHarness{
		base: "http://" + rln.Addr().String(),
		killFn: func(i int) error {
			if i < 0 || i >= len(peers) {
				return fmt.Errorf("no peer %d in a %d-peer fleet", i, len(peers))
			}
			p := peers[i]
			p.alive = false
			p.srv.Close()
			return p.hs.Close() // hard stop: in-flight connections die too
		},
		stopFn: func() {
			rhs.Close() // not Shutdown: see launch's stop in run
			cleanup()
		},
	}, nil
}

// launchFleetProcs runs each peer as a schedd OS process. The whole peer
// table is pre-assigned ephemeral ports, because every daemon needs it at
// boot; readiness is its front end answering /v1/healthz.
func launchFleetProcs(names []string, replicas int, bin string) (*fleetHarness, error) {
	addrs := make([]string, len(names))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	table := make([]string, len(names))
	for i, name := range names {
		table[i] = name + "=http://" + addrs[i]
	}
	peersSpec := strings.Join(table, ",")

	procs := make([]*exec.Cmd, len(names))
	alive := make([]bool, len(names))
	stopAll := func() {
		for i, cmd := range procs {
			if cmd != nil && alive[i] {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
	}
	for i, name := range names {
		cmd := exec.Command(bin,
			"-addr", addrs[i], "-peers", peersSpec, "-self", name,
			"-replicas", fmt.Sprint(replicas))
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			stopAll()
			return nil, fmt.Errorf("starting peer %s: %w", name, err)
		}
		procs[i], alive[i] = cmd, true
	}
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for i := range names {
		for {
			resp, err := probe.Get("http://" + addrs[i] + "/v1/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				stopAll()
				return nil, fmt.Errorf("peer %s never became ready on %s", names[i], addrs[i])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	probe.CloseIdleConnections()
	return &fleetHarness{
		base: "http://" + addrs[0],
		killFn: func(i int) error {
			if i < 0 || i >= len(procs) {
				return fmt.Errorf("no peer %d in a %d-peer fleet", i, len(procs))
			}
			alive[i] = false
			if err := procs[i].Process.Kill(); err != nil {
				return err
			}
			procs[i].Wait() // reap; a killed process "fails" by design
			return nil
		},
		stopFn: stopAll,
	}, nil
}

// scrape fetches and strictly parses base's /metrics. Any exposition-format
// violation is an error — the load run doubles as the format smoke for the
// metrics surface.
func scrape(client *http.Client, base string) ([]obs.Family, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("invalid exposition format: %w", err)
	}
	return fams, nil
}

// sample reads one series of a scrape; an absent series reads 0.
func sample(fams []obs.Family, name string, labels ...obs.Label) float64 {
	v, _ := obs.SampleValue(fams, name, labels...)
	return v
}

// sumSeries adds up every series of a counter family (e.g. one per peer).
func sumSeries(fams []obs.Family, name string) float64 {
	var n float64
	if f := obs.FindFamily(fams, name); f != nil {
		for _, sm := range f.Samples {
			n += sm.Value
		}
	}
	return n
}

// newMetricsReport lifts the submit counter, the memo's schedule accounting
// and the stage latency histograms out of a server scrape.
func newMetricsReport(fams []obs.Family) *metricsReport {
	schedule := obs.L("kind", "schedule")
	mr := &metricsReport{
		SubmitsTotal:   sample(fams, "schedd_requests_total", obs.L("endpoint", "submit")),
		ScheduleHits:   sample(fams, "schedd_memo_hits_total", schedule),
		ScheduleMisses: sample(fams, "schedd_memo_misses_total", schedule),
		Evictions:      sample(fams, "schedd_memo_evictions_total"),
		BytesUsed:      sample(fams, "schedd_memo_bytes_used"),
		BytesCap:       sample(fams, "schedd_memo_bytes_cap"),
	}
	for _, stage := range []string{
		"admission_wait", "solve_wcs", "solve_acs",
		"solve_partition", "sim", "store_get", "store_put", "feedback_resolve",
	} {
		lab := obs.L("stage", stage)
		n, ok := obs.SampleValue(fams, "schedd_stage_seconds_count", lab)
		if !ok || n == 0 {
			continue // stage never ran in this workload
		}
		ms := metricsStage{Stage: stage, Count: n}
		if q, ok := obs.HistogramQuantile(fams, "schedd_stage_seconds", 0.50, lab); ok {
			ms.P50Ms = 1e3 * q
		}
		if q, ok := obs.HistogramQuantile(fams, "schedd_stage_seconds", 0.90, lab); ok {
			ms.P90Ms = 1e3 * q
		}
		if q, ok := obs.HistogramQuantile(fams, "schedd_stage_seconds", 0.99, lab); ok {
			ms.P99Ms = 1e3 * q
		}
		mr.Stages = append(mr.Stages, ms)
	}
	return mr
}

// newRestartReport compares the cold server's scrape, taken just before it
// stopped, with the warm server's end-of-run scrape.
func newRestartReport(coldFams, warmFams []obs.Family, cold, warm phaseResult) *restartReport {
	schedule := obs.L("kind", "schedule")
	rr := &restartReport{
		ColdScheduleMisses: int64(sample(coldFams, "schedd_memo_misses_total", schedule)),
		WarmScheduleMisses: int64(sample(warmFams, "schedd_memo_misses_total", schedule)),
		WarmMemHits:        int64(sample(warmFams, "schedd_store_tier_hits_total", obs.L("tier", "mem"))),
		WarmDiskHits:       int64(sample(warmFams, "schedd_store_tier_hits_total", obs.L("tier", "disk"))),
		RecoveredEntries:   int64(sample(warmFams, "schedd_store_recovered_entries")),
		TornRecordsDropped: int64(sample(warmFams, "schedd_store_torn_records_dropped")),
		ColdDurationMs:     float64(cold.elapsed.Nanoseconds()) / 1e6,
		WarmDurationMs:     float64(warm.elapsed.Nanoseconds()) / 1e6,
		ColdP50Ms:          cold.percentile(0.50),
		WarmP50Ms:          warm.percentile(0.50),
	}
	if rr.ColdScheduleMisses > 0 {
		rr.SolveAvoidancePct = 100 * (1 - float64(rr.WarmScheduleMisses)/float64(rr.ColdScheduleMisses))
	}
	return rr
}

// buildBodies generates the unique request bodies: max(1, requests·unique)
// distinct feasible task sets drawn from per-set RNG streams split off the
// master seed.
func buildBodies(requests int, unique float64, seed uint64, cfg workload.RandomConfig) ([]string, int, error) {
	count := int(float64(requests)*unique + 0.5)
	if count < 1 {
		count = 1
	}
	if count > requests {
		count = requests
	}
	master := stats.NewRNG(seed)
	bodies := make([]string, count)
	feasible := func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil }
	if cfg.Cores > 1 {
		// Partitioned streams must generate sets the server's FFD
		// admission will accept, not merely single-core-feasible ones.
		feasible = func(s *task.Set) bool {
			_, err := partition.Admit(s, partition.Config{Cores: cfg.Cores})
			return err == nil
		}
	}
	for i := range bodies {
		rng := master.Split()
		set, err := workload.RandomFeasible(rng, cfg, 100, feasible)
		if err != nil {
			return nil, 0, fmt.Errorf("generating set %d: %w", i, err)
		}
		body, err := json.Marshal(struct {
			Tasks []task.Task `json:"tasks"`
			Cores int         `json:"cores,omitempty"`
		}{set.Tasks, cfg.Cores})
		if err != nil {
			return nil, 0, err
		}
		bodies[i] = string(body)
	}
	return bodies, count, nil
}

// percentile returns the p-quantile of sorted xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(p*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
