package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// clients is the closed loop's width: two callers, each waiting for its
// reply before sending again, over two keep-alive connections.
const clients = 2

// shape fixes one workload's inputs. The timed phase runs opsPerSec ×
// -seconds ops: a fixed count, not a deadline, so parent and change do
// identical work; the rate is calibrated so the phase lasts about -seconds
// on the reference host.
type shape struct {
	pool      pool
	sets      int // hot_repeat: distinct sets; session_durable: sessions
	opsPerSec float64
	tail      float64 // the latency_tail_ms percentile
}

// sizes holds every size the benchmark runs at; tests shrink them.
type sizes struct {
	shapes      map[string]shape
	warmup      int // fixed warm-up submits in the set-up of the distinct-key workloads
	setupReps   int // set-ups per untraced run; setup_s is their median
	replaySets  int // sets the traced replay solves through the heavy layers
	replayCalls int // calls per light layer in the traced replay
}

// The populations the workloads draw their task sets from, at utilisation
// 0.7 per core. Random sets are not all solvable — WCS synthesis answers
// 422 "solver produced an invalid schedule" on about one in 700, a defect
// of internal/core — and a benchmark input must never fail, so the pools
// are fixed and every set in them is known to solve: TestPoolsSolve checks
// it with BENCH_POOLS=1.
var (
	singlePool = pool{seed: 0x73696e676c65, size: 2000, tasks: 4, ratio: 0.5}
	partPool   = pool{seed: 0x70617274, size: 2000, tasks: 8, cores: 4, ratio: 0.5}
	devicePool = pool{seed: 2005, size: 24, tasks: 4, ratio: 0.1}
)

var defaultSizes = sizes{
	shapes: map[string]shape{
		"hot_repeat":      {pool: singlePool, sets: 20, opsPerSec: 550, tail: 0.99},
		"cold_solve":      {pool: singlePool, opsPerSec: 10, tail: 0.95},
		"partitioned":     {pool: partPool, opsPerSec: 25, tail: 0.95},
		"session_durable": {pool: devicePool, sets: 24, opsPerSec: 100, tail: 0.99},
	},
	warmup:      4,
	setupReps:   3,
	replaySets:  3,
	replayCalls: 200,
}

// ops is the timed op count of sh at a budget of seconds.
func (sh shape) ops(seconds float64) int {
	n := int(math.Round(sh.opsPerSec * seconds))
	if n < 1 {
		n = 1
	}
	return n
}

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name, why string
	run       func(b *bench, sh shape) (*outcome, error)
}

var workloads = []workloadSpec{
	{"hot_repeat", "20 sets solved in set-up, then submit/get/compare repeats: every op is a memo hit, so the serving layers are all that is timed", (*bench).hotRepeat},
	{"cold_solve", "a distinct set per submit: every op misses the memo, so the WCS and ACS solves set the time", (*bench).coldSolve},
	{"partitioned", "distinct 8-task sets on 4 cores: admission and the per-core fan-out over the same solver", (*bench).partitioned},
	{"session_durable", "24 adaptive sessions on a disk-backed store: observe batches write checkpoints and re-solve on mode switches", (*bench).sessionDurable},
}

// bench is one invocation's settings.
type bench struct {
	seed    uint64
	seconds float64
	traced  bool
	sz      sizes
}

// check is one named correctness check; err is nil when it passed.
type check struct {
	name string
	err  error
}

// outcome is what one run of one workload measured.
type outcome struct {
	attempted, failed int
	firstFailure      error
	checks            []check

	setup   []float64   // seconds per set-up
	lat     []float64   // ms per successful timed op, sorted
	rounds  [][]float64 // lat cut into nRounds runs of consecutive ops, each sorted
	wall    time.Duration
	heapMiB float64
	tail    float64
	energy  []float64 // improvement_pct per distinct submit response
	runtime []float64 // improvement_pct per distinct compare response

	// Server-side view of the timed phase, for the per-layer metrics.
	before, after  scrape
	opsBy          [nEndpoints]float64
	retries, sheds int64
	resolveShare   float64 // share of observes that re-solved

	layers layerReport
	spans  []span
}

func (o *outcome) check(name string, err error) { o.checks = append(o.checks, check{name, err}) }

// timedOps collects the per-op results of a timed phase in index-addressed
// slots, so concurrent clients never share a slot.
type timedOps struct {
	t0         time.Time
	start, end []time.Duration
	errs       []error
}

func newTimedOps(n int) *timedOps {
	return &timedOps{t0: time.Now(), start: make([]time.Duration, n), end: make([]time.Duration, n), errs: make([]error, n)}
}

// begin and done bracket op i: from the send to the full reply read.
func (t *timedOps) begin(i int) { t.start[i] = time.Since(t.t0) }
func (t *timedOps) done(i int)  { t.end[i] = time.Since(t.t0) }

// nRounds is how many runs of consecutive ops the tail percentile is taken
// over separately, when each is large enough (see tailLatency).
const nRounds = 5

// fold records the phase into o: attempts, failures, and the sorted
// latencies of the successful ops, pooled and per round.
func (t *timedOps) fold(o *outcome) {
	n := len(t.errs)
	o.attempted += n
	o.rounds = make([][]float64, nRounds)
	for i, err := range t.errs {
		if err != nil {
			o.failed++
			if o.firstFailure == nil {
				o.firstFailure = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		ms := float64((t.end[i] - t.start[i]).Nanoseconds()) / 1e6
		o.lat = append(o.lat, ms)
		r := i * nRounds / n
		o.rounds[r] = append(o.rounds[r], ms)
	}
	sort.Float64s(o.lat)
	for _, rd := range o.rounds {
		sort.Float64s(rd)
	}
}

// tailLatency is the latency_tail_ms rule: the median of the rounds' tail
// percentiles when every round has minBeyond samples beyond its own, so that
// a few seconds of contention from outside the process move one round, not
// the result; otherwise the tail percentile of the whole phase. beyond is
// the fewest samples beyond the percentile in the slices used.
func (o *outcome) tailLatency() (v float64, beyond int, perRound bool, err error) {
	var tails []float64
	beyond = len(o.lat)
	for _, rd := range o.rounds {
		t, b, err := tailAt(rd, o.tail)
		if err != nil {
			v, beyond, err = tailAt(o.lat, o.tail)
			return v, beyond, false, err
		}
		tails, beyond = append(tails, t), min(beyond, b)
	}
	_, v, _ = quartiles(tails)
	return v, beyond, true, nil
}

// setUp runs set-up once per rep on fresh state, timing each; the last
// rep's state stays up for the timed phase, earlier reps are torn down.
// Traced runs set up once: setup_s is not among their metrics.
func (b *bench) setUp(o *outcome, once func() (teardown func(), err error)) (func(), error) {
	reps := b.sz.setupReps
	if b.traced || reps < 1 {
		reps = 1
	}
	var teardown func()
	for r := 0; r < reps; r++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		td, err := once()
		if err != nil {
			if td != nil {
				td()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		teardown = td
	}
	return teardown, nil
}

// measureHeap records the live heap after a full collection.
func (o *outcome) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
}

// finishServer scrapes /metrics after the timed phase and runs the checks
// every workload shares: the exposition parses, and the server counted
// exactly the requests this client put on the wire.
func (o *outcome) finishServer(c *caller) error {
	s, err := c.scrape()
	if err != nil {
		return err
	}
	o.after = s
	o.retries, o.sheds = c.retries.Load(), c.sheds.Load()
	o.check("metrics_parse", nil)
	o.check("request_counts", c.checkRequestCounts(s))
	return nil
}

// pool is a fixed, numbered population of generated task sets: set i is
// drawn from the i-th RNG stream split off seed, so it depends on i alone.
// Sets of a partitioned pool pass the server's FFD admission, the others
// single-core feasibility.
type pool struct {
	seed         uint64
	size         int
	tasks, cores int
	ratio        float64
}

// pools.json holds the solo solve time of every set of the default pools,
// measured once on the reference host; TestPoolsSolve regenerates it with
// BENCH_POOLS=1. The times only rank the sets for draw, so the draws stay
// the same however fast the host or the solver is.
//
//go:embed pools.json
var poolsJSON []byte

type poolCosts struct {
	Seed    uint64    `json:"seed"`
	Size    int       `json:"size"`
	Tasks   int       `json:"tasks"`
	Cores   int       `json:"cores"`
	Ratio   float64   `json:"ratio"`
	SolveMs []float64 `json:"solve_ms"`
}

// costs returns the solve times pools.json records for p's sets, nil when
// it records none.
func (p pool) costs() ([]float64, error) {
	var table struct {
		Pools []poolCosts `json:"pools"`
	}
	if err := json.Unmarshal(poolsJSON, &table); err != nil {
		return nil, fmt.Errorf("pools.json: %w", err)
	}
	for _, t := range table.Pools {
		if t.Seed == p.seed && t.Tasks == p.tasks && t.Cores == p.cores && t.Ratio == p.ratio {
			if t.Size != p.size || len(t.SolveMs) != p.size {
				return nil, fmt.Errorf("pools.json times %d sets of a pool of %d; regenerate it", len(t.SolveMs), p.size)
			}
			return t.SolveMs, nil
		}
	}
	return nil, nil
}

// draw returns n distinct indices, at or above skip (the indices below are
// the fixed warm-up sets), as a sample stratified by solve time: the
// candidates are ranked by their time in pools.json (by index for a pool it
// does not time) and cut into n equal strata, and the seed picks one set
// from each. One set's solve takes up to 300 times another's, and sets of
// one plan size differ tenfold, so a plain random sample of a few hundred —
// or one stratified by plan size — makes every run's cost follow the seed's
// luck; stratifying by time keeps each run's mix of work fixed while the
// seed still chooses the sets. The picks come in a seeded order, so heavy
// and light sets mix over the timed phase.
func (p pool) draw(seed uint64, skip, n int) ([]int, error) {
	if skip+n > p.size {
		return nil, fmt.Errorf("a pool of %d sets cannot supply %d; lower -seconds", p.size, skip+n)
	}
	cost, err := p.costs()
	if err != nil {
		return nil, err
	}
	cand := all(p.size)[skip:]
	if cost != nil {
		sort.SliceStable(cand, func(a, b int) bool { return cost[cand[a]] < cost[cand[b]] })
	}
	rng := stats.NewRNG(seed)
	step := float64(len(cand)) / float64(n)
	picks := make([]int, n)
	for j := range picks {
		picks[j] = cand[min(int((float64(j)+rng.Float64())*step), len(cand)-1)]
	}
	out := make([]int, n)
	for j, k := range rng.Perm(n) {
		out[j] = picks[k]
	}
	return out, nil
}

// sets generates the pool's sets at idx.
func (p pool) sets(idx []int) ([]*task.Set, error) {
	cfg := workload.RandomConfig{N: p.tasks, Ratio: p.ratio, Utilization: 0.7, Cores: p.cores}
	feasible := func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil }
	if p.cores > 1 {
		feasible = func(s *task.Set) bool {
			_, err := partition.Admit(s, partition.Config{Cores: p.cores})
			return err == nil
		}
	}
	master := stats.NewRNG(p.seed)
	streams := make([]*stats.RNG, p.size)
	for i := range streams {
		streams[i] = master.Split()
	}
	out := make([]*task.Set, len(idx))
	for k, i := range idx {
		s, err := workload.RandomFeasible(streams[i], cfg, 100, feasible)
		if err != nil {
			return nil, fmt.Errorf("generating pool set %d: %w", i, err)
		}
		out[k] = s
	}
	return out, nil
}

// all returns the indices 0..n-1.
func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func submitBody(s *task.Set, cores int) []byte {
	b, err := json.Marshal(server.SubmitRequest{Tasks: s.Tasks, Cores: cores})
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return b
}

// Seed salts: each workload draws from its own streams, so two workloads
// at one seed never share inputs.
const (
	saltHot     = 0x686f74
	saltCold    = 0x636f6c64
	saltPart    = 0x70617274
	saltSession = 0x73657373
	saltShuffle = 0x73687566
	saltJitter  = 0x6a697474
)

// The observation streams: a mode switch every switchEvery hyper-periods,
// reported observeBatch hyper-periods per observe call. A 40-hyper-period
// batch makes an observe's own work — decoding and folding the rows — the
// larger part of its latency, ahead of the round trip and the checkpoint
// write, whose cost on the reference virtual machine drifts far more from
// minute to minute: with 10 the median observe moved by a fifth between
// runs of one seed, with 40 by a tenth. Switching every 480 hyper-periods
// keeps the share of observes that re-solve near 8%.
const (
	observeBatch = 40
	switchEvery  = 480
)

func jitterRNGs(seed uint64) []*stats.RNG {
	master := stats.NewRNG(seed ^ saltJitter)
	rngs := make([]*stats.RNG, clients)
	for i := range rngs {
		rngs[i] = master.Split()
	}
	return rngs
}

// decodeOK requires a 200 and decodes its body into v.
func decodeOK(code int, body []byte, err error, v any) error {
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// hotRepeat: every op repeats a set solved in set-up.
func (b *bench) hotRepeat(sh shape) (*outcome, error) {
	o := &outcome{tail: sh.tail}
	type primed struct {
		fp              string
		submit, compare [sha256.Size]byte
		energy, runtime float64
	}
	var (
		n      *node
		c      *caller
		sets   []*task.Set
		bodies [][]byte
		prime  []primed
	)
	rngs := jitterRNGs(b.seed)
	idx, err := sh.pool.draw(b.seed^saltHot, 0, sh.sets)
	if err != nil {
		return nil, err
	}
	teardown, err := b.setUp(o, func() (func(), error) {
		var err error
		if n, err = boot(""); err != nil {
			return nil, err
		}
		c = newCaller(n.base, clients)
		td := func() { c.close(); n.stop() }
		if sets, err = sh.pool.sets(idx); err != nil {
			return td, err
		}
		bodies = make([][]byte, len(sets))
		for i, s := range sets {
			bodies[i] = submitBody(s, 0)
		}
		prime = make([]primed, len(sets))
		errs := make([]error, len(sets))
		fire(clients, shared(len(sets)), func(cl, i int) {
			var sr server.ScheduleResponse
			code, body, err := c.post("/v1/schedules", bodies[i], rngs[cl])
			if err := decodeOK(code, body, err, &sr); err != nil {
				errs[i] = fmt.Errorf("submit set %d: %w", i, err)
				return
			}
			if sr.Degraded || sr.ImprovementPct == nil {
				errs[i] = fmt.Errorf("submit set %d: degraded or missing improvement_pct", i)
				return
			}
			var cr server.CompareResponse
			code, cbody, err := c.post("/v1/compare", bodies[i], rngs[cl])
			if err := decodeOK(code, cbody, err, &cr); err != nil {
				errs[i] = fmt.Errorf("compare set %d: %w", i, err)
				return
			}
			if cr.ACS.DeadlineMisses != 0 || cr.WCS.DeadlineMisses != 0 {
				errs[i] = fmt.Errorf("compare set %d: %d ACS and %d WCS deadline misses",
					i, cr.ACS.DeadlineMisses, cr.WCS.DeadlineMisses)
				return
			}
			prime[i] = primed{sr.Fingerprint, sha256.Sum256(body), sha256.Sum256(cbody), *sr.ImprovementPct, cr.ImprovementPct}
		})
		return td, errors.Join(errs...)
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	o.check("compare_deadline_misses", nil) // enforced per set in set-up
	for _, p := range prime {
		o.energy = append(o.energy, p.energy)
		o.runtime = append(o.runtime, p.runtime)
	}

	// The op stream: blocks of every set × (submit, submit, get, compare)
	// in a seeded shuffle, cut at the op count.
	const submit, get, compare = epSubmit, epGet, epCompare
	type op struct{ set, kind int }
	total := sh.ops(b.seconds)
	ops := make([]op, 0, total+4*len(sets))
	shuffle := stats.NewRNG(b.seed ^ saltShuffle)
	for len(ops) < total {
		block := make([]op, 0, 4*len(sets))
		for i := range sets {
			block = append(block, op{i, submit}, op{i, submit}, op{i, get}, op{i, compare})
		}
		for _, j := range shuffle.Perm(len(block)) {
			ops = append(ops, block[j])
		}
	}
	ops = ops[:total]
	for _, p := range ops {
		o.opsBy[p.kind]++
	}

	if o.before, err = c.scrape(); err != nil {
		return nil, err
	}
	t := newTimedOps(total)
	o.wall = fire(clients, shared(total), func(cl, i int) {
		p := ops[i]
		want := prime[p.set].submit
		t.begin(i)
		var (
			code int
			body []byte
			err  error
		)
		switch p.kind {
		case submit:
			code, body, err = c.post("/v1/schedules", bodies[p.set], rngs[cl])
		case get:
			code, body, err = c.get("/v1/schedules/" + prime[p.set].fp)
		case compare:
			code, body, err = c.post("/v1/compare", bodies[p.set], rngs[cl])
			want = prime[p.set].compare
		}
		t.done(i)
		switch {
		case err != nil:
			t.errs[i] = err
		case code != http.StatusOK:
			t.errs[i] = fmt.Errorf("status %d", code)
		case sha256.Sum256(body) != want:
			t.errs[i] = fmt.Errorf("set %d: body differs from its set-up response", p.set)
		}
	})
	t.fold(o)
	o.check("body_hashes", nil) // per-op: counted in failed
	o.measureHeap()
	if err := o.finishServer(c); err != nil {
		return nil, err
	}
	var flat error
	for _, kind := range []string{"schedule", "plan"} {
		l := obs.L("kind", kind)
		if d := o.after.value("schedd_memo_misses_total", l) - o.before.value("schedd_memo_misses_total", l); d != 0 {
			flat = errors.Join(flat, fmt.Errorf("%g %s misses in the timed phase, want 0", d, kind))
		}
	}
	o.check("memo_misses_flat", flat)
	if b.traced {
		o.replay(b, "hot_repeat", replayInput{sets, bodies, newSubmit, 0, modeSwitch(b.seed ^ saltHot)})
	}
	return o, nil
}

func (b *bench) coldSolve(sh shape) (*outcome, error) {
	return b.distinct("cold_solve", sh, b.seed^saltCold)
}

func (b *bench) partitioned(sh shape) (*outcome, error) {
	return b.distinct("partitioned", sh, b.seed^saltPart)
}

// distinct submits a distinct set per op: cold_solve and partitioned.
func (b *bench) distinct(name string, sh shape, seed uint64) (*outcome, error) {
	o := &outcome{tail: sh.tail}
	total := sh.ops(b.seconds)
	var (
		n      *node
		c      *caller
		sets   []*task.Set
		bodies [][]byte
	)
	rngs := jitterRNGs(b.seed)
	idx, err := sh.pool.draw(seed, b.sz.warmup, total)
	if err != nil {
		return nil, err
	}
	teardown, err := b.setUp(o, func() (func(), error) {
		var err error
		if n, err = boot(""); err != nil {
			return nil, err
		}
		c = newCaller(n.base, clients)
		td := func() { c.close(); n.stop() }
		if sets, err = sh.pool.sets(idx); err != nil {
			return td, err
		}
		bodies = make([][]byte, len(sets))
		for i, s := range sets {
			bodies[i] = submitBody(s, sh.pool.cores)
		}
		warm, err := sh.pool.sets(all(b.sz.warmup))
		if err != nil {
			return td, err
		}
		errs := make([]error, len(warm))
		fire(clients, shared(len(warm)), func(cl, i int) {
			var sr server.ScheduleResponse
			code, body, err := c.post("/v1/schedules", submitBody(warm[i], sh.pool.cores), rngs[cl])
			errs[i] = decodeOK(code, body, err, &sr)
		})
		return td, errors.Join(errs...)
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	o.opsBy[epSubmit] = float64(total)
	if o.before, err = c.scrape(); err != nil {
		return nil, err
	}
	t := newTimedOps(total)
	energy := make([]float64, total)
	o.wall = fire(clients, shared(total), func(cl, i int) {
		var sr server.ScheduleResponse
		t.begin(i)
		code, body, err := c.post("/v1/schedules", bodies[i], rngs[cl])
		t.done(i)
		if err := decodeOK(code, body, err, &sr); err != nil {
			t.errs[i] = err
			return
		}
		t.errs[i] = checkSchedule(&sr, sh.pool.cores)
		if t.errs[i] == nil {
			energy[i] = *sr.ImprovementPct
		}
	})
	t.fold(o)
	for i, err := range t.errs {
		if err == nil {
			o.energy = append(o.energy, energy[i])
		}
	}
	o.check("responses", nil) // per-op: counted in failed
	o.measureHeap()
	if err := o.finishServer(c); err != nil {
		return nil, err
	}
	if sh.pool.cores <= 1 {
		l := obs.L("kind", "schedule")
		d := o.after.value("schedd_memo_misses_total", l) - o.before.value("schedd_memo_misses_total", l)
		var err error
		if want := 2 * float64(total); d != want {
			err = fmt.Errorf("%g schedule misses for %d distinct sets, want %g", d, total, want)
		}
		o.check("two_misses_per_set", err)
	}
	if b.traced {
		k := b.sz.replaySets
		if k > len(sets) {
			k = len(sets)
		}
		o.replay(b, name, replayInput{sets[:k], bodies[:k], newSubmit, sh.pool.cores, modeSwitch(seed)})
	}
	return o, nil
}

func newSubmit() any { return new(server.SubmitRequest) }

// modeSwitch gives the replay's feedback probe a seeded mode-switching
// observation stream per sample set.
func modeSwitch(seed uint64) func(int, *task.Set) (*workload.Scenario, error) {
	return func(i int, s *task.Set) (*workload.Scenario, error) {
		return workload.NewScenario(s, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: seed + uint64(i), SwitchEvery: switchEvery})
	}
}

// checkSchedule validates one distinct-set submit response: not degraded,
// the saving present, and for partitioned responses one entry per core
// whose energies sum to the global one.
func checkSchedule(sr *server.ScheduleResponse, cores int) error {
	if sr.Degraded {
		return errors.New("degraded response")
	}
	if sr.ImprovementPct == nil {
		return errors.New("no improvement_pct")
	}
	if cores <= 1 {
		return nil
	}
	if len(sr.PerCore) != cores {
		return fmt.Errorf("%d per_core entries for %d cores", len(sr.PerCore), cores)
	}
	sum := 0.0
	for _, pc := range sr.PerCore {
		sum += pc.PredictedEnergy
	}
	if math.Abs(sum-sr.PredictedEnergy) > 1e-9*math.Abs(sr.PredictedEnergy) {
		return fmt.Errorf("predicted_energy %g != per-core sum %g", sr.PredictedEnergy, sum)
	}
	return nil
}

// device is one session of session_durable: its task set, the plan's
// instance→task map, its seeded observation stream, and where in that
// stream it starts.
type device struct {
	id     string
	set    *task.Set
	taskOf []int
	stream *workload.Scenario
	offset int
}

// devices builds the session population. The task sets are fixed — the
// device pool, whatever -seed says — and the observed workload is seeded:
// with 24 seeded sets the run's cost would follow the solve cost of
// whichever sets the seed drew (one set's solve varies 100-fold), swamping
// every bound; a fixed fleet of devices fed seeded workloads keeps the
// inputs seeded and the work comparable across seeds. Device i starts i/24
// of the way into its mode-switch cycle, so re-solves arrive spread over
// the phase rather than in a burst every switch.
func devices(seed uint64, sh shape) ([]device, error) {
	sets, err := sh.pool.sets(all(sh.sets))
	if err != nil {
		return nil, err
	}
	streams := stats.NewRNG(seed ^ saltSession)
	out := make([]device, len(sets))
	for i, s := range sets {
		ins, err := s.Instances()
		if err != nil {
			return nil, err
		}
		taskOf := make([]int, len(ins))
		for j := range ins {
			taskOf[j] = ins[j].TaskIndex
		}
		sc, err := workload.NewScenario(s, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: streams.SplitSeed(), SwitchEvery: switchEvery})
		if err != nil {
			return nil, err
		}
		out[i] = device{fmt.Sprintf("d%02d", i), s, taskOf, sc, i * switchEvery / len(sets)}
	}
	return out, nil
}

// observeBody renders hyper-periods [at, at+observeBatch) of d's stream as
// an observe request asserting position at.
func (d *device) observeBody(at int64) ([]byte, error) {
	rows := make([][]float64, observeBatch)
	for k := range rows {
		rows[k] = make([]float64, len(d.taskOf))
		if err := d.stream.FillActuals(d.offset+int(at)+k, d.taskOf, rows[k]); err != nil {
			return nil, err
		}
	}
	return json.Marshal(server.ObserveRequest{Hyperperiods: rows, At: &at})
}

// sessionDurable: adaptive sessions on a disk-backed store.
func (b *bench) sessionDurable(sh shape) (*outcome, error) {
	o := &outcome{tail: sh.tail}
	var (
		n    *node
		c    *caller
		dir  string
		devs []device
	)
	rngs := jitterRNGs(b.seed)
	teardown, err := b.setUp(o, func() (func(), error) {
		var err error
		if dir, err = os.MkdirTemp("", "bench-sessions-*"); err != nil {
			return nil, err
		}
		if n, err = boot(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		c = newCaller(n.base, clients)
		d := dir
		td := func() { c.close(); n.stop(); os.RemoveAll(d) }
		if devs, err = devices(b.seed, sh); err != nil {
			return td, err
		}
		errs := make([]error, len(devs))
		fire(clients, shared(len(devs)), func(cl, i int) {
			body, err := json.Marshal(server.SessionRequest{
				SubmitRequest: server.SubmitRequest{Tasks: devs[i].set.Tasks},
				SessionID:     devs[i].id,
			})
			if err != nil {
				errs[i] = err
				return
			}
			var sr server.SessionResponse
			code, rb, err := c.post("/v1/sessions", body, rngs[cl])
			if err := decodeOK(code, rb, err, &sr); err != nil {
				errs[i] = fmt.Errorf("creating %s: %w", devs[i].id, err)
			} else if sr.Instances != len(devs[i].taskOf) {
				errs[i] = fmt.Errorf("%s: server plans %d instances, set expands to %d", devs[i].id, sr.Instances, len(devs[i].taskOf))
			}
		})
		return td, errors.Join(errs...)
	})
	if err != nil {
		return nil, err
	}
	defer func() { teardown() }()

	// Client c drives the devices i ≡ c (mod clients), batch by batch, round
	// robin over its devices; op index = batch·sessions + device.
	batches := int(math.Round(sh.opsPerSec * b.seconds / float64(len(devs))))
	if batches < 1 {
		batches = 1
	}
	total := batches * len(devs)
	o.opsBy[epObserve] = float64(total)
	lists := make([][]int, clients)
	for bt := 0; bt < batches; bt++ {
		for i := range devs {
			lists[i%clients] = append(lists[i%clients], bt*len(devs)+i)
		}
	}
	pos := make([]int, clients)
	next := func(cl int) (int, bool) {
		if pos[cl] == len(lists[cl]) {
			return 0, false
		}
		pos[cl]++
		return lists[cl][pos[cl]-1], true
	}

	if o.before, err = c.scrape(); err != nil {
		return nil, err
	}
	t := newTimedOps(total)
	resolved := make([]bool, total)
	o.wall = fire(clients, next, func(cl, i int) {
		d := &devs[i%len(devs)]
		at := int64(i/len(devs)) * observeBatch
		body, err := d.observeBody(at)
		if err != nil {
			t.errs[i] = err
			return
		}
		var or server.ObserveResponse
		t.begin(i)
		code, rb, err := c.post("/v1/sessions/"+d.id+"/observe", body, rngs[cl])
		t.done(i)
		if err := decodeOK(code, rb, err, &or); err != nil {
			t.errs[i] = err
			return
		}
		if or.Observed != at+observeBatch {
			t.errs[i] = fmt.Errorf("%s: observed %d after the batch at %d", d.id, or.Observed, at)
		}
		resolved[i] = or.Resolved
	})
	t.fold(o)
	nResolved := 0
	for _, r := range resolved {
		if r {
			nResolved++
		}
	}
	o.resolveShare = float64(nResolved) / float64(total)
	o.check("observes", nil) // per-op: counted in failed
	o.measureHeap()
	if err := o.finishServer(c); err != nil {
		return nil, err
	}
	var rerr error
	if got := o.after.value("schedd_feedback_resolves_total"); got != float64(nResolved) {
		rerr = fmt.Errorf("server counted %g re-solves, responses reported %d", got, nResolved)
	}
	o.check("resolves_match", rerr)

	// Every session has folded every batch, and a restarted server on the
	// same directory answers every session's state byte for byte.
	before := make([][]byte, len(devs))
	var serr error
	for i := range devs {
		var st server.SessionStatusResponse
		code, body, err := c.get("/v1/sessions/" + devs[i].id)
		if err := decodeOK(code, body, err, &st); err != nil {
			serr = errors.Join(serr, fmt.Errorf("%s: %w", devs[i].id, err))
			continue
		}
		if want := int64(batches * observeBatch); st.Observed != want {
			serr = errors.Join(serr, fmt.Errorf("%s: observed %d hyper-periods, sent %d", devs[i].id, st.Observed, want))
		}
		before[i] = body
	}
	o.check("final_observed", serr)
	o.check("restart_identity", restartIdentity(&n, &c, dir, devs, before))
	if b.traced {
		in := replayInput{newReq: func() any { return new(server.ObserveRequest) },
			stream: func(i int, _ *task.Set) (*workload.Scenario, error) { return devs[i].stream, nil }}
		for i := range devs {
			body, err := devs[i].observeBody(0)
			if err != nil {
				return nil, err
			}
			in.sets, in.bodies = append(in.sets, devs[i].set), append(in.bodies, body)
		}
		o.replay(b, "session_durable", in)
	}
	return o, nil
}

// restartIdentity stops the node, reopens a server on the same store
// directory, and requires every session to restore and answer its status
// with the bytes it answered before the restart. The reopened node and its
// caller replace *n and *c, so the deferred teardown stops them.
func restartIdentity(n **node, c **caller, dir string, devs []device, before [][]byte) error {
	(*c).close()
	if err := (*n).stop(); err != nil {
		return fmt.Errorf("stopping: %w", err)
	}
	nn, err := boot(dir)
	if err != nil {
		return fmt.Errorf("reopening: %w", err)
	}
	*n, *c = nn, newCaller(nn.base, clients)
	if nn.restored != len(devs) {
		return fmt.Errorf("restored %d of %d sessions", nn.restored, len(devs))
	}
	for i := range devs {
		code, body, err := (*c).get("/v1/sessions/" + devs[i].id)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("%s after restart: status %d, %v", devs[i].id, code, err)
		}
		if !bytes.Equal(body, before[i]) {
			return fmt.Errorf("%s: status after restart differs from before", devs[i].id)
		}
	}
	return nil
}
