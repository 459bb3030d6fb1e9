package sim

import (
	"fmt"
	"sync"

	"repro/internal/stats"
)

// The deterministic parallel hyper-period engine.
//
// A simulation of H hyper-periods is a sequence of H independent experiments:
// each takes its own workload vector (drawn by Run, supplied by the caller of
// RunActuals) and replays the compiled plan from time zero (the dispatcher
// state — current time, last voltage — resets at every hyper-period
// boundary). That independence is what the engine exploits: one fan-out
// shards the hyper-periods into contiguous blocks across Config.Workers
// goroutines for both entry points.
//
// Determinism contract (see DESIGN.md §5): the workload stream of every
// drawn hyper-period comes from its own stats.RNG stream, whose seed is split
// from the master seed in hyper-period order *before* any work is dispatched;
// per-hyper-period results land in an index-addressed slice; and the fan-in
// folds them into Result in hyper-period order. Energy sums, the
// PerHyperperiod summary accumulation order, switch counts — every field of
// Result is therefore bit-identical for any Workers value, including 1.

// Run simulates the compiled plan under cfg and returns aggregate statistics.
// It may be called concurrently from multiple goroutines.
func (p *CompiledPlan) Run(cfg Config) (*Result, error) {
	if cfg.Hyperperiods <= 0 {
		cfg.Hyperperiods = 100
	}
	return p.run(cfg, cfg.Hyperperiods, nil)
}

// RunActuals replays the compiled plan over len(actuals) hyper-periods whose
// per-instance workloads are supplied by the caller instead of drawn from
// Config.Dist — the execution entry point of the feedback subsystem's closed
// loop, where an external (possibly nonstationary) scenario owns the workload
// stream and the plan under execution is hot-swapped at hyper-period
// boundaries: because the stream is external, splitting a horizon into chunks
// executed on different plans changes nothing about the workloads, and each
// chunk's Result is bit-identical for any Workers value exactly as Run's is.
//
// Config.Hyperperiods, Seed and Dist are ignored; Policy, Overhead, Workers
// and Ctx apply as in Run. Every actuals[h] must have length Instances() and
// is read, never written.
func (p *CompiledPlan) RunActuals(cfg Config, actuals [][]float64) (*Result, error) {
	return p.run(cfg, len(actuals), actuals)
}

// run is the one fan-out behind Run and RunActuals. It checks the policy
// before anything else, then simulates h hyper-periods: hyper-period i
// executes actuals[i], or, when actuals is nil (Run; an empty RunActuals
// horizon has returned by then), a fresh draw from cfg.Dist under its own
// RNG stream. The hyper-periods are sharded into contiguous blocks across
// cfg.Workers goroutines, each with its own scratch buffers, so the
// per-hyper-period loop never allocates; results land in an index-addressed
// slice that fold aggregates in hyper-period order.
func (p *CompiledPlan) run(cfg Config, h int, actuals [][]float64) (*Result, error) {
	switch cfg.Policy {
	case Greedy, Static, NoDVS:
	default:
		return nil, fmt.Errorf("sim: unknown slack policy %v", cfg.Policy)
	}
	if h == 0 {
		return &Result{}, nil
	}
	n := len(p.bcec)
	for i, row := range actuals {
		if len(row) != n {
			return nil, fmt.Errorf("sim: actuals[%d] has %d workloads, want %d instances", i, len(row), n)
		}
	}
	var seeds []uint64
	if actuals == nil {
		// One RNG stream per hyper-period, split in index order before
		// dispatch.
		master := stats.NewRNG(cfg.Seed)
		seeds = make([]uint64, h)
		for i := range seeds {
			seeds[i] = master.SplitSeed()
		}
	}
	dist := cfg.Dist
	if dist == nil {
		dist = PaperDist
	}
	perH := make([]hyperResult, h)
	block := func(lo, hi int) {
		var rng stats.RNG
		drawn, remaining := make([]float64, n), make([]float64, n)
		for i := lo; i < hi; i++ {
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
				return // surfaced after the fan-in
			}
			if actuals != nil {
				perH[i] = p.runOne(&cfg, actuals[i], remaining)
				continue
			}
			rng.Reset(seeds[i])
			for j := range drawn {
				drawn[j] = dist(&rng, p.bcec[j], p.acec[j], p.wcec[j])
			}
			perH[i] = p.runOne(&cfg, drawn, remaining)
		}
	}
	workers := min(max(cfg.Workers, 1), h)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			block(lo, hi)
		}(w*h/workers, (w+1)*h/workers)
	}
	block(0, h/workers)
	wg.Wait()

	// Cancellation is authoritative: a canceled run returns the context's
	// error rather than a partial, timing-dependent aggregate.
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	return fold(perH), nil
}

// fold aggregates per-hyper-period results in hyper-period order, exactly as
// a serial loop would.
func fold(perH []hyperResult) *Result {
	res := &Result{}
	var voltWeighted float64
	for i := range perH {
		hp := &perH[i]
		res.Energy += hp.energy
		res.PerHyperperiod.Add(hp.energy)
		res.DeadlineMisses += hp.misses
		if hp.worstOver > res.WorstOvershoot {
			res.WorstOvershoot = hp.worstOver
		}
		res.BusyTime += hp.busy
		res.Switches += hp.switches
		voltWeighted += hp.voltTime
	}
	if res.BusyTime > 0 {
		res.MeanVoltage = voltWeighted / res.BusyTime
	}
	return res
}

// ComparePlans runs two compiled plans under identical workload draws (same
// seed and distribution) concurrently and returns the percentage energy
// improvement of a over b: 100·(E_b − E_a)/E_b. This is the quantity Fig. 6
// plots with a = ACS and b = WCS. Callers that compare the same schedules
// under many seeds or overheads should compile once and call this in a loop.
func ComparePlans(a, b *CompiledPlan, cfg Config) (improvementPct float64, ra, rb *Result, err error) {
	// The two runs execute concurrently, so give each side half the worker
	// budget to keep total busy goroutines at the requested level. Results
	// are bit-identical for any worker count, so this is invisible.
	if cfg.Workers > 1 {
		cfg.Workers = (cfg.Workers + 1) / 2
	}
	var errB error
	done := make(chan struct{})
	go func() {
		rb, errB = b.Run(cfg)
		close(done)
	}()
	ra, err = a.Run(cfg)
	<-done
	if err == nil {
		err = errB
	}
	if err != nil {
		return 0, nil, nil, err
	}
	if rb.Energy <= 0 {
		return 0, ra, rb, fmt.Errorf("sim: baseline consumed no energy")
	}
	return 100 * (rb.Energy - ra.Energy) / rb.Energy, ra, rb, nil
}
