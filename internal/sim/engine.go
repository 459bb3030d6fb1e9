package sim

import (
	"fmt"
	"sync"

	"repro/internal/stats"
)

// The deterministic parallel hyper-period engine.
//
// A simulation of H hyper-periods is a sequence of H independent experiments:
// each draws its own workload vector and replays the compiled plan from time
// zero (the dispatcher state — current time, last voltage — resets at every
// hyper-period boundary, as in the serial engine this replaces). That
// independence is what the engine exploits: hyper-periods are sharded into
// contiguous blocks across Config.Workers goroutines.
//
// Determinism contract (see DESIGN.md §5): the workload stream of every
// hyper-period is drawn from its own stats.RNG stream, whose seed is split
// from the master seed in hyper-period order *before* any work is dispatched;
// per-hyper-period results land in an index-addressed slice; and the fan-in
// folds them into Result in hyper-period order. Energy sums, the
// PerHyperperiod summary accumulation order, switch counts — every field of
// Result is therefore bit-identical for any Workers value, including 1.

// runWorkspace holds one worker's mutable state. Buffers are allocated once
// per worker per run; the per-hyper-period loop itself never allocates.
type runWorkspace struct {
	rng               stats.RNG
	actual, remaining []float64
}

func (p *CompiledPlan) newWorkspace() *runWorkspace {
	return &runWorkspace{
		actual:    make([]float64, len(p.bcec)),
		remaining: make([]float64, len(p.bcec)),
	}
}

// runBlock simulates hyper-periods [lo, hi) into perH.
func (p *CompiledPlan) runBlock(cfg *Config, dist Distribution, seeds []uint64, perH []hyperResult, lo, hi int, ws *runWorkspace) {
	for h := lo; h < hi; h++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return // Run surfaces the error after fan-in
		}
		ws.rng.Reset(seeds[h])
		for idx := range ws.actual {
			ws.actual[idx] = dist(&ws.rng, p.bcec[idx], p.acec[idx], p.wcec[idx])
		}
		perH[h] = p.runOne(cfg, ws.actual, ws.remaining)
	}
}

// runActualsBlock replays hyper-periods [lo, hi) under caller-supplied
// workload vectors instead of drawn ones.
func (p *CompiledPlan) runActualsBlock(cfg *Config, actuals [][]float64, perH []hyperResult, lo, hi int, ws *runWorkspace) {
	for h := lo; h < hi; h++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return
		}
		perH[h] = p.runOne(cfg, actuals[h], ws.remaining)
	}
}

// Run simulates the compiled plan under cfg and returns aggregate statistics.
// It may be called concurrently from multiple goroutines.
func (p *CompiledPlan) Run(cfg Config) (*Result, error) {
	switch cfg.Policy {
	case Greedy, Static, NoDVS:
	default:
		return nil, fmt.Errorf("sim: unknown slack policy %v", cfg.Policy)
	}
	if cfg.Hyperperiods <= 0 {
		cfg.Hyperperiods = 100
	}
	dist := cfg.Dist
	if dist == nil {
		dist = PaperDist
	}
	h := cfg.Hyperperiods
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > h {
		workers = h
	}

	// One RNG stream per hyper-period, split in index order before dispatch.
	master := stats.NewRNG(cfg.Seed)
	seeds := make([]uint64, h)
	for i := range seeds {
		seeds[i] = master.SplitSeed()
	}

	perH := make([]hyperResult, h)
	if workers == 1 {
		p.runBlock(&cfg, dist, seeds, perH, 0, h, p.newWorkspace())
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*h/workers, (w+1)*h/workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				p.runBlock(&cfg, dist, seeds, perH, lo, hi, p.newWorkspace())
			}(lo, hi)
		}
		wg.Wait()
	}

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
// the serial loop would — the in-order fan-in shared by Run and RunActuals.
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
	switch cfg.Policy {
	case Greedy, Static, NoDVS:
	default:
		return nil, fmt.Errorf("sim: unknown slack policy %v", cfg.Policy)
	}
	h := len(actuals)
	if h == 0 {
		return &Result{}, nil
	}
	n := len(p.bcec)
	for i, row := range actuals {
		if len(row) != n {
			return nil, fmt.Errorf("sim: actuals[%d] has %d workloads, want %d instances", i, len(row), n)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > h {
		workers = h
	}
	perH := make([]hyperResult, h)
	if workers == 1 {
		p.runActualsBlock(&cfg, actuals, perH, 0, h, p.newWorkspace())
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*h/workers, (w+1)*h/workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				p.runActualsBlock(&cfg, actuals, perH, lo, hi, p.newWorkspace())
			}(lo, hi)
		}
		wg.Wait()
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	return fold(perH), nil
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
