package core

import (
	"runtime"
	"sync"

	"repro/internal/preempt"
	"repro/internal/stats"
)

// solveMultiStart runs Config.Starts independent coordinate-descent solves
// and returns the one with the best optimised objective. Start 0 reproduces
// the single-start solve exactly (the default blend plus the WCS warm start
// when supplied); every further start replaces the warm start with a blend
// drawn from its own RNG stream, exploring different basins of the
// non-convex reduced NLP.
//
// Determinism contract: the per-start blends are drawn by splitting a master
// stats.RNG sequentially *before* any work is dispatched, every start is a
// pure function of its own config, and the fan-in scans results in start
// order preferring strictly better objectives — so the returned schedule is
// bit-identical for a given (Starts, StartSeed) no matter how many workers
// run, mirroring the index-addressed fan-in of the grid engine (grid.Collect).
func solveMultiStart(plan *preempt.Schedule, c Config) (*Schedule, error) {
	starts := c.Starts
	workers := c.StartWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > starts {
		workers = starts
	}

	master := stats.NewRNG(c.StartSeed)
	cfgs := make([]Config, starts)
	for i := range cfgs {
		rng := master.Split() // one stream per start, fixed order
		ci := c
		ci.Starts = 0
		ci.StartWorkers = 0
		if i > 0 {
			ci.WarmStart = nil
			ci.initBlend = rng.Uniform(0.05, 0.95)
		}
		cfgs[i] = ci
	}

	type result struct {
		s   *Schedule
		obj float64
		err error
	}
	out := make([]result, starts)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s, obj, err := solveSingle(plan, cfgs[i])
			out[i] = result{s, obj, err}
		}(i)
	}
	wg.Wait()

	// Cancellation is authoritative: starts that finished before the context
	// fired must not produce a timing-dependent "best of the survivors".
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
	}

	var best *Schedule
	bestObj := 0.0
	var firstErr error
	totalSweeps := 0
	for i := range out {
		if out[i].err != nil {
			if firstErr == nil {
				firstErr = out[i].err
			}
			continue
		}
		totalSweeps += out[i].s.Sweeps
		if best == nil || out[i].obj < bestObj {
			best, bestObj = out[i].s, out[i].obj
		}
	}
	if best == nil {
		return nil, firstErr
	}
	best.Sweeps = totalSweeps
	return best, nil
}
