// Package grid is the deterministic execution engine of the experiment
// suite (DESIGN.md §6). It supplies two things the harnesses in
// internal/experiments are built on:
//
//   - A bounded worker pool (Runner.ForEach) that drains flat, index-addressed
//     jobs: every (experiment, cell, task-set) coordinate becomes one job, so
//     a slow cell's tail no longer idles the host while the next cell waits
//     behind a barrier, and serial set loops parallelise for free. Workers are
//     long-lived goroutines pulling indices from a channel; results land in
//     caller-owned per-index slots and are folded in index order, so every
//     figure and table is bit-identical for any worker count.
//
//   - A content-addressed memo store (Memo) keyed by the canonical hash of
//     (task-set fingerprint, solver config, processor-model identity) that
//     caches solved core.Schedules and compiled sim plans. Solves are pure
//     functions of their config (see internal/experiments' package doc), so
//     harnesses that derive the same task set and vary only a runtime
//     parameter — slack policy, transition overhead, discrete levels — share
//     one WCS/ACS solve instead of re-running it.
//
// Cached schedules and plans are shared across callers and must be treated
// as immutable; callers that need to mutate one must core.CloneSchedule it
// first (the discrete-level ablation does exactly that).
package grid

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
)

// Runner executes flat jobs on a bounded pool and routes schedule solves and
// plan compilations through an optional shared memo store. The zero value is
// not useful; construct with New.
type Runner struct {
	workers int
	memo    *Memo
}

// New returns a Runner with the given pool width (<= 0 selects GOMAXPROCS)
// and memo store. A nil memo disables caching: every Build/Compile call runs
// from scratch, which is semantically identical (and what the determinism
// regression test pins).
func New(workers int, memo *Memo) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, memo: memo}
}

// Workers returns the pool width.
func (r *Runner) Workers() int { return r.workers }

// Memo returns the memo store, or nil when caching is disabled.
func (r *Runner) Memo() *Memo { return r.memo }

// ForEach runs fn(i) for every i in [0, n) on the runner's pool: Workers
// long-lived goroutines pull indices from a channel until it drains. fn must
// communicate results through index-addressed storage (one slot per job).
// Nested calls are safe — each invocation owns its goroutines and index
// channel, so a job may fan out a sub-problem (the partition driver fans
// out its per-core solves this way); note the concurrency of nested levels
// multiplies, the worker bound is per call, not per runner. Because job
// identity is the index — never the goroutine or completion order — any
// observable output assembled from the slots in index order is independent
// of the worker count.
func (r *Runner) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// Collect runs fn for every index on the pool and returns the results in
// index order — the in-order fan-in all deterministic harnesses use.
func Collect[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	r.ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// CollectErr is Collect for fallible jobs with fail-fast dispatch: after any
// job fails, indices not yet started are skipped (their result slots stay
// zero), restoring the short-circuit the serial loops this replaces had. The
// returned error is the recorded failure with the lowest index — on success
// results are bit-deterministic as ever; on failure *which* error surfaces
// may vary with the worker count (only error paths race the cutoff).
func CollectErr[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var failed atomic.Bool
	r.ForEach(n, func(i int) {
		if failed.Load() {
			return
		}
		var err error
		out[i], err = fn(i)
		if err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BuildSchedule solves the static schedule for (set, cfg) through the memo:
// an equal (task set, config, model) triple returns the cached schedule
// without re-solving. Configs the hasher cannot canonically encode (an
// unknown power.Model implementation) and runners without a memo fall back
// to a direct solve. The returned schedule may be shared — treat it as
// immutable.
func (r *Runner) BuildSchedule(set *task.Set, cfg core.Config) (*core.Schedule, error) {
	return r.BuildScheduleContext(context.Background(), set, cfg)
}

// BuildScheduleContext is BuildSchedule with early cancellation: the solve
// aborts between coordinate-descent sweeps once ctx is done and returns
// ctx's error. A cancelled build is never cached (the memo drops it), so an
// abandoned request cannot poison the key for later callers. ctx does not
// enter the cache key — it scopes the work, never the result.
func (r *Runner) BuildScheduleContext(ctx context.Context, set *task.Set, cfg core.Config) (*core.Schedule, error) {
	if r.memo == nil {
		return core.BuildContext(ctx, set, cfg)
	}
	key, ok := ScheduleKey(set, cfg)
	if !ok {
		return core.BuildContext(ctx, set, cfg)
	}
	return r.memo.schedule(ctx, key, func() (*core.Schedule, error) {
		return core.BuildContext(ctx, set, cfg)
	})
}

// CompileSchedule flattens s for the online engine through the memo, keyed
// by the schedule's full content (everything sim.Compile reads), so repeated
// compilations of equal schedules — across ablations, policies, seeds —
// share one plan. The returned plan is immutable by construction.
func (r *Runner) CompileSchedule(s *core.Schedule) (*sim.CompiledPlan, error) {
	return r.CompileScheduleContext(context.Background(), s)
}

// CompileScheduleContext is CompileSchedule carrying the requester's context
// into the memo's singleflight layer: a waiter on a plan build torn down by
// another caller's cancellation retries under its own context, exactly like
// the schedule side. (Compilation itself is not cancelable — it is cheap and
// allocation-bound — so ctx scopes only the waiting semantics.)
func (r *Runner) CompileScheduleContext(ctx context.Context, s *core.Schedule) (*sim.CompiledPlan, error) {
	if r.memo == nil {
		return sim.Compile(s)
	}
	key, ok := PlanKey(s)
	if !ok {
		return sim.Compile(s)
	}
	return r.memo.plan(ctx, key, func() (*sim.CompiledPlan, error) {
		return sim.Compile(s)
	})
}
