package grid

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
)

// boundSets returns several distinct small task sets so each occupies its own
// cache key.
func boundSets(t *testing.T, n int) []*task.Set {
	t.Helper()
	sets := make([]*task.Set, n)
	for i := range sets {
		set, err := task.NewSet([]task.Task{
			{Name: "a", Period: 10, WCEC: 3 + 0.25*float64(i), ACEC: 2, BCEC: 1, Ceff: 1},
			{Name: "b", Period: 20, WCEC: 5, ACEC: 3, BCEC: 2, Ceff: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// scheduleSignature renders the result-bearing vectors of a schedule; two
// builds of the same (set, config) must produce equal signatures whether they
// came from a fresh solve, an unbounded cache, or a cache that evicted and
// re-solved in between.
func scheduleSignature(s *core.Schedule) string {
	return fmt.Sprintf("%v|%v|%v|%g", s.End, s.WCWork, s.AvgWork, s.Energy)
}

// TestBoundedMemoEvictionIdentity is the cache-on/off/evicting byte-identity
// regression: a memo under heavy eviction pressure must change hit rates
// only, never results.
func TestBoundedMemoEvictionIdentity(t *testing.T) {
	sets := boundSets(t, 4)
	cfg := core.Config{Objective: core.AverageCase}

	build := func(r *Runner) []string {
		var sigs []string
		// Two passes so the evicting memo re-solves keys it already dropped.
		for pass := 0; pass < 2; pass++ {
			for _, set := range sets {
				s, err := r.BuildSchedule(set, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sigs = append(sigs, scheduleSignature(s))
			}
		}
		return sigs
	}

	nocache := build(New(1, nil))
	unbounded := build(New(1, NewMemo()))
	evicting := New(1, NewBoundedMemo(1)) // cap below any entry: every build evicts
	evicted := build(evicting)

	if !reflect.DeepEqual(nocache, unbounded) {
		t.Error("unbounded memo changed results vs no cache")
	}
	if !reflect.DeepEqual(nocache, evicted) {
		t.Error("evicting memo changed results vs no cache")
	}
	st := evicting.Memo().Stats()
	if st.Evictions == 0 {
		t.Error("cap of 1 byte produced no evictions")
	}
	if st.ScheduleHits != 0 {
		t.Errorf("cap of 1 byte still produced %d hits", st.ScheduleHits)
	}
	if st.BytesUsed != 0 {
		t.Errorf("evict-everything memo reports %d resident bytes", st.BytesUsed)
	}
}

// TestBoundedMemoLRUOrder pins the eviction policy: touching an entry
// protects it, the coldest entry goes first.
func TestBoundedMemoLRUOrder(t *testing.T) {
	sets := boundSets(t, 3)
	cfg := core.Config{Objective: core.WorstCase}

	// Measure the real per-entry cost on an unbounded memo first, so the
	// bounded cap can hold exactly two entries regardless of the estimator's
	// constants.
	probe := NewMemo()
	pr := New(1, probe)
	for _, set := range sets[:2] {
		if _, err := pr.BuildSchedule(set, cfg); err != nil {
			t.Fatal(err)
		}
	}
	capBytes := probe.Stats().BytesUsed

	memo := NewBoundedMemo(capBytes)
	r := New(1, memo)
	mustBuild := func(i int) {
		t.Helper()
		if _, err := r.BuildSchedule(sets[i], cfg); err != nil {
			t.Fatal(err)
		}
	}
	mustBuild(0) // A resident
	mustBuild(1) // B resident
	mustBuild(0) // touch A: B is now coldest
	mustBuild(2) // C evicts B
	st := memo.Stats()
	if st.Evictions != 1 {
		t.Fatalf("want exactly 1 eviction after overflow, got %d", st.Evictions)
	}
	mustBuild(0) // A must still be resident
	if got := memo.Stats(); got.ScheduleHits != st.ScheduleHits+1 {
		t.Error("A was evicted despite being most recently used")
	}
	mustBuild(1) // B must have been the victim
	if got := memo.Stats(); got.ScheduleMisses != st.ScheduleMisses+1 {
		t.Error("B unexpectedly still resident: eviction did not pick the LRU entry")
	}
}

// TestMemoWaiterRetriesAfterForeignCancellation: a live requester whose
// singleflight entry fails with another requester's cancellation must retry
// against a fresh entry rather than surface the foreign error — one client
// disconnecting cannot fail another's request. A requester whose *own*
// context is dead keeps the error (no retry loop on a dead caller).
func TestMemoWaiterRetriesAfterForeignCancellation(t *testing.T) {
	memo := NewMemo()
	want := &core.Schedule{}
	calls := 0
	build := func() (*core.Schedule, error) {
		calls++
		if calls == 1 {
			// As if the building requester's context fired mid-build.
			return nil, context.Canceled
		}
		return want, nil
	}
	s, err := memo.schedule(context.Background(), Key{1}, build)
	if err != nil || s != want {
		t.Fatalf("live requester must retry past a foreign cancellation: %v, %v", s, err)
	}
	if calls != 2 {
		t.Fatalf("want exactly one retry, got %d build calls", calls)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	if _, err := memo.schedule(dead, Key{2}, build); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead requester keeps the cancellation: got %v", err)
	}
	if calls != 1 {
		t.Fatalf("dead requester must not retry, got %d build calls", calls)
	}
}

// TestMemoWaiterLeavesWhenItsContextEnds: a waiter on another requester's
// build returns its own context's error as soon as that context ends,
// without waiting for the build, and the build still completes and caches
// for everyone else.
func TestMemoWaiterLeavesWhenItsContextEnds(t *testing.T) {
	memo := NewMemo()
	want := &core.Schedule{}
	started, release := make(chan struct{}), make(chan struct{})
	calls := 0
	build := func() (*core.Schedule, error) {
		calls++
		close(started)
		<-release
		return want, nil
	}
	leader := make(chan error, 1)
	go func() {
		_, err := memo.schedule(context.Background(), Key{1}, build)
		leader <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := memo.schedule(ctx, Key{1}, build)
		waiter <- err
	}()
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter whose context ended got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("waiter still blocked on the build after its context ended")
	}

	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if s, err := memo.schedule(context.Background(), Key{1}, build); err != nil || s != want {
		t.Fatalf("build not cached after the waiter left: %v, %v", s, err)
	}
	if calls != 1 {
		t.Fatalf("want one build, got %d", calls)
	}
}

// TestMemoPlanWaiterRetriesAfterForeignCancellation is the plan-side mirror
// of the schedule-side retry regression: the compiled-plan path shares the
// identical requester-context contract, so a waiter on a plan build torn down
// by another caller's cancellation retries instead of surfacing the foreign
// error, while a requester whose own context is dead keeps it.
func TestMemoPlanWaiterRetriesAfterForeignCancellation(t *testing.T) {
	memo := NewMemo()
	want := &sim.CompiledPlan{}
	calls := 0
	build := func() (*sim.CompiledPlan, error) {
		calls++
		if calls == 1 {
			// As if the building requester's context fired mid-build.
			return nil, context.Canceled
		}
		return want, nil
	}
	p, err := memo.plan(context.Background(), Key{1}, build)
	if err != nil || p != want {
		t.Fatalf("live requester must retry past a foreign cancellation: %v, %v", p, err)
	}
	if calls != 2 {
		t.Fatalf("want exactly one retry, got %d build calls", calls)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	if _, err := memo.plan(dead, Key{2}, build); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead requester keeps the cancellation: got %v", err)
	}
	if calls != 1 {
		t.Fatalf("dead requester must not retry, got %d build calls", calls)
	}
	// The canceled attempt must not have poisoned the key: the next live
	// requester rebuilds and caches.
	if p, err := memo.plan(context.Background(), Key{2}, build); err != nil || p != want {
		t.Fatalf("canceled plan build poisoned the key: %v, %v", p, err)
	}
}

// TestMemoDoesNotCacheCanceledBuilds: a build that failed because its caller
// went away must not poison the key for the next caller.
func TestMemoDoesNotCacheCanceledBuilds(t *testing.T) {
	set := testSet(t)
	memo := NewMemo()
	r := New(1, memo)
	cfg := core.Config{Objective: core.AverageCase}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.BuildScheduleContext(ctx, set, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from a canceled build, got %v", err)
	}
	s, err := r.BuildScheduleContext(context.Background(), set, cfg)
	if err != nil {
		t.Fatalf("canceled build poisoned the cache: %v", err)
	}
	if s == nil {
		t.Fatal("no schedule after retry")
	}
	st := memo.Stats()
	if st.ScheduleMisses != 2 {
		t.Errorf("want 2 misses (canceled entry dropped, then rebuilt), got %d", st.ScheduleMisses)
	}
}
