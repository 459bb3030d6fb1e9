package grid

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Memo is the content-addressed cache behind a Runner: solved schedules and
// simulated comparisons keyed by their canonical content hash. It is the
// store-agnostic singleflight layer — residency itself is delegated to a
// Store backend (the in-memory bounded LRU, the crash-safe disk log in
// internal/store, or a tiered composition of both), while Memo owns the
// request-stream semantics every backend must inherit identically:
//
//   - One build per key: concurrent requests for the same absent key are
//     collapsed into one build (singleflight), so a worker pool hammering one
//     cell pays for one solve while the rest wait for it.
//   - Canceled builds are never cached: a build that fails with
//     context.Canceled or context.DeadlineExceeded reflects the caller's
//     lifetime, not the key's content, so it is never handed to the store.
//   - Waiters retry under their own context: a waiter that receives a
//     cancellation error from a build some other caller's context tore down
//     retries against a fresh build as long as its own context is live. A
//     waiter whose own context ends stops waiting and returns its context's
//     error; the build runs on for the requesters still waiting on it.
//   - A panicking build strands nobody: its flight closes with an uncacheable
//     error before the panic goes on up, so waiters rebuild on their own.
//
// Other build errors are cached alongside values: builds are pure, so a
// failed (set, config) fails identically every time.
//
// Capacity: a Memo constructed with NewMemo is unbounded — right for a batch
// regeneration, whose working set is known and finite. A resident daemon
// (cmd/schedd) must instead bound the store with NewBoundedMemo, or supply
// its own backend with NewMemoOn.
type Memo struct {
	store Store

	mu             sync.Mutex // guards the flight maps
	schedFlights   map[Key]*flight[*core.Schedule]
	compareFlights map[Key]*flight[*Comparison]

	schedHits, schedMisses     atomic.Int64
	compareHits, compareMisses atomic.Int64
}

// flight is one in-progress build: waiters block on done and read val/err.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// NewMemo returns an unbounded in-memory memo.
func NewMemo() *Memo { return NewMemoOn(NewMemStore(0)) }

// NewBoundedMemo returns an in-memory memo that evicts least-recently-used
// entries once the estimated resident bytes exceed capBytes. A non-positive
// capBytes means unbounded (identical to NewMemo).
func NewBoundedMemo(capBytes int64) *Memo { return NewMemoOn(NewMemStore(capBytes)) }

// NewMemoOn returns a memo over an arbitrary residency backend. The
// singleflight/cancellation contract is supplied here; the store only holds
// completed artefacts.
func NewMemoOn(store Store) *Memo {
	return &Memo{
		store:          store,
		schedFlights:   make(map[Key]*flight[*core.Schedule]),
		compareFlights: make(map[Key]*flight[*Comparison]),
	}
}

// schedule returns the cached schedule for key, building it exactly once
// while resident. ctx is the *requester's* context: a waiter that receives a
// cancellation error from a build some other caller's context tore down
// retries against a fresh build as long as its own context is live, so one
// client abandoning a shared solve can never surface as an error to the
// clients still waiting on it, and a waiter whose own context ends returns
// at once instead of waiting out a build it no longer needs.
func (m *Memo) schedule(ctx context.Context, key Key, build func() (*core.Schedule, error)) (*core.Schedule, error) {
	return through(m, ctx, m.schedFlights, key, &m.schedHits, &m.schedMisses,
		m.store.GetSchedule, m.store.PutSchedule, build)
}

// comparison is schedule for the simulated-comparison side, with the
// identical requester-context retry contract.
func (m *Memo) comparison(ctx context.Context, key Key, build func() (*Comparison, error)) (*Comparison, error) {
	return through(m, ctx, m.compareFlights, key, &m.compareHits, &m.compareMisses,
		m.store.GetComparison, m.store.PutComparison, build)
}

// through is the shared singleflight-over-store path. The flight is
// registered before the store is consulted, so the store's Get/Put (which may
// do disk I/O in a tiered backend) never runs under the flight lock and
// concurrent requesters still build at most once. Completed cacheable builds
// are handed to the store before the flight is deleted, so a requester
// arriving after the flight always finds the artefact resident.
func through[T any](
	m *Memo, ctx context.Context, flights map[Key]*flight[T], key Key,
	hits, misses *atomic.Int64,
	get func(Key) (T, error, bool),
	put func(Key, T, error),
	build func() (T, error),
) (T, error) {
	for {
		m.mu.Lock()
		if f, ok := flights[key]; ok {
			m.mu.Unlock()
			hits.Add(1)
			var gone <-chan struct{}
			if ctx != nil {
				gone = ctx.Done()
			}
			select {
			case <-f.done:
			case <-gone:
				var zero T
				return zero, ctx.Err()
			}
			if uncacheable(f.err) && ctx != nil && ctx.Err() == nil {
				continue // victim of another requester's cancellation
			}
			return f.val, f.err
		}
		f := &flight[T]{done: make(chan struct{})}
		flights[key] = f
		m.mu.Unlock()

		getDone := obs.StartSpan(ctx, "store_get")
		v, err, ok := get(key)
		getDone()
		if ok {
			hits.Add(1)
			f.val, f.err = v, err
		} else {
			misses.Add(1)
			buildFlight(m, flights, key, f, build)
			if !uncacheable(f.err) {
				putDone := obs.StartSpan(ctx, "store_put")
				put(key, f.val, f.err)
				putDone()
			}
		}
		m.mu.Lock()
		delete(flights, key)
		m.mu.Unlock()
		close(f.done)
		if uncacheable(f.err) && ctx != nil && ctx.Err() == nil {
			continue
		}
		return f.val, f.err
	}
}

// buildFlight runs the miss-path build of flight f. A panicking build
// leaves errBuildPanicked on the flight, unregisters it and releases its
// waiters before the panic goes on up, so they rebuild under their own
// context instead of waiting on a flight nobody will close.
func buildFlight[T any](m *Memo, flights map[Key]*flight[T], key Key, f *flight[T], build func() (T, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.err = errBuildPanicked
			m.mu.Lock()
			delete(flights, key)
			m.mu.Unlock()
			close(f.done)
			panic(r)
		}
	}()
	f.val, f.err = build()
}

// errBuildPanicked is what a panicking build leaves its waiters. Like a
// cancellation it says nothing about the key, so it is never stored.
var errBuildPanicked = errors.New("grid: build panicked")

// uncacheable reports build errors that reflect the requesting caller's
// lifetime (or a panic) rather than the key's content; caching one would
// poison the key for every later caller.
func uncacheable(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errBuildPanicked)
}

// Stats is a snapshot of the memo's accounting. A "miss" is the first request
// for a key while no entry is resident in any tier (it pays for the build);
// every later request for the same resident key is a "hit" even if it arrived
// while the build was in flight. Eviction returns a key to the
// miss-on-next-request state without ever changing what that request returns.
// The tier and disk fields are zero for purely in-memory backends.
type Stats struct {
	ScheduleHits   int64 `json:"schedule_hits"`
	ScheduleMisses int64 `json:"schedule_misses"`
	CompareHits    int64 `json:"compare_hits"`
	CompareMisses  int64 `json:"compare_misses"`
	// Evictions counts entries dropped to respect the memory tier's byte cap.
	Evictions int64 `json:"evictions"`
	// BytesUsed is the estimated resident size of the memory tier;
	// BytesCap is its configured cap (0 = unbounded).
	BytesUsed int64 `json:"bytes_used"`
	BytesCap  int64 `json:"bytes_cap"`
	// MemHits/DiskHits split a tiered backend's schedule hits by the tier
	// that answered (a disk hit repopulates the memory tier on the way out).
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	// Disk-health and degraded-mode accounting (DESIGN.md §10; zero for
	// purely in-memory backends). DiskReadErrs/DiskWriteErrs count failed
	// device operations; BreakerState is the tiered backend's circuit
	// breaker position ("closed", "open", "half-open"); BreakerTrips and
	// BreakerRecloses count open transitions and completed recoveries; and
	// MemDegraded reports that the breaker is currently holding the store in
	// memory-only residency (disk skipped, requests still served).
	DiskReadErrs    int64  `json:"disk_read_errs"`
	DiskWriteErrs   int64  `json:"disk_write_errs"`
	BreakerState    string `json:"breaker_state,omitempty"`
	BreakerTrips    int64  `json:"breaker_trips"`
	BreakerRecloses int64  `json:"breaker_recloses"`
	MemDegraded     bool   `json:"mem_degraded,omitempty"`
}

// Stats snapshots the counters: the request-stream hit/miss accounting owned
// here, merged with the backend's residency accounting.
func (m *Memo) Stats() Stats {
	st := m.store.Stats()
	st.ScheduleHits = m.schedHits.Load()
	st.ScheduleMisses = m.schedMisses.Load()
	st.CompareHits = m.compareHits.Load()
	st.CompareMisses = m.compareMisses.Load()
	return st
}
