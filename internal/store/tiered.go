package store

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
)

// ErrDegraded reports a durable operation refused because the breaker holds
// the store in memory-only mode. Callers treat it like any other
// best-effort-persistence failure: count it, keep serving.
var ErrDegraded = errors.New("store: disk degraded, serving memory-only")

// Tiered composes a fast volatile tier over the durable disk log: reads
// probe memory first and fall through to disk, promoting what they find so
// the hot set re-forms in memory after a restart without any explicit
// warm-up pass (warm restarts repopulate on demand). Writes land in both
// tiers — memory for the next request, disk for the next process.
//
// Plans and comparisons live in the memory tier only: the disk log persists
// schedules and both are rebuilt from them, so a lookup that misses memory
// is an honest miss. Cached failures likewise stay memory-only (the disk
// backend skips them), preserving the contract that losing any tier changes
// hit rates, never results.
//
// Graceful degradation (DESIGN.md §10): every disk operation flows through a
// circuit breaker. Persistent device failures trip it open, and the store
// degrades to memory-only residency — reads stop probing the disk, writes
// stop appending, blob puts fail fast — so a dying disk costs hit rate and
// durability, never a failed request. After the cooldown the breaker
// half-opens and the next disk operation doubles as the reopen probe: one
// success re-closes the breaker and full tiered residency resumes. The
// transition is visible in Stats (BreakerState, MemDegraded) and therefore
// on the server's /metrics.
type Tiered struct {
	mem     grid.Store
	disk    *Disk
	breaker *fault.Breaker

	memHits  atomic.Int64
	diskHits atomic.Int64

	// observe, when set, is called with the elapsed time of every tier
	// operation (tier "mem"|"disk", op "get"|"put"). Purely passive — it
	// feeds latency histograms and never influences results.
	observe func(tier, op string, seconds float64)
}

// TieredOptions tunes the degradation policy. The zero value selects the
// defaults.
type TieredOptions struct {
	// BreakerThreshold is the consecutive disk-failure count that trips the
	// store into memory-only mode (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the disk is rested before a reopen probe
	// (default 5s).
	BreakerCooldown time.Duration
}

// NewTiered returns mem layered over disk with the default degradation
// policy.
func NewTiered(mem grid.Store, disk *Disk) *Tiered {
	return NewTieredWith(mem, disk, TieredOptions{})
}

// NewTieredWith returns mem layered over disk with an explicit policy.
func NewTieredWith(mem grid.Store, disk *Disk, opts TieredOptions) *Tiered {
	return &Tiered{
		mem:     mem,
		disk:    disk,
		breaker: fault.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
	}
}

// Breaker exposes the disk circuit breaker (tests drive its clock).
func (t *Tiered) Breaker() *fault.Breaker { return t.breaker }

// SetObserver installs a per-operation latency observer. Must be called
// before the store starts serving requests (the server installs it at
// construction); fn must be safe for concurrent calls.
func (t *Tiered) SetObserver(fn func(tier, op string, seconds float64)) { t.observe = fn }

// timeOp starts timing one tier operation; the returned closure reports
// it. Reads no clock when no observer is installed.
func (t *Tiered) timeOp(tier, op string) func() {
	if t.observe == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { t.observe(tier, op, time.Since(t0).Seconds()) }
}

// GetSchedule implements grid.Store: memory first, then disk with promotion.
// With the breaker open the disk probe is skipped entirely — the entry is
// simply a miss, and the caller rebuilds it into the memory tier.
func (t *Tiered) GetSchedule(key grid.Key) (*core.Schedule, error, bool) {
	memDone := t.timeOp("mem", "get")
	s, err, ok := t.mem.GetSchedule(key)
	memDone()
	if ok {
		t.memHits.Add(1)
		return s, err, true
	}
	if !t.breaker.Allow() {
		return nil, nil, false
	}
	diskDone := t.timeOp("disk", "get")
	s, cached, ok, ioErr := t.disk.TryGetSchedule(key)
	diskDone()
	if ioErr != nil {
		t.breaker.Record(ioErr)
		return nil, nil, false
	}
	if !ok {
		// Index miss: the device was never consulted, so there is no health
		// evidence to record either way.
		return nil, nil, false
	}
	t.breaker.Record(nil)
	t.diskHits.Add(1)
	// Promote so the next request is a memory hit. MemStore puts are
	// idempotent, so racing promotions of the same key are harmless.
	t.mem.PutSchedule(key, s, cached)
	return s, cached, true
}

// PutSchedule implements grid.Store: both tiers (the disk tier itself skips
// failures and unencodable schedules), with the disk append gated and
// scored by the breaker.
func (t *Tiered) PutSchedule(key grid.Key, s *core.Schedule, err error) {
	memDone := t.timeOp("mem", "put")
	t.mem.PutSchedule(key, s, err)
	memDone()
	if !t.breaker.Allow() {
		return
	}
	if err != nil || s == nil {
		return // the disk tier would skip it; don't score a no-op
	}
	diskDone := t.timeOp("disk", "put")
	putErr := t.disk.TryPutSchedule(key, s, err)
	diskDone()
	t.breaker.Record(putErr)
}

// GetPlan implements grid.Store; plans are memory-only.
func (t *Tiered) GetPlan(key grid.Key) (*sim.CompiledPlan, error, bool) {
	return t.mem.GetPlan(key)
}

// PutPlan implements grid.Store; plans are memory-only.
func (t *Tiered) PutPlan(key grid.Key, p *sim.CompiledPlan, err error) {
	t.mem.PutPlan(key, p, err)
}

// GetComparison implements grid.Store; comparisons are memory-only.
func (t *Tiered) GetComparison(key grid.Key) (*grid.Comparison, error, bool) {
	return t.mem.GetComparison(key)
}

// PutComparison implements grid.Store; comparisons are memory-only.
func (t *Tiered) PutComparison(key grid.Key, c *grid.Comparison, err error) {
	t.mem.PutComparison(key, c, err)
}

// PutBlob implements server.BlobStore through the breaker: with the disk
// degraded the checkpoint fails fast (the server counts it and keeps
// serving) instead of grinding against a dead device. A refused name
// (ErrBadBlobName) is the caller's input, not device health, so it is not
// scored.
func (t *Tiered) PutBlob(name string, data []byte) error {
	if !t.breaker.Allow() {
		return ErrDegraded
	}
	err := t.disk.PutBlob(name, data)
	if !errors.Is(err, ErrBadBlobName) {
		t.breaker.Record(err)
	}
	return err
}

// GetBlob implements server.BlobStore; with the breaker open the blob is
// reported absent — the caller's recovery path (404, re-submit) is the
// degraded contract.
func (t *Tiered) GetBlob(name string) ([]byte, bool, error) {
	if !t.breaker.Allow() {
		return nil, false, nil
	}
	data, ok, err := t.disk.GetBlob(name)
	if (err != nil || ok) && !errors.Is(err, ErrBadBlobName) {
		// A clean "not exists" or a refused name never touched the platter
		// meaningfully enough to count as evidence; score only real reads
		// and failures.
		t.breaker.Record(err)
	}
	return data, ok, err
}

// ListBlobs implements server.BlobStore through the breaker.
func (t *Tiered) ListBlobs() ([]string, error) {
	if !t.breaker.Allow() {
		return nil, nil
	}
	names, err := t.disk.ListBlobs()
	t.breaker.Record(err)
	return names, err
}

// Stats implements grid.Store: the memory tier's residency accounting merged
// with the disk tier's occupancy/recovery/health counters, the per-tier hit
// split owned here, and the breaker's position.
func (t *Tiered) Stats() grid.Stats {
	st := t.mem.Stats()
	dst := t.disk.Stats()
	st.MemHits = t.memHits.Load()
	st.DiskHits = t.diskHits.Load()
	st.DiskEntries = dst.DiskEntries
	st.DiskBytes = dst.DiskBytes
	st.DiskReadErrs = dst.DiskReadErrs
	st.DiskWriteErrs = dst.DiskWriteErrs
	st.RecoveredEntries = dst.RecoveredEntries
	st.TornRecordsDropped = dst.TornRecordsDropped
	state := t.breaker.State()
	st.BreakerState = state.String()
	st.BreakerTrips = t.breaker.Trips()
	st.BreakerRecloses = t.breaker.Recloses()
	st.MemDegraded = state != fault.BreakerClosed
	return st
}
