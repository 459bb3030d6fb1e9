package grid

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Store is the residency backend behind a Memo: a passive keyed store for
// solved schedules and simulated comparisons, addressed by their canonical
// content hash. A Store holds completed artefacts only — the singleflight
// contract ("one build per key, canceled builds never cached, waiters retry
// under their own context") lives one level up in Memo, so every backend
// inherits it for free.
//
// The contract a backend must honour (DESIGN.md §9):
//
//   - Determinism. Keys are content addresses: a Get hit must return an
//     artefact content-equal to what any rebuild of the key would produce.
//     Backends may therefore drop entries at any time (eviction, a torn disk
//     record, a missing tier) — losing an entry changes hit rates, never
//     results.
//   - Cached failures. A Put may carry a non-nil error instead of a value:
//     builds are pure, so a failed key fails identically every time, and
//     caching the failure is an optimization. Backends are free to drop
//     errors instead of storing them (the disk backend does); Memo never
//     forwards cancellation errors to a Put at all.
//   - Idempotence. Puts for an already-resident key may be ignored: equal
//     keys imply equal content, so there is nothing to replace.
//
// All methods must be safe for concurrent use.
type Store interface {
	// GetSchedule returns the resident schedule (or cached build error) for
	// key. ok reports residency; a hit with a non-nil error is a cached
	// failure.
	GetSchedule(key Key) (s *core.Schedule, err error, ok bool)
	// PutSchedule makes a completed build resident. err is nil for a value,
	// non-nil for a cacheable failure (never a cancellation).
	PutSchedule(key Key, s *core.Schedule, err error)
	// GetComparison and PutComparison are the simulated-comparison side. A
	// backend that does not keep comparisons reports every GetComparison as
	// a miss and ignores PutComparison.
	GetComparison(key Key) (c *Comparison, err error, ok bool)
	PutComparison(key Key, c *Comparison, err error)
	// Stats reports the backend's accounting. Hit/miss counters for the
	// request stream are owned by Memo; a backend fills only the fields it is
	// authoritative for (eviction/byte accounting for the memory tier, disk
	// occupancy and recovery counters for the disk tier).
	Stats() Stats
}

// MemStore is the in-memory Store: entries kept in least-recently-used order
// and charged an estimated byte cost, evicted from the cold end whenever the
// resident total exceeds the cap. Eviction removes only the store's reference
// — callers already holding an evicted artefact keep a valid immutable value
// — and never changes results, only hit rates: builds are pure functions of
// their key, so a re-miss rebuilds the identical artefact (pinned by
// TestBoundedMemoEvictionIdentity).
type MemStore struct {
	mu          sync.Mutex
	schedules   map[Key]*memEntry[*core.Schedule]
	comparisons map[Key]*memEntry[*Comparison]
	capBytes    int64 // <= 0: unbounded
	usedBytes   int64
	lru         list.List // of *lruItem; front = most recently used
	evictions   atomic.Int64
}

// memEntry is one resident artefact (or cached build failure).
type memEntry[T any] struct {
	val  T
	err  error
	elem *list.Element
}

// artefactKind names the map an LRU seat's key lives in.
type artefactKind uint8

const (
	kindSchedule artefactKind = iota
	kindComparison
)

// lruItem is one resident entry's seat in the eviction order.
type lruItem struct {
	key   Key
	kind  artefactKind
	bytes int64
}

// NewMemStore returns an empty in-memory store. A non-positive capBytes means
// unbounded — right for a batch regeneration, whose working set is known and
// finite; a resident daemon should bound it.
func NewMemStore(capBytes int64) *MemStore {
	return &MemStore{
		schedules:   make(map[Key]*memEntry[*core.Schedule]),
		comparisons: make(map[Key]*memEntry[*Comparison]),
		capBytes:    capBytes,
	}
}

// GetSchedule implements Store; a hit refreshes the entry's LRU seat.
func (m *MemStore) GetSchedule(key Key) (*core.Schedule, error, bool) {
	return memGet(m, m.schedules, key)
}

// PutSchedule implements Store. A duplicate put refreshes the LRU seat and
// keeps the resident entry (equal keys imply equal content).
func (m *MemStore) PutSchedule(key Key, s *core.Schedule, err error) {
	memPut(m, m.schedules, kindSchedule, key, s, err, scheduleBytes(s))
}

// GetComparison implements Store.
func (m *MemStore) GetComparison(key Key) (*Comparison, error, bool) {
	return memGet(m, m.comparisons, key)
}

// PutComparison implements Store; comparisons share the byte cap and the
// LRU order with schedules.
func (m *MemStore) PutComparison(key Key, c *Comparison, err error) {
	memPut(m, m.comparisons, kindComparison, key, c, err, comparisonBytes)
}

// memGet is the Get of every kind: a hit refreshes the entry's LRU seat.
func memGet[T any](m *MemStore, entries map[Key]*memEntry[T], key Key) (T, error, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := entries[key]
	if !ok {
		var zero T
		return zero, nil, false
	}
	m.lru.MoveToFront(e.elem)
	return e.val, e.err, true
}

// memPut is the Put of every kind: a new entry takes the front LRU seat and
// is charged bytes, then the cold end is evicted to fit the cap.
func memPut[T any](m *MemStore, entries map[Key]*memEntry[T], kind artefactKind, key Key, v T, err error, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := entries[key]; ok {
		m.lru.MoveToFront(e.elem)
		return
	}
	e := &memEntry[T]{val: v, err: err}
	e.elem = m.lru.PushFront(&lruItem{key: key, kind: kind, bytes: bytes})
	entries[key] = e
	m.usedBytes += bytes
	m.evict()
}

// evict drops cold entries until the resident total fits the cap. Called with
// m.mu held.
func (m *MemStore) evict() {
	if m.capBytes <= 0 {
		return
	}
	for m.usedBytes > m.capBytes {
		back := m.lru.Back()
		if back == nil {
			return
		}
		it := back.Value.(*lruItem)
		m.lru.Remove(back)
		m.usedBytes -= it.bytes
		switch it.kind {
		case kindSchedule:
			delete(m.schedules, it.key)
		case kindComparison:
			delete(m.comparisons, it.key)
		}
		m.evictions.Add(1)
	}
}

// Stats implements Store: the memory tier owns eviction and byte accounting.
func (m *MemStore) Stats() Stats {
	m.mu.Lock()
	used, capB := m.usedBytes, m.capBytes
	m.mu.Unlock()
	return Stats{
		Evictions: m.evictions.Load(),
		BytesUsed: used,
		BytesCap:  capB,
	}
}

// scheduleBytes estimates the resident cost of a cached schedule: the solved
// vectors, the derived average workloads, and the preemptive plan it pins
// (sub-instances, instances, per-instance position lists). The estimate is
// for eviction accounting only — it need not be exact, just proportional. A
// plan two entries share (an ACS warm-started from its WCS solves over the
// WCS's plan, core.Build) is charged to each: an over-estimate, so the cap
// still bounds what is resident.
func scheduleBytes(s *core.Schedule) int64 {
	const entryOverhead = 512 // entry, map slot, LRU seat, struct headers
	if s == nil || s.Plan == nil {
		return entryOverhead
	}
	n := int64(len(s.Plan.Subs))
	inst := int64(len(s.Plan.Instances))
	return entryOverhead +
		n*(3*8+64) + // End/WCWork/AvgWork + preempt.Sub
		inst*(32+8) // instance records + ByInstance positions
}

// comparisonBytes is the resident cost charged to a cached comparison: the
// entry overhead plus two fixed-size sim.Results.
const comparisonBytes = 512 + 2*128
