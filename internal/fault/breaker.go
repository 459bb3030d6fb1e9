package fault

import (
	"sync"
	"time"
)

// sleep is the latency hook; a test can swap it to keep chaos runs fast.
var sleep = time.Sleep

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: healthy — every operation is allowed.
	BreakerClosed BreakerState = iota
	// BreakerOpen: tripped — operations are refused until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed — operations are allowed as probes;
	// the first success re-closes, the first failure re-opens.
	BreakerHalfOpen
)

// String names the state, as grid.Stats.BreakerState reports it.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a consecutive-failure circuit breaker: Threshold consecutive
// recorded failures trip it open; after Cooldown it half-opens and lets
// probes through; one probe success re-closes it, one probe failure re-opens
// it (restarting the cooldown). It has no background goroutine — state
// transitions happen lazily inside Allow/Record against the injected clock —
// so a Breaker can never leak and tests drive it with a fake clock.
//
// The intended callsite shape (store.Tiered) is:
//
//	if b.Allow() { err := op(); if opTouchedDevice { b.Record(err) } }
//	else        { degrade() }
//
// Operations that resolve without touching the guarded dependency (an index
// miss that never reads the device) record nothing: only real evidence moves
// the breaker.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
	trips       int64
	recloses    int64
}

// NewBreaker returns a closed breaker. threshold <= 0 defaults to 5
// consecutive failures; cooldown <= 0 defaults to 5s.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock swaps the breaker's time source — test hook; call before use.
func (b *Breaker) SetClock(now func() time.Time) { b.now = now }

// Allow reports whether the guarded dependency may be used right now,
// half-opening first when the cooldown has elapsed.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // half-open: probes flow until one resolves
		return true
	}
}

// Record feeds one operation's outcome. nil err is a success; non-nil is a
// failure.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.consecutive = 0
		if b.state != BreakerClosed {
			b.state = BreakerClosed
			b.recloses++
		}
		return
	}
	b.consecutive++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.consecutive >= b.threshold) {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.trips++
	} else if b.state == BreakerOpen {
		// A straggler failing after the trip: restart the cooldown so the
		// dependency gets a quiet window before the next probe.
		b.openedAt = b.now()
	}
}

// State returns the current position (advancing open → half-open if the
// cooldown has elapsed, so observers see what Allow would).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state = BreakerHalfOpen
	}
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Recloses returns how many open→closed recoveries have completed.
func (b *Breaker) Recloses() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recloses
}
