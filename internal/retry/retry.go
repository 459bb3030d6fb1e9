// Package retry is the shared 503-retry client (DESIGN.md §10–§11): seeded-
// jitter exponential backoff for requests a server explicitly shed. It was
// extracted from cmd/schedload so the fleet router (internal/fleet) and every
// load generator pace their re-sends identically.
//
// The policy: a 503 is the server's explicit "come back shortly" — every 503
// the serving layer emits carries a Retry-After header (DESIGN.md §10) — so
// the client backs off exponentially, floors the pause at the server's hint,
// and adds seeded jitter so a herd of retriers does not re-converge on the
// same instant. Transport-level failures retry on the same schedule; any
// other HTTP status is terminal for the request.
//
// Determinism: jitter is drawn from a caller-supplied stats.RNG, so for a
// fixed seed the full delay sequence is a pure function of the attempt
// number and the Retry-After hints (pinned by TestDelaySequencePinned).
package retry

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/stats"
)

// Policy is a backoff schedule. The zero value selects the defaults the
// schedload client has used since PR 7.
type Policy struct {
	// MaxAttempts is the total number of sends, first try included
	// (default 5).
	MaxAttempts int
	// Base is the pre-jitter pause after the first failed attempt; each
	// further failure doubles it (default 5ms).
	Base time.Duration
	// Max caps any single pause, jitter included, and also bounds how far a
	// server's Retry-After hint can stretch the schedule — a misbehaving
	// header must not stall the client forever (default 2s).
	Max time.Duration
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.Base <= 0 {
		p.Base = 5 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	return p
}

// Delay returns the pause after failed attempt number attempt (1-based),
// honoring the server's Retry-After hint (0 = none): the exponential backoff
// Base<<(attempt-1) is floored at the hint, capped at Max, and stretched by
// up to 100% of seeded jitter — the pause lies in [eff, 2·eff) where eff is
// the effective backoff. One uniform draw is consumed per call whatever the
// inputs, so the jitter stream position is a pure function of the retry
// count.
func (p Policy) Delay(attempt int, retryAfter time.Duration, rng *stats.RNG) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	backoff := p.Base
	for i := 1; i < attempt && backoff < p.Max; i++ {
		backoff <<= 1
	}
	if retryAfter > backoff {
		backoff = retryAfter
	}
	if backoff > p.Max {
		backoff = p.Max
	}
	jitter := time.Duration(rng.Uniform(0, float64(backoff)))
	d := backoff + jitter
	if d > 2*p.Max {
		d = 2 * p.Max
	}
	return d
}

// Result is the terminal outcome of one retried request.
type Result struct {
	// Status and Body are the final HTTP answer. After exhausted retries the
	// final answer is the last 503 received.
	Status int
	Body   []byte
	Header http.Header
	// Attempts is how many sends the request cost (1 = no retries).
	Attempts int
	// Sheds counts 503 responses observed along the way; Retries counts
	// re-sent requests (transport failures and 503s both retry).
	Sheds, Retries int64
}

// HTTPClient retries POSTs through an http.Client under a Policy. The zero
// value is not usable; fill Client (and optionally Policy).
type HTTPClient struct {
	Client *http.Client
	Policy Policy
	// sleep is the pause hook (nil = time.Sleep); tests swap it to pin the
	// delay sequence without waiting it out.
	sleep func(time.Duration)
}

// maxRetryAfter clamps the server's hint: a peer (or a fronting proxy
// rewriting the header) asking for more than this is treated as asking for
// this much — the retry loop must never park a request for hours on one
// bad header.
const maxRetryAfter = 5 * time.Minute

// now is time.Now, swappable so tests can pin HTTP-date arithmetic.
var now = time.Now

// retryAfterOf parses the Retry-After header in both RFC 9110 forms: the
// integer-seconds delay the serving layer emits, and the HTTP-date form any
// fronting proxy may rewrite it to. Absent or unparsable headers — and
// negative or already-past values — mean "no hint" (0); absurd values clamp
// to maxRetryAfter, integers too large for an int among them. The seconds
// are clamped before they become a Duration: 9223372037 s or more would
// overflow it.
func retryAfterOf(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	var d time.Duration
	// Atoi saturates an out-of-range integer at its sign's bound.
	if secs, err := strconv.Atoi(v); err == nil || errors.Is(err, strconv.ErrRange) {
		if secs < 0 {
			return 0
		}
		if secs >= int(maxRetryAfter/time.Second) {
			return maxRetryAfter
		}
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(v); err == nil {
		d = t.Sub(now())
		if d < 0 {
			return 0
		}
	} else {
		return 0
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// Post sends body until a non-503 answer, a non-retryable failure, or the
// policy's attempts run out. rng supplies the jitter stream (one draw per
// pause). A nil error with Status 503 means retries were exhausted on sheds;
// a non-nil error means every attempt failed at the transport level.
func (c *HTTPClient) Post(ctx context.Context, url, contentType string, body []byte, rng *stats.RNG) (*Result, error) {
	p := c.Policy.withDefaults()
	sleep := c.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	res := &Result{}
	var lastErr error
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		var retryAfter time.Duration
		resp, err := c.Client.Do(req)
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				err = rerr
			} else {
				res.Status = resp.StatusCode
				res.Body = b
				res.Header = resp.Header
				if resp.StatusCode != http.StatusServiceUnavailable {
					return res, nil
				}
				res.Sheds++
				retryAfter = retryAfterOf(resp.Header)
			}
		}
		lastErr = err
		if attempt == p.MaxAttempts || ctx.Err() != nil {
			if res.Status == http.StatusServiceUnavailable {
				return res, nil // exhausted on sheds: the 503 is the answer
			}
			return nil, lastErr
		}
		res.Retries++
		sleep(p.Delay(attempt, retryAfter, rng))
	}
}
