package retry

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestDelaySequencePinned pins the seeded jitter/backoff sequence (satellite:
// the extracted client must pace exactly as schedload always has). The
// goldens are nanosecond delays for the default policy; any change to the
// backoff formula, the jitter draw, or the RNG itself shows up here.
func TestDelaySequencePinned(t *testing.T) {
	p := Policy{MaxAttempts: 5, Base: 5 * time.Millisecond, Max: 2 * time.Second}
	cases := []struct {
		seed       uint64
		retryAfter time.Duration
		want       []time.Duration
	}{
		{1, 0, []time.Duration{7832807, 17457817, 39420055, 57774368}},
		{42, 0, []time.Duration{8707824, 11599103, 25572022, 53767628}},
		// A Retry-After hint floors the pre-jitter backoff at the server's
		// request: every pause lies in [1s, 2s).
		{7, time.Second, []time.Duration{1389829748, 1016788294, 1900760680}},
	}
	for _, c := range cases {
		rng := stats.NewRNG(c.seed)
		for i, want := range c.want {
			if got := p.Delay(i+1, c.retryAfter, rng); got != want {
				t.Errorf("seed %d attempt %d (hint %v): delay %d, want %d",
					c.seed, i+1, c.retryAfter, got, want)
			}
		}
	}
}

// TestDelayBounds pins the envelope: the pause never undercuts the effective
// backoff, never exceeds twice it, and a hostile Retry-After cannot stretch
// past 2·Max.
func TestDelayBounds(t *testing.T) {
	p := Policy{Base: 5 * time.Millisecond, Max: 2 * time.Second}
	rng := stats.NewRNG(3)
	for attempt := 1; attempt <= 12; attempt++ {
		d := p.Delay(attempt, 0, rng)
		backoff := 5 * time.Millisecond << (attempt - 1)
		if backoff > p.Max {
			backoff = p.Max
		}
		if d < backoff || d >= 2*backoff+1 {
			t.Errorf("attempt %d: delay %v outside [%v, 2x)", attempt, d, backoff)
		}
	}
	if d := p.Delay(1, time.Hour, stats.NewRNG(9)); d > 2*p.Max {
		t.Errorf("hostile Retry-After stretched the pause to %v (cap %v)", d, 2*p.Max)
	}
}

// TestDelayConsumesOneDrawPerCall: the jitter stream position depends only on
// the retry count, so two clients with the same seed stay in lockstep no
// matter what hints they saw.
func TestDelayConsumesOneDrawPerCall(t *testing.T) {
	p := Policy{}
	a, b := stats.NewRNG(5), stats.NewRNG(5)
	p.Delay(1, 0, a)
	p.Delay(1, time.Second, b) // different hint, same draw count
	if av, bv := a.Uint64(), b.Uint64(); av != bv {
		t.Errorf("streams diverged after one delay: %d vs %d", av, bv)
	}
}

// TestPostRetriesShedsThenSucceeds: a server that sheds twice then serves is
// answered 200, with sheds/retries counted and the Retry-After hint honored
// in the recorded pauses.
func TestPostRetriesShedsThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	var pauses []time.Duration
	c := &HTTPClient{
		Client: ts.Client(),
		Policy: Policy{MaxAttempts: 5, Base: time.Millisecond, Max: 10 * time.Millisecond},
		sleep:  func(d time.Duration) { pauses = append(pauses, d) },
	}
	res, err := c.Post(context.Background(), ts.URL, "application/json", []byte(`{}`), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || string(res.Body) != `{"ok":true}` {
		t.Fatalf("final answer %d %s", res.Status, res.Body)
	}
	if res.Attempts != 3 || res.Sheds != 2 || res.Retries != 2 {
		t.Errorf("attempts/sheds/retries = %d/%d/%d, want 3/2/2", res.Attempts, res.Sheds, res.Retries)
	}
	if len(pauses) != 2 {
		t.Fatalf("recorded %d pauses, want 2", len(pauses))
	}
	for i, d := range pauses {
		// Retry-After 1s floored at Max 10ms: every pause in [10ms, 20ms).
		if d < 10*time.Millisecond || d >= 20*time.Millisecond {
			t.Errorf("pause %d = %v, want in [10ms, 20ms)", i, d)
		}
	}
}

// TestPostExhaustsOnPersistentShed: a server that always sheds costs
// MaxAttempts sends and the final answer is the 503 itself (callers relay
// it; they never invent a different failure).
func TestPostExhaustsOnPersistentShed(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := &HTTPClient{
		Client: ts.Client(),
		Policy: Policy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
		sleep:  func(time.Duration) {},
	}
	res, err := c.Post(context.Background(), ts.URL, "application/json", nil, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable || res.Sheds != 3 || res.Retries != 2 {
		t.Errorf("status/sheds/retries = %d/%d/%d, want 503/3/2", res.Status, res.Sheds, res.Retries)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
}

// TestPostTerminalStatusDoesNotRetry: non-503 answers are terminal, whatever
// their status.
func TestPostTerminalStatusDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
	}))
	defer ts.Close()
	c := &HTTPClient{Client: ts.Client(), sleep: func(time.Duration) {}}
	res, err := c.Post(context.Background(), ts.URL, "application/json", nil, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusUnprocessableEntity || res.Attempts != 1 || calls.Load() != 1 {
		t.Errorf("status/attempts/calls = %d/%d/%d, want 422/1/1", res.Status, res.Attempts, calls.Load())
	}
}

// TestPostTransportFailureRetries: connection-level failures retry on the
// same schedule and surface as an error once exhausted.
func TestPostTransportFailureRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listens: every attempt fails at the transport
	var pauses int
	c := &HTTPClient{
		Client: &http.Client{Timeout: time.Second},
		Policy: Policy{MaxAttempts: 3, Base: time.Microsecond, Max: time.Millisecond},
		sleep:  func(time.Duration) { pauses++ },
	}
	_, err := c.Post(context.Background(), ts.URL, "application/json", nil, stats.NewRNG(1))
	if err == nil {
		t.Fatal("dead endpoint answered without error")
	}
	if pauses != 2 {
		t.Errorf("recorded %d pauses, want 2", pauses)
	}
}

// TestRetryAfterForms is the regression for the Retry-After parser: both
// RFC 9110 forms (integer seconds and HTTP-date), the missing-header case,
// and the clamps on negative, past, and absurd values. Before the fix the
// HTTP-date form — what any fronting proxy may rewrite the header to —
// failed strconv.Atoi and silently dropped the server's hint to 0.
func TestRetryAfterForms(t *testing.T) {
	fixed := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	now = func() time.Time { return fixed }
	defer func() { now = time.Now }()

	hdr := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	cases := []struct {
		name, value string
		want        time.Duration
	}{
		{"missing", "", 0},
		{"seconds", "3", 3 * time.Second},
		{"zero_seconds", "0", 0},
		{"negative_seconds", "-5", 0},
		{"absurd_seconds", "86400", maxRetryAfter},
		// Seconds whose Duration overflows int64 nanoseconds.
		{"overflowing_seconds", "9223372037", maxRetryAfter},
		{"wrapping_seconds", "18446744074", maxRetryAfter},
		{"max_int_seconds", "9223372036854775807", maxRetryAfter},
		{"past_max_int_seconds", "99999999999999999999", maxRetryAfter},
		{"past_min_int_seconds", "-99999999999999999999", 0},
		{"http_date", fixed.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second},
		{"http_date_past", fixed.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"http_date_absurd", fixed.Add(24 * time.Hour).Format(http.TimeFormat), maxRetryAfter},
		{"garbage", "soon", 0},
	}
	for _, tc := range cases {
		if got := retryAfterOf(hdr(tc.value)); got != tc.want {
			t.Errorf("%s: retryAfterOf(%q) = %v, want %v", tc.name, tc.value, got, tc.want)
		}
	}
}

// FuzzRetryAfter: any header value gives a delay in [0, maxRetryAfter], and
// the delay-seconds form (ASCII digits only) of 300 or more gives exactly
// maxRetryAfter, however many digits it has. now is pinned for the
// HTTP-date form.
func FuzzRetryAfter(f *testing.F) {
	fixed := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	for _, v := range []string{"", "3", "0", "-5", "299", "300", "86400", "9223372037", "18446744074",
		"9223372036854775807", "99999999999999999999", "+7", " 7", "soon",
		fixed.Add(30 * time.Second).Format(http.TimeFormat),
		fixed.Add(-time.Minute).Format(http.TimeFormat),
		fixed.Add(24 * time.Hour).Format(http.TimeFormat),
		fixed.AddDate(-300, 0, 0).Format(http.TimeFormat),
	} {
		f.Add(v)
	}
	now = func() time.Time { return fixed }
	f.Cleanup(func() { now = time.Now })
	f.Fuzz(func(t *testing.T, v string) {
		h := http.Header{}
		h["Retry-After"] = []string{v}
		got := retryAfterOf(h)
		if got < 0 || got > maxRetryAfter {
			t.Fatalf("retryAfterOf(%q) = %v, outside [0, %v]", v, got, maxRetryAfter)
		}
		digits := strings.TrimLeft(v, "0")
		if v != "" && strings.Trim(v, "0123456789") == "" &&
			(len(digits) > 3 || len(digits) == 3 && digits >= "300") && got != maxRetryAfter {
			t.Fatalf("retryAfterOf(%q) = %v, want %v", v, got, maxRetryAfter)
		}
	})
}
