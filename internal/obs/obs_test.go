package obs

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram is not a no-op")
	}
}

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-7) // ignored: counters never decrease
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	uppers, cum := h.snapshot()
	wantUppers := []float64{0.01, 0.1, 1, math.Inf(1)}
	wantCum := []float64{2, 3, 4, 5} // le is inclusive: 0.01 lands in the first bucket
	for i := range wantUppers {
		if uppers[i] != wantUppers[i] || cum[i] != wantCum[i] {
			t.Fatalf("bucket %d = (%v, %v), want (%v, %v)", i, uppers[i], cum[i], wantUppers[i], wantCum[i])
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.565) > 1e-9 {
		t.Fatalf("sum = %v, want 5.565", h.Sum())
	}
}

func TestBucketQuantile(t *testing.T) {
	uppers := []float64{1, 2, 4, math.Inf(1)}
	cum := []float64{10, 30, 40, 40}
	// Median: target 20, falls in (1,2] which spans cum 10→30; halfway.
	if got := BucketQuantile(0.5, uppers, cum); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 1.5", got)
	}
	// Everything beyond the last finite bound clamps to it.
	if got := BucketQuantile(1, uppers, cum); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	if got := BucketQuantile(0.5, nil, nil); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "Requests served.", L("endpoint", "submit"))
	r.Counter("app_requests_total", "Requests served.", L("endpoint", "get"))
	r.CounterFunc("app_derived_total", "Derived.", func() int64 { return 7 })
	r.GaugeFunc("app_inflight", "In-flight requests.", func() float64 { return 2 })
	h := r.Histogram("app_latency_seconds", "Latency.", LatencyBuckets(), L("stage", "solve"))
	c.Add(3)
	h.Observe(0.003)
	h.Observe(0.2)

	srv := httptest.NewServer(r)
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q, want %q", ct, ContentType)
	}
	fams, err := ParseExposition(res.Body)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := SampleValue(fams, "app_requests_total", L("endpoint", "submit")); !ok || v != 3 {
		t.Fatalf("app_requests_total{submit} = %v (%v), want 3", v, ok)
	}
	if v, ok := SampleValue(fams, "app_derived_total"); !ok || v != 7 {
		t.Fatalf("app_derived_total = %v (%v), want 7", v, ok)
	}
	if v, ok := SampleValue(fams, "app_inflight"); !ok || v != 2 {
		t.Fatalf("app_inflight = %v (%v), want 2", v, ok)
	}
	if v, ok := SampleValue(fams, "app_latency_seconds_count", L("stage", "solve")); !ok || v != 2 {
		t.Fatalf("histogram count = %v (%v), want 2", v, ok)
	}
	if q, ok := HistogramQuantile(fams, "app_latency_seconds", 0.5, L("stage", "solve")); !ok || q <= 0 {
		t.Fatalf("histogram p50 = %v (%v)", q, ok)
	}
	// Families arrive sorted by name.
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Fatalf("families not sorted: %s >= %s", fams[i-1].Name, fams[i].Name)
		}
	}
}

// TestCountersMonotoneAcrossScrapes is the format-rot guard from the
// issue: scrape, mutate, scrape again; every counter family must have a
// # TYPE line, legal names/labels (the parser enforces both), and
// non-decreasing values between the scrapes.
func TestCountersMonotoneAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "", L("k", "v"))
	h := r.Histogram("y_seconds", "", []float64{1})
	scrape := func() []Family {
		var sb strings.Builder
		if err := r.WriteExposition(&sb); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, sb.String())
		}
		return fams
	}
	first := scrape()
	c.Add(10)
	h.Observe(0.5)
	second := scrape()
	for _, f := range first {
		if f.Type == "" {
			t.Fatalf("family %s has no TYPE", f.Name)
		}
		if f.Type != "counter" && f.Type != "histogram" {
			continue
		}
		for _, sm := range f.Samples {
			if strings.HasSuffix(sm.Name, "_sum") {
				continue
			}
			after, ok := SampleValue(second, sm.Name, sm.Labels...)
			if !ok {
				t.Fatalf("sample %s vanished between scrapes", sm.Name)
			}
			if after < sm.Value {
				t.Fatalf("sample %s decreased: %v -> %v", sm.Name, sm.Value, after)
			}
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "foo_total 3\n",
		"bad name":             "# TYPE 9bad counter\n9bad 1\n",
		"bad label":            "# TYPE a counter\na{__x=\"1\"} 1\n",
		"negative counter":     "# TYPE a counter\na -1\n",
		"duplicate TYPE":       "# TYPE a counter\n# TYPE a counter\na 1\n",
		"type after samples":   "# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# TYPE a gauge\n",
		"missing +Inf bucket":  "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\nh_sum 1\n",
		"non-cumulative":       "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n",
		"count mismatch":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 1\n",
		"unterminated label":   "# TYPE a counter\na{k=\"v 1\n",
		"unquoted label value": "# TYPE a counter\na{k=v} 1\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse accepted malformed input:\n%s", name, in)
		}
	}
	// Sanity: a valid document still parses.
	ok := "# HELP a help\n# TYPE a counter\na{k=\"v\"} 1\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n"
	if _, err := ParseExposition(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "")
	expectPanic("invalid name", func() { r.Counter("bad name", "") })
	expectPanic("invalid label", func() { r.Counter("a_total", "", L("__r", "x")) })
	expectPanic("kind conflict", func() { r.GaugeFunc("ok_total", "", func() float64 { return 0 }) })
	expectPanic("duplicate labels", func() { r.Counter("ok_total", "") })
	expectPanic("unsorted bounds", func() { r.Histogram("h", "", []float64{2, 1}) })
	expectPanic("empty bounds", func() { r.Histogram("h", "", nil) })
}

func TestTracePropagation(t *testing.T) {
	if NewTraceID() == NewTraceID() {
		t.Fatal("trace IDs collide")
	}
	type span struct {
		stage   string
		seconds float64
	}
	var spans []span
	tr := NewTrace(func(stage string, s float64) { spans = append(spans, span{stage, s}) })
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace not recovered from context")
	}
	done := StartSpan(ctx, "solve")
	time.Sleep(time.Millisecond)
	done()
	RecordSpan(ctx, "sim", time.Now().Add(-2*time.Millisecond))
	if len(spans) != 2 || spans[0].stage != "solve" || spans[1].stage != "sim" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].seconds <= 0 || spans[1].seconds <= 0 {
		t.Fatalf("non-positive span timings: %+v", spans)
	}

	// No trace attached: everything is a cheap no-op.
	bg := context.Background()
	if TraceFrom(bg) != nil {
		t.Fatal("phantom trace")
	}
	StartSpan(bg, "x")()
	RecordSpan(bg, "x", time.Now())
	RecordSpan(nil, "x", time.Now()) //lint:ignore SA1012 nil ctx must be tolerated
	var nilTrace *Trace
	nilTrace.Record("x", 1)
	if ContextWithTrace(bg, nil) != bg {
		t.Fatal("attaching nil trace should return ctx unchanged")
	}
	if len(spans) != 2 {
		t.Fatalf("spans without a trace reached the sink: %+v", spans)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", LatencyBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001 * float64(j%7))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d", c.Value(), h.Count())
	}
}
