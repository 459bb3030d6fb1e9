package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the request/response header carrying the trace ID. It
// travels only in headers — never in bodies — so propagation cannot
// perturb the byte-determinism contract on responses.
const TraceHeader = "X-Trace-Id"

var (
	traceBase string
	traceSeq  atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		traceBase = "0000000000000000"
		return
	}
	traceBase = hex.EncodeToString(b[:])
}

// NewTraceID mints a process-unique trace ID: a random per-process base
// plus a sequence number. Cheap (no syscall after init) and unique
// enough to correlate logs across a fleet.
func NewTraceID() string {
	return traceBase + "-" + strconv.FormatUint(traceSeq.Add(1), 16)
}

// Span is one recorded stage timing within a trace.
type Span struct {
	Stage   string
	Seconds float64
}

// maxSpans bounds a trace's span list so a pathological request cannot
// grow memory without bound; the sink still sees every span.
const maxSpans = 64

// Trace carries a request's ID and its recorded span timings. A nil
// *Trace is a no-op for every method, so instrumented code paths need no
// "is tracing on" branches.
type Trace struct {
	ID   string
	sink func(stage string, seconds float64)

	mu    sync.Mutex
	spans []Span
}

// NewTrace returns a trace with the given ID. sink, if non-nil, is
// invoked synchronously for every recorded span (the server points it at
// its per-stage latency histograms); it must be safe for concurrent
// calls.
func NewTrace(id string, sink func(stage string, seconds float64)) *Trace {
	return &Trace{ID: id, sink: sink}
}

// Record appends one span and feeds the sink.
func (t *Trace) Record(stage string, seconds float64) {
	if t == nil {
		return
	}
	if t.sink != nil {
		t.sink(stage, seconds)
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{Stage: stage, Seconds: seconds})
	}
	t.mu.Unlock()
}

type traceKey struct{}

// ContextWithTrace attaches t to ctx. Attaching nil returns ctx
// unchanged.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// RecordSpan records a span on ctx's trace measuring elapsed time since
// start. A no-op when ctx carries no trace.
func RecordSpan(ctx context.Context, stage string, start time.Time) {
	if t := TraceFrom(ctx); t != nil {
		t.Record(stage, time.Since(start).Seconds())
	}
}

// StartSpan starts timing a stage and returns the function that closes
// it. When ctx carries no trace the returned closure is a no-op and no
// clock is read.
func StartSpan(ctx context.Context, stage string) func() {
	t := TraceFrom(ctx)
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Record(stage, time.Since(start).Seconds()) }
}
