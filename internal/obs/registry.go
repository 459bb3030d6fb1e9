// Package obs is the zero-dependency observability kit: an atomic metrics
// registry with Prometheus text-format exposition (DESIGN.md §13) and
// lightweight request tracing. The hot path is allocation-free — counters
// are single atomics, histograms are fixed-bucket atomic arrays, and gauges
// are read from a function at scrape time — and every mutating method is
// nil-safe so optional instrumentation needs no branching at call sites.
//
// The standing contract: nothing in this package may influence response
// bytes. Metrics and traces observe the request path; they never feed
// back into it.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric. A metric's identity
// is its family name plus the exact ordered label list; keep call sites
// consistent.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically non-decreasing counter. The zero value is
// usable; a nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram with inclusive upper bounds
// (Prometheus `le` semantics). Observe is allocation-free: a binary
// search over the bounds plus three atomic ops. A nil *Histogram is a
// no-op.
type Histogram struct {
	bounds  []float64      // strictly increasing, finite
	buckets []atomic.Int64 // len(bounds)+1; the last is the +Inf overflow
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns the upper bounds (ending in +Inf) and the cumulative
// counts aligned with them.
func (h *Histogram) snapshot() (uppers, cum []float64) {
	uppers = make([]float64, len(h.buckets))
	cum = make([]float64, len(h.buckets))
	var run int64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cum[i] = float64(run)
		if i < len(h.bounds) {
			uppers[i] = h.bounds[i]
		} else {
			uppers[i] = math.Inf(1)
		}
	}
	return uppers, cum
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the owning bucket, the usual Prometheus histogram_quantile
// estimate. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	uppers, cum := h.snapshot()
	return BucketQuantile(q, uppers, cum)
}

// LatencyBuckets returns the default latency bucket bounds, exponential
// from 100µs to 60s. Callers may modify the returned slice.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60,
	}
}

type row struct {
	labels    []Label
	counter   *Counter
	counterFn func() int64
	gaugeFn   func() float64
	hist      *Histogram
}

type family struct {
	name string
	help string
	kind metricKind
	rows []*row
	seen map[string]bool // label signature → registered
}

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). Registration panics on invalid
// names, kind conflicts, or duplicate label sets — registration happens
// once at startup and a bad metric is a programming error. It implements
// http.Handler for mounting at /metrics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labels, &row{counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for layers that already keep their own atomics.
// fn must be monotone non-decreasing and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindCounter, labels, &row{counterFn: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, &row{gaugeFn: fn})
}

// Histogram registers and returns a histogram with the given upper
// bounds, which must be finite and strictly increasing (the implicit
// +Inf bucket is added automatically).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	bs := append([]float64(nil), bounds...)
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram " + name + " has a non-finite bound")
		}
		if i > 0 && bs[i-1] >= b {
			panic("obs: histogram " + name + " bounds must be strictly increasing")
		}
	}
	h := &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
	r.register(name, help, kindHistogram, labels, &row{hist: h})
	return h
}

func (r *Registry) register(name, help string, kind metricKind, labels []Label, rw *row) {
	if !ValidMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	sig := make([]byte, 0, 64)
	for _, l := range labels {
		if !ValidLabelName(l.Key) {
			panic("obs: invalid label name " + strconv.Quote(l.Key) + " on " + name)
		}
		sig = append(sig, l.Key...)
		sig = append(sig, 1)
		sig = append(sig, l.Value...)
		sig = append(sig, 2)
	}
	rw.labels = append([]Label(nil), labels...)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, seen: make(map[string]bool)}
		r.families[name] = f
	} else if f.kind != kind {
		panic("obs: metric " + name + " re-registered as " + kind.String() + ", was " + f.kind.String())
	}
	if f.seen[string(sig)] {
		panic("obs: duplicate registration of " + name + " with identical labels")
	}
	f.seen[string(sig)] = true
	f.rows = append(f.rows, rw)
}

// WriteExposition renders every family in Prometheus text format:
// families sorted by name, each with # HELP and # TYPE lines, samples in
// registration order.
func (r *Registry) WriteExposition(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		// Rows are append-only; copying the slice header under the lock
		// is enough for a consistent scrape.
		cp := *f
		cp.rows = append([]*row(nil), f.rows...)
		fams[n] = &cp
	}
	r.mu.Unlock()
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := fams[n]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", n, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", n, f.kind.String())
		for _, rw := range f.rows {
			writeRow(bw, n, f.kind, rw)
		}
	}
	return bw.Flush()
}

func writeRow(bw *bufio.Writer, name string, kind metricKind, rw *row) {
	switch kind {
	case kindCounter:
		v := rw.counter.Value()
		if rw.counterFn != nil {
			v = rw.counterFn()
		}
		writeSample(bw, name, rw.labels, nil, float64(v))
	case kindGauge:
		writeSample(bw, name, rw.labels, nil, rw.gaugeFn())
	case kindHistogram:
		h := rw.hist
		uppers, cum := h.snapshot()
		for i := range uppers {
			writeSample(bw, name+"_bucket", rw.labels, &Label{Key: "le", Value: formatFloat(uppers[i])}, cum[i])
		}
		writeSample(bw, name+"_sum", rw.labels, nil, h.Sum())
		// _count must equal the +Inf bucket of the same snapshot.
		writeSample(bw, name+"_count", rw.labels, nil, cum[len(cum)-1])
	}
}

func writeSample(bw *bufio.Writer, name string, labels []Label, extra *Label, v float64) {
	bw.WriteString(name)
	if len(labels) > 0 || extra != nil {
		bw.WriteByte('{')
		first := true
		for _, l := range labels {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString(l.Key)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		if extra != nil {
			if !first {
				bw.WriteByte(',')
			}
			bw.WriteString(extra.Key)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(extra.Value))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ContentType is the exposition content type served by ServeHTTP.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeHTTP renders the exposition — mount the registry at GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	r.WriteExposition(w)
}

// ValidMetricName reports whether s is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || c == ':':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidLabelName reports whether s is a legal label name:
// [a-zA-Z_][a-zA-Z0-9_]*, not starting with the reserved "__".
func ValidLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
