package server

import (
	"strings"

	"repro/internal/obs"
)

// Metric surface (DESIGN.md §13). The server owns one obs.Registry, served
// on GET /metrics: the only place a counter is read. Counters the server
// owns are obs.Counters incremented on the request path; accounting that
// already lives in another layer (memo hit/miss/eviction, store occupancy,
// breaker position) is bridged with CounterFunc/GaugeFunc reads at scrape
// time — storage stays where it is, the registry is a view.

// stageNames enumerates the per-stage latency histograms
// (schedd_stage_seconds{stage=...}) fed by request-trace spans and the
// feedback controller's OnResolve hook.
var stageNames = []string{
	"admission_wait",
	"solve_wcs",
	"solve_acs",
	"solve_partition",
	"sim",
	"store_get",
	"store_put",
	"feedback_resolve",
}

// endpointNames enumerates the request-latency histograms
// (schedd_request_seconds{endpoint=...}) and the endpoint label values of
// schedd_requests_total.
var endpointNames = []string{
	"submit", "get", "compare",
	"session_create", "observe", "session_get",
	"metrics", "healthz", "blob", "other",
}

// serverMetrics is the server's owned metric set.
type serverMetrics struct {
	reg *obs.Registry

	// Request counters: schedd_requests_total by endpoint.
	submits, gets, compares, sessionCreates, observes *obs.Counter

	shed, degraded, panics      *obs.Counter
	restored, checkpointErrs    *obs.Counter
	driftsFired, feedbackSolves *obs.Counter
	storedHits                  *obs.Counter

	stages   map[string]*obs.Histogram
	requests map[string]*obs.Histogram
	tiers    map[[2]string]*obs.Histogram
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		stages:   make(map[string]*obs.Histogram, len(stageNames)),
		requests: make(map[string]*obs.Histogram, len(endpointNames)),
		tiers:    make(map[[2]string]*obs.Histogram, 4),
	}
	req := func(endpoint string) *obs.Counter {
		return reg.Counter("schedd_requests_total", "Requests received, by endpoint (counted before admission).", obs.L("endpoint", endpoint))
	}
	m.submits = req("submit")
	m.gets = req("get")
	m.compares = req("compare")
	m.sessionCreates = req("session_create")
	m.observes = req("observe")

	m.shed = reg.Counter("schedd_shed_total", "Requests shed 503 by the bounded admission queue.")
	m.degraded = reg.Counter("schedd_degraded_total", "Responses served from the WCS fallback after the ACS solve budget expired.")
	m.panics = reg.Counter("schedd_panics_total", "Handler and solve-pipeline panics isolated to a single request.")
	m.restored = reg.Counter("schedd_sessions_restored_total", "Feedback sessions rebuilt from checkpoints (boot restore or lazy takeover).")
	m.checkpointErrs = reg.Counter("schedd_checkpoint_errors_total", "Failed checkpoint/request-blob writes (serving continued).")
	m.driftsFired = reg.Counter("schedd_feedback_drifts_total", "Page-Hinkley drift detector firings across all sessions.")
	m.feedbackSolves = reg.Counter("schedd_feedback_resolves_total", "Adaptation re-solves completed across all sessions.")
	m.storedHits = reg.Counter("schedd_stored_body_hits_total", "Submits and GETs answered with a stored response body, without the pipeline.")

	for _, st := range stageNames {
		m.stages[st] = reg.Histogram("schedd_stage_seconds", "Per-stage latency from request-trace spans.", obs.LatencyBuckets(), obs.L("stage", st))
	}
	for _, ep := range endpointNames {
		m.requests[ep] = reg.Histogram("schedd_request_seconds", "End-to-end request latency, by endpoint.", obs.LatencyBuckets(), obs.L("endpoint", ep))
	}
	for _, tier := range []string{"mem", "disk"} {
		for _, op := range []string{"get", "put"} {
			m.tiers[[2]string{tier, op}] = reg.Histogram("schedd_store_tier_seconds", "Store tier operation latency.", obs.LatencyBuckets(), obs.L("tier", tier), obs.L("op", op))
		}
	}
	return m
}

// observeStage is the span sink every request trace is constructed with;
// spans whose stage has no histogram are dropped (forward compatibility,
// not an error).
func (m *serverMetrics) observeStage(stage string, seconds float64) {
	m.stages[stage].Observe(seconds) // nil-receiver Observe is a no-op
}

// observeTier is the store.Tiered observer.
func (m *serverMetrics) observeTier(tier, op string, seconds float64) {
	m.tiers[[2]string{tier, op}].Observe(seconds)
}

// observeRequest records one completed request.
func (m *serverMetrics) observeRequest(endpoint string, seconds float64) {
	m.requests[endpoint].Observe(seconds)
}

// endpointOf classifies a request path for the latency histograms. Purely
// observational — routing stays with the mux.
func endpointOf(path string) string {
	switch {
	case path == "/v1/schedules":
		return "submit"
	case strings.HasPrefix(path, "/v1/schedules/"):
		return "get"
	case path == "/v1/compare":
		return "compare"
	case path == "/v1/sessions":
		return "session_create"
	case strings.HasPrefix(path, "/v1/sessions/"):
		if strings.HasSuffix(path, "/observe") {
			return "observe"
		}
		return "session_get"
	case path == "/metrics":
		return "metrics"
	case path == "/v1/healthz":
		return "healthz"
	case strings.HasPrefix(path, "/v1/internal/blobs/"):
		return "blob"
	default:
		return "other"
	}
}

// registerDerived bridges accounting owned by other layers into the
// registry as scrape-time reads. Called once from New after every
// dependency is constructed.
func (s *Server) registerDerived() {
	reg := s.m.reg
	reg.GaugeFunc("schedd_inflight", "Currently admitted solving requests.", func() float64 { return float64(len(s.admit)) })
	reg.GaugeFunc("schedd_sessions", "Resident feedback sessions.", func() float64 {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("schedd_stored_requests", "Canonical requests retained for GET /v1/schedules/{fp}.", func() float64 {
		s.mu.Lock()
		n := len(s.requests)
		s.mu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("schedd_stored_body_bytes", "Total length of the response bodies stored requests hold.", func() float64 {
		s.mu.Lock()
		n := s.bodyBytes
		s.mu.Unlock()
		return float64(n)
	})

	memo := s.memo
	reg.CounterFunc("schedd_memo_hits_total", "Memo hits, by artefact kind.", func() int64 { return memo.Stats().ScheduleHits }, obs.L("kind", "schedule"))
	reg.CounterFunc("schedd_memo_misses_total", "Memo misses (paid for a build), by artefact kind.", func() int64 { return memo.Stats().ScheduleMisses }, obs.L("kind", "schedule"))
	reg.CounterFunc("schedd_memo_hits_total", "Memo hits, by artefact kind.", func() int64 { return memo.Stats().CompareHits }, obs.L("kind", "compare"))
	reg.CounterFunc("schedd_memo_misses_total", "Memo misses (paid for a build), by artefact kind.", func() int64 { return memo.Stats().CompareMisses }, obs.L("kind", "compare"))
	reg.CounterFunc("schedd_memo_evictions_total", "Entries evicted to respect the memory tier's byte cap.", func() int64 { return memo.Stats().Evictions })
	reg.GaugeFunc("schedd_memo_bytes_used", "Estimated resident bytes of the memory tier.", func() float64 { return float64(memo.Stats().BytesUsed) })
	reg.GaugeFunc("schedd_memo_bytes_cap", "Configured byte cap of the memory tier (0 = unbounded).", func() float64 { return float64(memo.Stats().BytesCap) })
	reg.CounterFunc("schedd_store_tier_hits_total", "Schedule hits split by the tier that answered.", func() int64 { return memo.Stats().MemHits }, obs.L("tier", "mem"))
	reg.CounterFunc("schedd_store_tier_hits_total", "Schedule hits split by the tier that answered.", func() int64 { return memo.Stats().DiskHits }, obs.L("tier", "disk"))
	reg.CounterFunc("schedd_store_disk_errors_total", "Failed disk device operations, by op.", func() int64 { return memo.Stats().DiskReadErrs }, obs.L("op", "read"))
	reg.CounterFunc("schedd_store_disk_errors_total", "Failed disk device operations, by op.", func() int64 { return memo.Stats().DiskWriteErrs }, obs.L("op", "write"))
	reg.GaugeFunc("schedd_store_breaker_state", "Disk circuit breaker position: 0 closed, 1 open, 2 half-open.", func() float64 { return breakerStateNum(memo.Stats().BreakerState) })
	reg.CounterFunc("schedd_store_breaker_trips_total", "Breaker open transitions.", func() int64 { return memo.Stats().BreakerTrips })
	reg.CounterFunc("schedd_store_breaker_recloses_total", "Breaker completed recoveries.", func() int64 { return memo.Stats().BreakerRecloses })
	reg.GaugeFunc("schedd_store_mem_degraded", "1 while the breaker holds the store in memory-only residency.", func() float64 {
		if memo.Stats().MemDegraded {
			return 1
		}
		return 0
	})
}

func breakerStateNum(state string) float64 {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 2
	default: // "closed" or "" (purely in-memory backend)
		return 0
	}
}

// Metrics returns the server's metric registry (an http.Handler; schedd
// also mounts it on auxiliary listeners and the fleet router registers
// its own counters into it).
func (s *Server) Metrics() *obs.Registry { return s.m.reg }
