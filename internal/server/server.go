// Package server turns the offline ACS/WCS synthesis pipeline into a
// long-running scheduling service (DESIGN.md §7): clients submit task sets
// over HTTP/JSON and receive an admission check, a solved static voltage
// schedule, and predicted energies; previously submitted schedules can be
// fetched again by fingerprint, and an ACS-vs-WCS simulated comparison is
// available per set.
//
// Endpoints (all JSON):
//
//	POST /v1/schedules              submit a task set → admission + synthesis
//	GET  /v1/schedules/{fp}         re-fetch a submitted schedule by fingerprint
//	POST /v1/compare                simulated ACS vs WCS comparison for a task set
//	POST /v1/sessions               open a feedback session (internal/feedback)
//	POST /v1/sessions/{id}/observe  stream execution observations → adaptation
//	GET  /v1/sessions/{id}          session estimator/adaptation state
//	GET  /v1/healthz                liveness probe
//	GET  /metrics                   Prometheus text exposition: every cache,
//	                                session and request counter (DESIGN.md §13)
//
// Determinism contract: the response body of every submit, get and compare
// request is a pure function of the request body — byte-identical regardless
// of concurrency, worker count, or cache state (the /metrics and
// /v1/healthz endpoints report operational state and are exempt; the
// stateful session endpoints carry the controller's history-determinism
// contract instead — see sessions.go). This
// extends the grid engine's determinism contract (DESIGN.md §6) to the
// serving path and is pinned by TestServerConcurrentDeterminism.
//
// Each request runs its pipeline on its own handler goroutine. Every
// schedule a submit, get or compare serves is built by partition.Solve: a
// single-core request is its one-core solve, whose WCS build is the
// admission test, and a "cores" request packs the set first (DESIGN.md §12).
// Solves go through the shared grid.Memo, whose per-key singleflight makes a
// thundering herd submitting the same task set pay for one solve; the memo
// is bounded (LRU, byte-accounted), so a resident daemon's cache cannot grow
// without limit.
//
// Overload and failure degrade, never crash (DESIGN.md §10): solving
// requests pass a bounded admission queue and are shed with 503 +
// Retry-After past saturation; a submit whose ACS refinement exhausts the
// per-request solve budget is answered with the WCS fallback schedule marked
// "degraded": true (worst-case feasible, so always deadline-safe); a panic
// anywhere in a request is isolated to a 500 for that request; and a
// store.Tiered backend with a tripped disk breaker silently serves
// memory-only. Every one of these events is counted on /metrics.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
)

// Options configures a Server. The zero value selects sensible daemon
// defaults.
type Options struct {
	// MemoBytes caps the shared schedule and comparison cache (estimated
	// resident bytes, LRU eviction). 0 selects the 256 MiB default;
	// negative means unbounded (not recommended for a resident daemon).
	MemoBytes int64
	// Starts is the default solver multi-start count for requests that do
	// not set their own (0/1 = single start).
	Starts int
	// SimHyperperiods is the default hyper-period count for /v1/compare
	// (default 200).
	SimHyperperiods int
	// MaxTasks bounds the admission check: task sets larger than this are
	// rejected before any solving (default 64).
	MaxTasks int
	// Store, when non-nil, supplies the residency backend for the shared
	// memo cache instead of the MemoBytes-bounded in-memory default —
	// typically a store.Tiered (memory over the crash-safe disk store), which
	// makes solves survive restarts. The byte-determinism contract makes the
	// swap invisible: every backend yields identical response bytes
	// (TestStoreBackendIdentity).
	Store grid.Store
	// Checkpoints, when non-nil, persists canonical requests and session
	// controller snapshots as named blobs (store.Disk implements it; wrap it
	// in store.Tiered to put the daemon's circuit breaker between the server
	// and the device), so GET /v1/schedules/{fp} and adaptive sessions
	// survive a daemon restart via RestoreSessions. Checkpoint write
	// failures are counted and logged once, never surfaced to clients:
	// durability is an optimization here, not correctness.
	Checkpoints BlobStore
	// MaxInflight bounds concurrently admitted solving requests (submit,
	// get, compare, session create/observe; default 256). A request that
	// cannot claim a seat queues for up to QueueWait and is then shed with
	// 503 + Retry-After — overload costs queued latency or a clean
	// retryable rejection, never an unbounded pileup.
	MaxInflight int
	// QueueWait is how long an over-limit request may wait for a seat
	// before being shed (default 100ms).
	QueueWait time.Duration
	// SolveBudget bounds the ACS refinement of each submit/get request
	// (0 = unlimited). A request whose ACS solve exceeds the budget is
	// answered with the already-built WCS schedule marked "degraded": true —
	// the paper's worst-case-feasible fallback as the degraded-mode
	// contract. The WCS baseline itself is never budgeted: it is the
	// fallback's existence proof and is cheap relative to ACS refinement.
	SolveBudget time.Duration
	// InternalBlobs, when non-nil, exposes the peer-replication endpoints
	// PUT/GET /v1/internal/blobs/{name} over this store — the door fleet
	// peers push replicated checkpoints and request records through
	// (DESIGN.md §11). It is typically the same underlying store Checkpoints
	// wraps, minus the replication layer (a peer receiving a pushed blob
	// stores it locally; re-pushing it would loop). Nil (the default) answers
	// those paths 404: a standalone daemon has no peers.
	InternalBlobs BlobStore
	// Faults, when non-nil, arms the server's own failpoints
	// ("handler.panic", "pipeline.panic") for the chaos harness. Production
	// deployments leave it nil.
	Faults *fault.Registry
	// ObserveSink, when non-nil, receives every successfully folded
	// observation batch: the session id, the model the session's current
	// schedule was solved against, and the batch's rows (plan order, one
	// per hyper-period). This is the trace-recording hook behind schedd's
	// -trace-dir. Called synchronously after the fold, outside the session
	// lock's critical decisions — it must not mutate rows and must not
	// block for long. Responses never depend on it.
	ObserveSink func(sessionID string, model *task.Set, rows [][]float64)
	// Logf, when non-nil, receives operational log lines (panics, the first
	// checkpoint failure). Responses never depend on it.
	Logf func(format string, args ...any)
}

// BlobStore is the named-blob persistence the server checkpoints into. Puts
// must be atomic (a concurrent reader or a crash sees old or new content,
// never a mix); store.Disk satisfies this with two CRC-framed slot files per
// blob, overwriting the older one in place.
type BlobStore interface {
	PutBlob(name string, data []byte) error
	GetBlob(name string) (data []byte, ok bool, err error)
	ListBlobs() ([]string, error)
}

func (o Options) withDefaults() Options {
	if o.MemoBytes == 0 {
		o.MemoBytes = 256 << 20
	}
	if o.SimHyperperiods <= 0 {
		o.SimHyperperiods = 200
	}
	if o.MaxTasks <= 0 {
		o.MaxTasks = 64
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 100 * time.Millisecond
	}
	return o
}

// The server's fixed bounds. Each is copied into an unexported Server field
// at New, so in-package tests can lower it.
const (
	// storeLimit bounds how many canonical requests are retained for
	// GET /v1/schedules/{fp} (FIFO eviction; an evicted fingerprint answers
	// 404 until resubmitted, and the response body a repeat stored on it
	// goes with it).
	storeLimit = 4096
	// sessionLimit bounds resident feedback sessions; creation beyond it
	// answers 503 until sessions free up (sessions live for the daemon's
	// lifetime — there is deliberately no implicit eviction of a stateful
	// learning loop).
	sessionLimit = 64
	// maxObserveBatch bounds hyper-periods per observe call.
	maxObserveBatch = 4096
)

// Server is the scheduling service. Construct with New, serve Handler, and
// Close when done (it cancels in-flight solves).
type Server struct {
	opts   Options
	runner *grid.Runner
	memo   *grid.Memo
	mux    *http.ServeMux

	base   context.Context
	cancel context.CancelFunc

	// admit is the bounded admission semaphore for solving endpoints: a
	// request sends to claim a seat and receives to release it.
	admit chan struct{}

	mu         sync.Mutex
	requests   map[string]*canonicalRequest // fingerprint → canonical submit content
	fifo       []string                     // insertion order for storeLimit eviction
	bodyBytes  int64                        // total length of the bodies requests hold
	sessions   map[string]*serverSession    // id → resident feedback session
	sessionSeq int64
	// damaged maps a session id to the SHA-256 of its checkpoint blob that
	// last failed to restore, so a takeover or refresh meeting the same
	// blob again skips it without decoding or counting it a second time.
	damaged map[string][sha256.Size]byte

	// bodyCap bounds bodyBytes: maxStoredBodyBytes, lowered by tests, as
	// are storeCap (storeLimit), sessionCap (sessionLimit) and batchCap
	// (maxObserveBatch).
	bodyCap    int64
	storeCap   int
	sessionCap int
	batchCap   int

	// restoreMu serialises lazy session takeover (sessionOrRestore): one
	// restore solve per missing session, not one per racing request.
	restoreMu sync.Mutex

	// m owns the metric registry: every counter GET /metrics exposes
	// (see metrics.go).
	m           *serverMetrics
	ckptLogOnce sync.Once

	// trace is every request's span sink: it feeds m's per-stage latency
	// histograms and holds no per-request state, so one serves them all.
	trace *obs.Trace
}

// New constructs a Server with its own bounded memo and grid runner (or, when
// Options.Store is set, a memo over the supplied backend).
func New(opts Options) *Server {
	o := opts.withDefaults()
	var memo *grid.Memo
	switch {
	case o.Store != nil:
		memo = grid.NewMemoOn(o.Store)
	case o.MemoBytes > 0:
		memo = grid.NewBoundedMemo(o.MemoBytes)
	default:
		memo = grid.NewMemo()
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       o,
		runner:     grid.New(0, memo),
		memo:       memo,
		base:       base,
		cancel:     cancel,
		admit:      make(chan struct{}, o.MaxInflight),
		requests:   make(map[string]*canonicalRequest),
		sessions:   make(map[string]*serverSession),
		damaged:    make(map[string][sha256.Size]byte),
		bodyCap:    maxStoredBodyBytes,
		storeCap:   storeLimit,
		sessionCap: sessionLimit,
		batchCap:   maxObserveBatch,
		m:          newServerMetrics(),
	}
	s.trace = obs.NewTrace(s.m.observeStage)
	// A store backend with an observer hook (store.Tiered) gains per-tier
	// latency histograms.
	if so, ok := o.Store.(interface {
		SetObserver(func(tier, op string, seconds float64))
	}); ok {
		so.SetObserver(s.m.observeTier)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedules", s.admitted(s.m.submits, s.handleSubmit))
	mux.HandleFunc("GET /v1/schedules/{fp}", s.admitted(s.m.gets, s.handleGet))
	mux.HandleFunc("POST /v1/compare", s.admitted(s.m.compares, s.handleCompare))
	mux.HandleFunc("POST /v1/sessions", s.admitted(s.m.sessionCreates, s.handleSessionCreate))
	mux.HandleFunc("POST /v1/sessions/{id}/observe", s.admitted(s.m.observes, s.handleSessionObserve))
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.m.reg)
	mux.HandleFunc("PUT /v1/internal/blobs/{name}", s.handleBlobPut)
	mux.HandleFunc("GET /v1/internal/blobs/{name}", s.handleBlobGet)
	s.mux = mux
	s.registerDerived()
	return s
}

// Handler returns the service's HTTP handler: the mux wrapped in panic
// isolation — a panic in a handler or in the solve pipeline it runs costs
// its request a 500 and bumps a counter; it never kills the daemon — plus
// the observability middleware: a per-request trace ID (the inbound
// X-Trace-Id is honoured, otherwise one is minted; it is echoed on the
// response), the server's span sink in the request context, feeding the
// per-stage latency histograms, and an end-to-end request-latency
// observation. Traces travel in context values and headers
// only, never in bodies, so the byte-determinism contract is untouched.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &committedWriter{ResponseWriter: w}
		endpoint := endpointOf(r.URL.Path)
		t0 := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Inc()
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !cw.committed {
					writeResult(cw, errorf(http.StatusInternalServerError, "internal error"))
				}
			}
			s.m.observeRequest(endpoint, time.Since(t0).Seconds())
		}()
		tid := r.Header.Get(obs.TraceHeader)
		if tid == "" {
			tid = obs.NewTraceID()
		}
		cw.Header().Set(obs.TraceHeader, tid)
		r = r.WithContext(obs.ContextWithTrace(r.Context(), s.trace))
		s.mux.ServeHTTP(cw, r)
	})
}

// HTTPServer returns the http.Server a daemon serves h on. WriteTimeout
// bounds the whole handler (headers read → response written): it must
// dominate any legitimate solve, so it is generous — a stuck handler is
// reaped, a slow solve is not — and a fleet peer waits on another peer for
// as long. IdleTimeout reaps abandoned keep-alive connections.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// committedWriter records whether a response has started, so the panic
// recovery path knows if a 500 can still be written.
type committedWriter struct {
	http.ResponseWriter
	committed bool
}

func (w *committedWriter) WriteHeader(status int) {
	w.committed = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *committedWriter) Write(p []byte) (int, error) {
	w.committed = true
	return w.ResponseWriter.Write(p)
}

// Close cancels the server's base context: in-flight solves stop at their
// next sweep boundary and new requests are refused with 503.
func (s *Server) Close() { s.cancel() }

// requestContext derives the context a request's work runs under: the
// request's own context (so it carries the trace, and a client that goes
// away stops its solve), canceled as well when Close shuts the server down.
// context.AfterFunc ties the two without a watcher goroutine. Once the
// server is closed it answers 503 instead: a memo hit or a session fold never
// consults the context, so cancellation alone would not refuse them.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, *apiError) {
	if s.base.Err() != nil {
		return nil, nil, errorf(http.StatusServiceUnavailable, "shutting down")
	}
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.base, cancel)
	return ctx, func() {
		stop()
		cancel()
	}, nil
}

// logf emits an operational log line through Options.Logf (discarded when
// unset).
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// failpoint panics when the named server failpoint is armed — the hook the
// chaos harness uses to prove panic isolation. Inert (one nil check) in
// production.
func (s *Server) failpoint(name string) {
	if s.opts.Faults != nil && s.opts.Faults.Eval(name).Err != nil {
		panic("fault: injected panic at " + name)
	}
}

// noteCheckpointErr counts a failed checkpoint/request-blob write. The first
// failure is logged; the rest only count — a dying disk must not turn every
// observe into a log line.
func (s *Server) noteCheckpointErr(err error) {
	s.m.checkpointErrs.Inc()
	s.ckptLogOnce.Do(func() {
		s.logf("checkpoint write failing (serving continues; state will not survive a restart): %v", err)
	})
}

// acquire claims a seat in the bounded admission queue, waiting up to
// QueueWait when the server is saturated. It returns a release closure, or
// the 503 the request must be shed with. The semaphore spans the whole
// request (solve + response assembly), so MaxInflight bounds real work.
func (s *Server) acquire(ctx context.Context) (func(), *apiError) {
	select {
	case s.admit <- struct{}{}:
		return func() { <-s.admit }, nil
	default:
	}
	// Slow path: the request queues. The wait is a trace span — the
	// fast path above records nothing, so admission_wait measures real
	// queueing, not the uncontended probe.
	t0 := time.Now()
	timer := time.NewTimer(s.opts.QueueWait)
	defer timer.Stop()
	select {
	case s.admit <- struct{}{}:
		obs.RecordSpan(ctx, "admission_wait", t0)
		return func() { <-s.admit }, nil
	case <-ctx.Done():
		return nil, errorf(http.StatusServiceUnavailable, "request abandoned while queued")
	case <-s.base.Done():
		return nil, errorf(http.StatusServiceUnavailable, "shutting down")
	case <-timer.C:
		s.m.shed.Inc()
		return nil, errorf(http.StatusServiceUnavailable,
			"overloaded: %d requests in flight and the admission queue wait expired", s.opts.MaxInflight)
	}
}

// admitted is the prologue of every solving endpoint (submit, GET, compare,
// session create and observe), built once in New: it counts the request on
// requests, derives its context (requestContext), claims an admission seat
// (acquire), runs h, and releases both when h returns or panics.
func (s *Server) admitted(requests *obs.Counter, h func(context.Context, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		ctx, cancel, e := s.requestContext(r)
		if e != nil {
			writeResult(w, e)
			return
		}
		defer cancel()
		release, e := s.acquire(ctx)
		if e != nil {
			writeResult(w, e)
			return
		}
		defer release()
		h(ctx, w, r)
	}
}

// apiError is a deterministic JSON error response. retryAfter carries the
// Retry-After header value for 503s; writeResult defaults it to 1s so every
// 503 the server emits is explicitly retryable. cause, when set, is the
// pipeline failure the response reports (see solveError).
type apiError struct {
	status     int
	msg        string
	retryAfter int // seconds; 0 = writeResult's default for 503
	cause      error
}

func (e *apiError) Error() string { return e.msg }
func (e *apiError) Unwrap() error { return e.cause }

func errorf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// canonicalRequest is a submit request after validation and defaulting: the
// form all solving and fingerprinting is defined over.
type canonicalRequest struct {
	set       *task.Set
	objective core.Objective
	starts    int
	subCap    int
	// cores > 1 packs the set onto that many cores (internal/partition);
	// 0 is the single-core request, solved on one core. An explicit
	// "cores":1 normalizes to 0 at canonicalization so it aliases the
	// single-core request exactly — same fingerprint, same bytes.
	cores int
	// body, once a repeat has stored it, is this fingerprint's encoded
	// non-degraded 200 response; every later submit and GET of the
	// fingerprint is answered with it (Server.serveSchedule). Read and
	// written under Server.mu.
	body []byte
}

// SubmitRequest is the POST /v1/schedules body.
type SubmitRequest struct {
	// Tasks is the task set. Sets are canonicalised into rate-monotonic
	// priority order before fingerprinting, so permutations of tasks with
	// distinct periods share a fingerprint; among equal-period tasks the
	// submission order is the priority tie-break (paper §2.1's rule) and is
	// therefore part of the schedule's identity.
	Tasks []task.Task `json:"tasks"`
	// Objective is "acs" (default) or "wcs".
	Objective string `json:"objective,omitempty"`
	// Starts overrides the server's solver multi-start count (0 = server
	// default).
	Starts int `json:"starts,omitempty"`
	// SubCap caps sub-instances per instance (0 = unlimited).
	SubCap int `json:"subcap,omitempty"`
	// Cores partitions the task set onto this many identical cores
	// (first-fit-decreasing admission, per-core WCS/ACS solves, global
	// energy objective — DESIGN.md §12). 0 or 1 is the single-core
	// pipeline, byte-for-byte.
	Cores int `json:"cores,omitempty"`
}

// CompareRequest is the POST /v1/compare body: a submit body plus the
// simulation dimensions.
type CompareRequest struct {
	SubmitRequest
	// Hyperperiods is the simulated horizon (0 = server default).
	Hyperperiods int `json:"hyperperiods,omitempty"`
	// Seed seeds the workload draws; 0 derives a seed from the task-set
	// fingerprint, so responses stay deterministic per request body.
	Seed uint64 `json:"seed,omitempty"`
}

// ScheduleResponse is the submit/get response: the solved static schedule
// and its predicted energies.
type ScheduleResponse struct {
	// Fingerprint is the content address of (task set, solver config,
	// objective) — the handle GET /v1/schedules/{fp} accepts.
	Fingerprint string `json:"fingerprint"`
	Objective   string `json:"objective"`
	Tasks       int    `json:"tasks"`
	// HyperperiodMs is the schedule horizon (LCM of all periods).
	HyperperiodMs int64 `json:"hyperperiod_ms"`
	// Pieces is the number of sub-instances in the fully-preemptive total
	// order (the length of EndMs and WCWorkCycles).
	Pieces int `json:"pieces"`
	Sweeps int `json:"sweeps"`
	// PredictedEnergy is the solver's objective value: expected greedy-
	// reclamation energy at the average workload for ACS, worst-case energy
	// for WCS.
	PredictedEnergy float64 `json:"predicted_energy"`
	// WCSAvgEnergy is the WCS baseline schedule evaluated at the average
	// workload — the static quantity ACS improves on — and ImprovementPct
	// the relative gain. Present only for the ACS objective.
	WCSAvgEnergy   *float64 `json:"wcs_avg_energy,omitempty"`
	ImprovementPct *float64 `json:"improvement_pct,omitempty"`
	// EndMs and WCWorkCycles are the two vectors the online DVS phase
	// consumes (paper §3.2), in the plan's total order. Single-core
	// responses always carry them; partitioned responses carry them per
	// core instead (omitempty keeps single-core bytes unchanged).
	EndMs        []float64 `json:"end_ms,omitempty"`
	WCWorkCycles []float64 `json:"wcwork_cycles,omitempty"`
	// Degraded marks a response served (wholly or, for partitioned
	// submits, on at least one core) from the WCS fallback because the
	// ACS refinement exceeded the solve budget (DESIGN.md §10): the
	// schedule is the worst-case-feasible one — always deadline-safe, just
	// not average-case optimal — and WCSAvgEnergy/ImprovementPct are
	// absent. Degraded responses sit outside the byte-determinism contract
	// (whether a budget expires is a property of load, not of the request
	// body); re-fetching the fingerprint re-attempts the full ACS solve.
	Degraded bool `json:"degraded,omitempty"`
	// Cores and PerCore are present only on partitioned responses
	// (request cores > 1): the core count and each core's assignment +
	// solved schedule. Top-level Pieces/Sweeps are sums over cores,
	// PredictedEnergy is the global objective (Σ per-core energies), and
	// WCSAvgEnergy/ImprovementPct are the global baseline/gain.
	Cores   int                    `json:"cores,omitempty"`
	PerCore []CoreScheduleResponse `json:"per_core,omitempty"`
}

// CoreScheduleResponse is one core of a partitioned ScheduleResponse.
type CoreScheduleResponse struct {
	Core int `json:"core"`
	// TaskNames is the core's assignment, in the subset's rate-monotonic
	// order (empty for an idle core).
	TaskNames []string `json:"task_names"`
	// Fingerprint is the grid content address of the core's sub-problem —
	// identical to the fingerprint a single-core submit of exactly these
	// tasks would get (an "objective":"wcs" submit's for a degraded core),
	// so GET answers it once such a submit has been stored.
	Fingerprint     string    `json:"fingerprint,omitempty"`
	Pieces          int       `json:"pieces,omitempty"`
	Sweeps          int       `json:"sweeps,omitempty"`
	PredictedEnergy float64   `json:"predicted_energy,omitempty"`
	EndMs           []float64 `json:"end_ms,omitempty"`
	WCWorkCycles    []float64 `json:"wcwork_cycles,omitempty"`
	// Degraded marks this core as serving its WCS schedule because its
	// ACS budget share expired; the response's top-level Degraded is set
	// whenever any core degrades.
	Degraded bool `json:"degraded,omitempty"`
}

// PolicyResult summarises one simulated schedule in a CompareResponse.
type PolicyResult struct {
	Energy         float64 `json:"energy"`
	DeadlineMisses int     `json:"deadline_misses"`
	Switches       int     `json:"switches"`
	MeanVoltage    float64 `json:"mean_voltage"`
}

// CompareResponse is the /v1/compare response: both schedules simulated
// under identical workload draws.
type CompareResponse struct {
	Fingerprint    string       `json:"fingerprint"`
	Hyperperiods   int          `json:"hyperperiods"`
	Seed           uint64       `json:"seed"`
	ImprovementPct float64      `json:"improvement_pct"`
	ACS            PolicyResult `json:"acs"`
	WCS            PolicyResult `json:"wcs"`
}

// maxCores bounds the partitioned pipeline's per-request fan-out: each core
// is a separate WCS+ACS solve through the shared runner, so the bound plays
// the same admission role MaxTasks does for set size.
const maxCores = 16

// MaxStarts bounds a request's resolved multi-start count: the solver sets
// up a configuration, a result and a goroutine per start before its first
// solve. It is twice the largest count any command or study runs, and
// schedd refuses a larger -starts default.
const MaxStarts = 16

// MaxSimHyperperiods bounds a comparison's resolved horizon: a simulation
// allocates its per-hyper-period seeds and results before it runs, for both
// plans at once. It is ten times the paper's 1,000, and schedd refuses a
// larger -hyperperiods default.
const MaxSimHyperperiods = 10000

// canonicalizeSubmit validates a request into its canonical form under the
// server defaults it is resolved against. It is the one door a canonical
// request enters through: a submit, compare or session body, a stored
// request blob and a session checkpoint's base set and knobs all pass it,
// and the fleet router computes the peers' fingerprint with it. All
// admission rejections happen here or in the WCS build's all-Vmax check
// (core.InfeasibleError, mapped by solveError), both before any
// optimisation sweep runs. maxTasks <= 0 selects the Options default.
func canonicalizeSubmit(req *SubmitRequest, defaultStarts, maxTasks int) (*canonicalRequest, *apiError) {
	if maxTasks <= 0 {
		maxTasks = 64
	}
	if len(req.Tasks) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, "admission: task set is empty")
	}
	if len(req.Tasks) > maxTasks {
		return nil, errorf(http.StatusUnprocessableEntity,
			"admission: %d tasks exceeds the limit of %d", len(req.Tasks), maxTasks)
	}
	set, err := task.NewSet(req.Tasks)
	if err == nil {
		err = core.CheckInstances(set)
	}
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, "admission: %v", err)
	}
	cr := &canonicalRequest{set: set, starts: req.Starts, subCap: req.SubCap, cores: req.Cores}
	if cr.starts <= 0 {
		cr.starts = defaultStarts
	}
	if cr.starts > MaxStarts {
		return nil, errorf(http.StatusUnprocessableEntity,
			"admission: starts must lie in [0, %d], got %d", MaxStarts, cr.starts)
	}
	if cr.cores < 0 || cr.cores > maxCores {
		return nil, errorf(http.StatusUnprocessableEntity,
			"admission: cores must lie in [0, %d], got %d", maxCores, cr.cores)
	}
	if cr.cores == 1 {
		cr.cores = 0 // one core IS the single-core pipeline; alias it exactly
	}
	switch req.Objective {
	case "", "acs":
		cr.objective = core.AverageCase
	case "wcs":
		cr.objective = core.WorstCase
	default:
		return nil, errorf(http.StatusUnprocessableEntity,
			"admission: unknown objective %q (want acs or wcs)", req.Objective)
	}
	return cr, nil
}

// SubmitFingerprint computes the canonical fingerprint of a submit/compare
// body under the given server defaults — the routing key the fleet router
// shares with the peers' own canonicalization, so a request lands on the
// peer that owns its content address. ok is false when the body does not
// canonicalize; such requests draw the same deterministic 4xx from every
// peer, so routers may key them however they like (e.g. a raw-body hash).
func SubmitFingerprint(req *SubmitRequest, defaultStarts, maxTasks int) (fp string, ok bool) {
	cr, e := canonicalizeSubmit(req, defaultStarts, maxTasks)
	if e != nil {
		return "", false
	}
	fp, e2 := cr.fingerprint()
	if e2 != nil {
		return "", false
	}
	return fp, true
}

// config is the request's solve: the request's solver knobs on cr.cores
// cores (one when unset), packed first-fit-decreasing with no improvement
// loop (moves are an offline refinement, not a serving-path cost). The ACS
// budget is load policy, applied at solve time and excluded from the
// fingerprint.
func (cr *canonicalRequest) config() partition.Config {
	solver := core.Config{Objective: cr.objective, Starts: cr.starts}
	solver.Preempt.MaxSubsPerInstance = cr.subCap
	return partition.Config{
		Cores:  max(cr.cores, 1),
		Mode:   partition.FirstFitDecreasing,
		Solver: solver,
	}
}

// fingerprint content-addresses the canonical request: the grid schedule key
// of its set and solver config (task-set fingerprint, model identity, every
// solver field a solve is a function of), extended with the partition knobs
// when it has more than one core (partition.Fingerprint).
func (cr *canonicalRequest) fingerprint() (string, *apiError) {
	fp, ok := partition.Fingerprint(cr.set, cr.config())
	if !ok {
		return "", errorf(http.StatusInternalServerError, "fingerprint: config not canonically encodable")
	}
	return fp, nil
}

// solve runs the request's solve through partition.Solve, the only code
// that builds a served schedule, with each core's ACS refinement bounded by
// budget (0 = unbounded). One core is WCS synthesis, whose all-Vmax check
// is the admission test (an infeasible set is a cached build failure, so a
// repeat does no admission work), then ACS warm-started from it; M cores
// add FFD admission and run that pair per core (DESIGN.md §12), timed as
// one solve_partition stage. A failure is the apiError the response reports.
func (s *Server) solve(ctx context.Context, cr *canonicalRequest, budget time.Duration) (*partition.Result, *apiError) {
	pcfg := cr.config()
	pcfg.ACSBudget = budget
	done := func() {}
	if pcfg.Cores > 1 {
		done = obs.StartSpan(ctx, "solve_partition")
	}
	res, err := partition.Solve(ctx, s.runner, cr.set, pcfg)
	done()
	if err != nil {
		return nil, solveError(solveStage(pcfg.Cores, err), err)
	}
	return res, nil
}

// solveStage names a failed solve in its response: a partitioned solve as a
// whole, a one-core solve by the build that failed.
func solveStage(cores int, err error) string {
	var be *partition.BuildError
	switch {
	case cores > 1:
		return "partitioned synthesis"
	case errors.As(err, &be) && be.Objective == core.AverageCase:
		return "acs synthesis"
	default:
		return "wcs synthesis"
	}
}

// buildScheduleResponse is the submit pipeline: the request's solve under
// the solve budget, then response assembly. A single-core response carries
// core 0 in its flat fields; a partitioned one lists every core in per_core
// and sums them in the flat fields. A core whose budget expired serves its
// WCS schedule, marked degraded, and so is the whole response, without the
// ACS-only baseline fields — budget-truncated ACS never reaches a
// non-degraded 200. Every other response is a pure function of cr: each
// field derives from solver output, never from timing or cache state.
func (s *Server) buildScheduleResponse(ctx context.Context, cr *canonicalRequest, fp string) any {
	s.failpoint("pipeline.panic")
	res, e := s.solve(ctx, cr, s.opts.SolveBudget)
	if e != nil {
		return e
	}
	resp := &ScheduleResponse{
		Fingerprint: fp,
		Objective:   cr.objective.String(),
		Tasks:       cr.set.N(),
	}
	if h, err := cr.set.Hyperperiod(); err == nil {
		resp.HyperperiodMs = h
	}
	wcsAvgTotal := 0.0
	for i := range res.Cores {
		cs := &res.Cores[i]
		pc := CoreScheduleResponse{Core: cs.Core, TaskNames: []string{}, Degraded: cs.Degraded}
		if sched := cs.Schedule(); sched != nil {
			for j := range cs.Set.Tasks {
				pc.TaskNames = append(pc.TaskNames, cs.Set.Tasks[j].Name)
			}
			pc.Fingerprint = cs.Key
			pc.Pieces = len(sched.Plan.Subs)
			pc.Sweeps = sched.Sweeps
			pc.PredictedEnergy = sched.Energy
			pc.EndMs = sched.End
			pc.WCWorkCycles = sched.WCWork
			resp.Pieces += pc.Pieces
			resp.Sweeps += pc.Sweeps
			if cr.objective == core.AverageCase && !cs.Degraded {
				wcsAvg, err := cs.WCSAtAverage()
				if err != nil {
					return solveError("wcs baseline evaluation", err)
				}
				wcsAvgTotal += wcsAvg
			}
		}
		resp.Degraded = resp.Degraded || cs.Degraded
		resp.PerCore = append(resp.PerCore, pc)
	}
	if cr.cores > 1 {
		resp.Cores = cr.cores
	} else {
		// One core answers in the flat single-core shape.
		resp.EndMs, resp.WCWorkCycles = resp.PerCore[0].EndMs, resp.PerCore[0].WCWorkCycles
		resp.PerCore = nil
	}
	resp.PredictedEnergy = res.Energy
	if cr.objective == core.AverageCase && !resp.Degraded {
		imp := 0.0
		if wcsAvgTotal > 0 {
			imp = 100 * (wcsAvgTotal - res.Energy) / wcsAvgTotal
		}
		resp.WCSAvgEnergy = &wcsAvgTotal
		resp.ImprovementPct = &imp
	}
	if resp.Degraded {
		s.m.degraded.Inc()
	}
	return resp
}

// buildCompareResponse solves both objectives and simulates them under
// identical workload draws — the Fig. 6 quantity, as a service. Pure
// function of (cr, hyperperiods, seed), so the comparison is memoized under
// the fingerprint and the simulation config (grid.CompareKey): a repeat
// answers from the memo without solving, compiling or simulating, and an
// infeasible set's admission 422 is cached the same way.
func (s *Server) buildCompareResponse(ctx context.Context, cr *canonicalRequest, fp string, hyperperiods int, seed uint64) any {
	cfg := sim.Config{
		Policy:       sim.Greedy,
		Hyperperiods: hyperperiods,
		Seed:         seed,
		Ctx:          ctx,
	}
	c, err := s.runner.Compare(ctx, fp, cfg, func() (*grid.Comparison, error) {
		return s.simulatePair(ctx, cr, cfg)
	})
	if err != nil {
		var e *apiError
		if !errors.As(err, &e) {
			// A waiter whose own context ended gets that context's error.
			e = solveError("comparison", err)
		}
		return e
	}
	return &CompareResponse{
		Fingerprint:    fp,
		Hyperperiods:   hyperperiods,
		Seed:           seed,
		ImprovementPct: c.ImprovementPct,
		ACS:            PolicyResult{Energy: c.A.Energy, DeadlineMisses: c.A.DeadlineMisses, Switches: c.A.Switches, MeanVoltage: c.A.MeanVoltage},
		WCS:            PolicyResult{Energy: c.B.Energy, DeadlineMisses: c.B.DeadlineMisses, Switches: c.B.Switches, MeanVoltage: c.B.MeanVoltage},
	}
}

// simulatePair is the comparison build: the request's unbudgeted one-core
// solve, as in buildScheduleResponse, then core 0's ACS and WCS schedules
// compiled and simulated under cfg with A = ACS and B = WCS. Every failure
// is returned as the *apiError the response reports; its cause tells the
// memo whether it may be cached.
func (s *Server) simulatePair(ctx context.Context, cr *canonicalRequest, cfg sim.Config) (*grid.Comparison, error) {
	res, e := s.solve(ctx, cr, 0)
	if e != nil {
		return nil, e
	}
	pa, err := sim.Compile(res.Cores[0].ACS)
	if err != nil {
		return nil, solveError("acs compile", err)
	}
	pb, err := sim.Compile(res.Cores[0].WCS)
	if err != nil {
		return nil, solveError("wcs compile", err)
	}
	simDone := obs.StartSpan(ctx, "sim")
	imp, ra, rb, err := sim.ComparePlans(pa, pb, cfg)
	simDone()
	if err != nil {
		return nil, solveError("simulation", err)
	}
	return &grid.Comparison{ImprovementPct: imp, A: ra, B: rb}, nil
}

// solveError maps pipeline failures: cancellation (the requester went away
// or the server is shutting down) becomes 503; a set the WCS build found
// unschedulable at Vmax (core.InfeasibleError) becomes the admission 422,
// with the check's own text; everything else is a deterministic 422 —
// solve failures are properties of the request content. The failure stays
// the response's cause, so the memo can tell a cancellation (never cached)
// from a cacheable failure.
func solveError(stage string, err error) *apiError {
	var e *apiError
	var inf *core.InfeasibleError
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e = errorf(http.StatusServiceUnavailable, "%s canceled", stage)
	case errors.As(err, &inf):
		e = errorf(http.StatusUnprocessableEntity, "admission: %v", inf)
	default:
		e = errorf(http.StatusUnprocessableEntity, "%s: %v", stage, err)
	}
	e.cause = err
	return e
}

// maxStoredBodyBytes caps the total length of the response bodies stored
// requests hold (Server.bodyCap). storeLimit alone would allow gigabytes: a
// 64-task body can run to hundreds of KB. Past the cap the pipeline answers.
const maxStoredBodyBytes = 32 << 20

// cache stores cr for later GETs, evicting the oldest stored request, and
// the body it holds, beyond storeLimit. A fingerprint already stored is a
// repeat: cache then changes nothing and returns the stored request's body,
// nil until a repeat has stored one.
func (s *Server) cache(fp string, cr *canonicalRequest) (body []byte, repeat bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if held, ok := s.requests[fp]; ok {
		return held.body, true
	}
	s.requests[fp] = cr
	s.fifo = append(s.fifo, fp)
	for len(s.fifo) > s.storeCap {
		s.bodyBytes -= int64(len(s.requests[s.fifo[0]].body))
		delete(s.requests, s.fifo[0])
		s.fifo = s.fifo[1:]
	}
	return nil, false
}

// storeBody keeps body, fingerprint fp's encoded non-degraded 200, on fp's
// stored request. It keeps nothing when fp has been evicted since, already
// holds a body, or body would take the total past bodyCap.
func (s *Server) storeBody(fp string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cr := s.requests[fp]
	if cr == nil || cr.body != nil || s.bodyBytes+int64(len(body)) > s.bodyCap {
		return
	}
	cr.body = body
	s.bodyBytes += int64(len(body))
}

// blob renders cr as its stored request blob: the request as a body, with
// the canonical (rate-monotonic, named) task set, the objective spelled out
// and the resolved knobs. lookup reads it back through the body door with
// no default starts, which gives cr's fingerprint and fields again
// (FuzzSubmitBody checks this for every body the door accepts).
func (cr *canonicalRequest) blob() ([]byte, error) {
	return json.Marshal(&SubmitRequest{
		Tasks: cr.set.Tasks, Objective: strings.ToLower(cr.objective.String()),
		Starts: cr.starts, SubCap: cr.subCap, Cores: cr.cores,
	})
}

// remember caches cr and mirrors a newly-seen request into the checkpoint
// store as its blob, so GET /v1/schedules/{fp} survives a restart. It
// returns cache's body and repeat.
func (s *Server) remember(fp string, cr *canonicalRequest) (body []byte, repeat bool) {
	body, repeat = s.cache(fp, cr)
	if repeat || s.opts.Checkpoints == nil {
		return body, repeat
	}
	blob, err := cr.blob()
	if err == nil {
		err = s.opts.Checkpoints.PutBlob("request-"+fp, blob)
	}
	if err != nil {
		s.noteCheckpointErr(err)
	}
	return nil, false
}

// lookup resolves a fingerprint to its canonical request and the body it
// holds, falling back to the checkpoint store after a restart (or FIFO
// eviction). A recovered blob passes the body door, canonicalizeSubmit, with
// no default starts (it holds its request's resolved ones), so it is
// accepted exactly when its body would be, and is trusted only if its
// recomputed fingerprint matches the name it was stored under — the same
// content-address check the cache key provides.
func (s *Server) lookup(fp string) (cr *canonicalRequest, body []byte) {
	s.mu.Lock()
	if cr = s.requests[fp]; cr != nil {
		body = cr.body
	}
	s.mu.Unlock()
	if cr != nil || s.opts.Checkpoints == nil {
		return cr, body
	}
	blob, ok, err := s.opts.Checkpoints.GetBlob("request-" + fp)
	if err != nil || !ok {
		return nil, nil
	}
	var req SubmitRequest
	if decodeJSON(bytes.NewReader(blob), &req) != nil {
		return nil, nil
	}
	cr, e := canonicalizeSubmit(&req, 0, s.opts.MaxTasks)
	if e != nil {
		return nil, nil
	}
	if got, e := cr.fingerprint(); e != nil || got != fp {
		return nil, nil // rotted or tampered blob: treat as absent
	}
	// Re-cache only: the blob was just read, and writing it back would be a
	// synchronous push to every replica in a fleet, or a checkpoint error on
	// a failing disk, on a read path.
	s.cache(fp, cr)
	return cr, nil
}

// MaxRequestBody caps every request body the server decodes and the fleet
// router forwards.
const MaxRequestBody = 4 << 20

// decode reads a JSON body strictly: unknown fields are rejected so that a
// mistyped request cannot silently alias a different canonical form.
func decode(r *http.Request, into any) *apiError {
	return decodeJSON(http.MaxBytesReader(nil, r.Body, MaxRequestBody), into)
}

// decodeJSON is decode's encoding/json path over an already limited reader.
func decodeJSON(body io.Reader, into any) *apiError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return errorf(http.StatusBadRequest, "parsing request: %v", err)
	}
	return nil
}

// writeJSON renders v deterministically: json.Marshal of a fixed struct
// shape plus a trailing newline. (Maps never appear in response types —
// their iteration order would break the byte contract.) It returns the
// bytes written, or nil when v does not encode and the answer is a 500.
func writeJSON(w http.ResponseWriter, status int, v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return nil
	}
	buf = append(buf, '\n')
	writeBody(w, status, buf)
	return buf
}

// writeBody writes an encoded JSON response, which ends in a newline. It is
// the one writer of encoded bodies: writeJSON's, a stored schedule body
// and an observe batch's, so none of them can drift from the others.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeResult maps a pipeline result (response value or *apiError) onto the
// wire. Every 503 carries a Retry-After header (DESIGN.md §10): the server
// only answers 503 for conditions that clear — overload, shutdown of this
// instance, a session slot freeing up — so clients are always told the
// rejection is retryable and roughly when.
func writeResult(w http.ResponseWriter, v any) {
	if e, ok := v.(*apiError); ok {
		if e.status == http.StatusServiceUnavailable {
			secs := e.retryAfter
			if secs <= 0 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeJSON(w, e.status, struct {
			Error string `json:"error"`
		}{e.msg})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// WriteError answers status with the server's error body, {"error":msg}
// and a newline, and Retry-After: 1 on a 503: the shape every error the
// server and the fleet router originate shares.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	writeResult(w, errorf(status, format, args...))
}

func (s *Server) handleSubmit(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.failpoint("handler.panic")
	var req SubmitRequest
	if e := decode(r, &req); e != nil {
		writeResult(w, e)
		return
	}
	cr, e := canonicalizeSubmit(&req, s.opts.Starts, s.opts.MaxTasks)
	if e != nil {
		writeResult(w, e)
		return
	}
	fp, e := cr.fingerprint()
	if e != nil {
		writeResult(w, e)
		return
	}
	body, repeat := s.remember(fp, cr)
	if body != nil {
		s.writeStored(w, body)
		return
	}
	s.serveSchedule(ctx, w, cr, fp, repeat)
}

func (s *Server) handleGet(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	cr, body := s.lookup(fp)
	switch {
	case body != nil:
		s.writeStored(w, body)
	case cr == nil:
		writeResult(w, errorf(http.StatusNotFound, "unknown fingerprint %q", fp))
	default:
		// Recompute through the same pipeline as submit: with the memo warm
		// it is a cache hit, after eviction or a restart a rebuild —
		// byte-identical either way, so GET returns exactly the bytes submit
		// did. A GET names a fingerprint a submit stored, so it is a repeat.
		s.serveSchedule(ctx, w, cr, fp, true)
	}
}

// serveSchedule answers a submit or GET of fingerprint fp through the
// pipeline. On a repeat it stores a non-degraded 200's bytes on fp's stored
// request, so every later submit and GET of fp is answered with them
// (writeStored). A one-shot submit stores nothing, so distinct sets cost no
// memory; a degraded response depends on the solve budget's timing, and an
// error is no schedule, so neither is stored.
func (s *Server) serveSchedule(ctx context.Context, w http.ResponseWriter, cr *canonicalRequest, fp string, repeat bool) {
	v := s.buildScheduleResponse(ctx, cr, fp)
	resp, ok := v.(*ScheduleResponse)
	if !ok || !repeat || resp.Degraded {
		writeResult(w, v)
		return
	}
	if body := writeJSON(w, http.StatusOK, resp); body != nil {
		s.storeBody(fp, body)
	}
}

// writeStored answers a repeat with its stored body: the pipeline's own
// bytes, written with no memo lookup, key hashing, baseline walk or
// encoding, and so with no solve spans either.
func (s *Server) writeStored(w http.ResponseWriter, body []byte) {
	s.m.storedHits.Inc()
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleCompare(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req CompareRequest
	if e := decode(r, &req); e != nil {
		writeResult(w, e)
		return
	}
	// A comparison always solves both objectives; an explicit "wcs" would
	// be accepted-but-ignored, so reject it rather than alias the ACS form.
	if req.Objective != "" && req.Objective != "acs" {
		writeResult(w, errorf(http.StatusUnprocessableEntity,
			"compare solves both objectives; omit the objective field (got %q)", req.Objective))
		return
	}
	cr, e := canonicalizeSubmit(&req.SubmitRequest, s.opts.Starts, s.opts.MaxTasks)
	if e != nil {
		writeResult(w, e)
		return
	}
	// Comparison simulates one processor's schedule pair; a partitioned
	// set has no single plan to simulate. Reject rather than silently
	// solving the single-core form of a multi-core request.
	if cr.cores > 1 {
		writeResult(w, errorf(http.StatusUnprocessableEntity,
			"compare is single-core; omit the cores field (got %d)", cr.cores))
		return
	}
	fp, e := cr.fingerprint()
	if e != nil {
		writeResult(w, e)
		return
	}
	h := req.Hyperperiods
	if h <= 0 {
		h = s.opts.SimHyperperiods
	}
	if h > MaxSimHyperperiods {
		writeResult(w, errorf(http.StatusUnprocessableEntity,
			"admission: hyperperiods must lie in [0, %d], got %d", MaxSimHyperperiods, h))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = stats.SeedFromString(fp)
	}
	writeResult(w, s.buildCompareResponse(ctx, cr, fp, h, seed))
}

// handleBlobPut is the peer-replication write door: a fleet peer pushing a
// replicated blob (session checkpoint or request record) stores it in this
// instance's local blob store. Deliberately outside the admission semaphore —
// replication must not be shed by client load — and outside the determinism
// contract (it is peer plumbing, not a client API). 404 when the instance is
// not fleet-configured.
func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	if s.opts.InternalBlobs == nil {
		writeResult(w, errorf(http.StatusNotFound, "not a fleet peer"))
		return
	}
	name := r.PathValue("name")
	if name == "" || len(name) > 256 {
		writeResult(w, errorf(http.StatusUnprocessableEntity, "bad blob name"))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		writeResult(w, errorf(http.StatusBadRequest, "reading blob: %v", err))
		return
	}
	if err := s.opts.InternalBlobs.PutBlob(name, data); err != nil {
		if errors.Is(err, store.ErrBadBlobName) {
			writeResult(w, errorf(http.StatusUnprocessableEntity, "bad blob name"))
			return
		}
		s.noteCheckpointErr(err)
		writeResult(w, errorf(http.StatusInternalServerError, "storing blob: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// handleBlobGet serves a locally-stored blob to a fleet peer (raw bytes, not
// JSON — the blob is the payload).
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	if s.opts.InternalBlobs == nil {
		writeResult(w, errorf(http.StatusNotFound, "not a fleet peer"))
		return
	}
	data, ok, err := s.opts.InternalBlobs.GetBlob(r.PathValue("name"))
	if errors.Is(err, store.ErrBadBlobName) {
		writeResult(w, errorf(http.StatusUnprocessableEntity, "bad blob name"))
		return
	}
	if err != nil {
		writeResult(w, errorf(http.StatusInternalServerError, "reading blob: %v", err))
		return
	}
	if !ok {
		writeResult(w, errorf(http.StatusNotFound, "no such blob"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.base.Err() != nil {
		writeResult(w, errorf(http.StatusServiceUnavailable, "shutting down"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}
