package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/stats"
)

// Router is the fleet front end: an http.Handler that maps each request to
// its ring key (schedule fingerprint or session id), forwards it to the
// key's owner, and walks the replicas on failure — breaker-gated, with
// seeded-jitter retry passes between full walks and hedged reads for
// content-addressed GETs. It serves the same API surface as one schedd, so
// clients cannot tell a fleet from a node; its per-peer routing counters
// are metric series (RegisterMetrics).
//
// Determinism: the router never builds a response body of its own except
// the fleet-originated 503 (every replica dead or shedding) — everything
// else is a peer's bytes relayed verbatim, and every peer answers every
// request identically, so routing choices are invisible in response bytes.
type Router struct {
	opts   Options
	ring   *Ring
	topo   *Topology
	policy retry.Policy
	mux    *http.ServeMux

	rngMu sync.Mutex
	rng   *stats.RNG

	sessionSeq atomic.Int64
	fleet503s  atomic.Int64
	counters   map[string]*peerCounters
}

type peerCounters struct {
	forwards, hedges, failovers, takeovers, errors atomic.Int64
}

// Options configures a Router. Ring and Topology are required and are
// typically shared with each peer's ReplicatedBlobs, so routing and
// replication agree on ownership and on peer health.
type Options struct {
	Ring     *Ring
	Topology *Topology
	// Replicas is the ownership factor R (default 2): a request may be
	// served by any of its key's first R ring owners.
	Replicas int
	// HedgeDelay is how long a hedged read waits on the owner before also
	// asking the next replica (default 50ms).
	HedgeDelay time.Duration
	// Retry paces the passes over the replica set when every member failed
	// or shed (retry.Policy zero-value defaults); its jitter stream is
	// seeded with 0.
	Retry retry.Policy
	// Starts and MaxTasks are the fingerprint defaults and MUST match the
	// peers' server Options — routing keys on the same canonicalization the
	// peers fingerprint with.
	Starts   int
	MaxTasks int
	// Sleep is the between-pass pause hook (nil = time.Sleep); tests swap
	// it to keep chaos runs fast.
	Sleep func(time.Duration)
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// NewRouter builds the front end over an existing ring and topology.
func NewRouter(opts Options) *Router {
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.HedgeDelay <= 0 {
		opts.HedgeDelay = 50 * time.Millisecond
	}
	r := &Router{
		opts:     opts,
		ring:     opts.Ring,
		topo:     opts.Topology,
		policy:   opts.Retry,
		rng:      stats.NewRNG(0),
		counters: make(map[string]*peerCounters),
	}
	for _, name := range opts.Ring.Peers() {
		r.counters[name] = &peerCounters{}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedules", r.handleSubmit)
	mux.HandleFunc("GET /v1/schedules/{fp}", r.handleScheduleGet)
	mux.HandleFunc("POST /v1/compare", r.handleSubmit) // same key derivation
	mux.HandleFunc("POST /v1/sessions", r.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/observe", r.handleSessionPath)
	mux.HandleFunc("GET /v1/sessions/{id}", r.handleSessionPath)
	mux.HandleFunc("GET /v1/healthz", r.handleHealthz)
	r.mux = mux
	return r
}

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Close drops the topology's idle peer connections. Call when done with a
// router whose topology is not otherwise owned.
func (r *Router) Close() { r.topo.Close() }

func (r *Router) sleep(d time.Duration) {
	if r.opts.Sleep != nil {
		r.opts.Sleep(d)
		return
	}
	time.Sleep(d)
}

// readBody drains the request body under the same cap the peers decode with.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 4<<20))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err), 0)
		return nil, false
	}
	return body, true
}

// handleSubmit routes POST /v1/schedules and /v1/compare by the canonical
// fingerprint — the same content address the serving peer will answer with —
// so repeat submissions of one task set land on the peers that hold its
// solve and its replicated record. Bodies that do not canonicalize draw the
// same deterministic 4xx from every peer; they are keyed by a raw-body hash
// just to pick one.
func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	key := "raw-" + strconv.FormatUint(hash64(string(body)), 16)
	var sr server.SubmitRequest
	// Lenient decode for keying only — the peer's strict decode is the
	// arbiter of validity, and invalid bodies answer identically everywhere.
	if json.Unmarshal(body, &sr) == nil {
		if fp, fok := server.SubmitFingerprint(&sr, r.opts.Starts, r.opts.MaxTasks); fok {
			key = fp
		}
	}
	r.route(w, req, key, req.URL.Path, body, false, false)
}

func (r *Router) handleScheduleGet(w http.ResponseWriter, req *http.Request) {
	fp := req.PathValue("fp")
	r.route(w, req, fp, "/v1/schedules/"+fp, nil, true, false)
}

// handleSessionCreate fixes the session's identity before any peer sees the
// request: a body without a session_id gets one injected (router allocation
// order, "f1", "f2", …), because the id is the ring key — it must exist
// prior to routing, and it must not depend on which peer serves the create.
func (r *Router) handleSessionCreate(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	key := "raw-" + strconv.FormatUint(hash64(string(body)), 16)
	var sr server.SessionRequest
	if json.Unmarshal(body, &sr) == nil && len(sr.Tasks) > 0 {
		if sr.SessionID == "" {
			sr.SessionID = fmt.Sprintf("f%d", r.sessionSeq.Add(1))
			rewritten, err := json.Marshal(&sr)
			if err == nil {
				body = rewritten
			}
		}
		key = sr.SessionID
	}
	r.route(w, req, key, "/v1/sessions", body, false, true)
}

func (r *Router) handleSessionPath(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	path := "/v1/sessions/" + id
	var body []byte
	if req.Method == http.MethodPost {
		path += "/observe"
		var ok bool
		if body, ok = readBody(w, req); !ok {
			return
		}
	}
	r.route(w, req, id, path, body, false, true)
}

// route is the forwarding engine: walk the key's replica set in ownership
// order (or hedged, for immutable reads), retry whole passes under the
// seeded backoff policy when every member failed or shed, and relay the
// winning peer's bytes verbatim. session marks the session-stateful paths,
// whose non-owner serves count as takeovers rather than failovers.
func (r *Router) route(w http.ResponseWriter, req *http.Request, key, path string, body []byte, hedge, session bool) {
	// One trace identity per request, fixed before the first hop: honour a
	// caller-supplied X-Trace-Id, mint one otherwise, echo it, and forward
	// it with every peer attempt — owner, hedge, and failover alike — so a
	// request's whole fleet journey shares one id.
	tid := req.Header.Get(obs.TraceHeader)
	if tid == "" {
		tid = obs.NewTraceID()
	}
	w.Header().Set(obs.TraceHeader, tid)
	owners := r.ring.Owners(key, r.opts.Replicas)
	if len(owners) == 0 {
		writeJSONError(w, http.StatusServiceUnavailable, "fleet: no peers configured", r.retryAfterSecs())
		r.fleet503s.Add(1)
		return
	}
	ctx := req.Context()
	p := r.policy
	maxPasses := p.MaxAttempts
	if maxPasses <= 0 {
		maxPasses = 5
	}
	var last *peerResult
	var retryAfter time.Duration
	for pass := 1; ; pass++ {
		var res *peerResult
		var idx int
		if hedge {
			res, idx = r.tryHedged(ctx, owners, req.Method, path, body, tid)
		} else {
			res, idx = r.trySequential(ctx, owners, req.Method, path, body, tid)
		}
		if res != nil && res.status != http.StatusServiceUnavailable {
			r.noteServed(owners[idx], idx, session)
			writePeerResult(w, res)
			return
		}
		if res != nil {
			last = res
			if secs, err := strconv.Atoi(res.header.Get("Retry-After")); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		if pass >= maxPasses || ctx.Err() != nil {
			break
		}
		r.rngMu.Lock()
		d := p.Delay(pass, retryAfter, r.rng)
		r.rngMu.Unlock()
		r.sleep(d)
	}
	if last != nil {
		// Every replica shed: relay the last 503 (its Retry-After rides
		// along — writePeerResult preserves it, defaulting if absent).
		writePeerResult(w, last)
		return
	}
	// Fleet-originated 503: every replica dead or breaker-tripped. Carries
	// Retry-After like every other 503 in the system — breakers half-open
	// after their cooldown, so the condition clears.
	r.fleet503s.Add(1)
	writeJSONError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("fleet: no replica of %d reachable for this key", len(owners)), r.retryAfterSecs())
}

// trySequential walks the replica set in ownership order: first healthy
// peer with a non-503 answer wins. 503s are remembered (the last one is
// relayed if the whole pass fails); transport errors feed the breaker via
// Topology.do and move on.
func (r *Router) trySequential(ctx context.Context, owners []string, method, path string, body []byte, traceID string) (*peerResult, int) {
	var last *peerResult
	lastIdx := -1
	for i, peer := range owners {
		br := r.topo.Breaker(peer)
		if br == nil || !br.Allow() {
			continue
		}
		res, err := r.topo.do(ctx, peer, method, path, body, traceID)
		if err != nil {
			r.counters[peer].errors.Add(1)
			continue
		}
		if res.status == http.StatusServiceUnavailable {
			last, lastIdx = res, i
			continue
		}
		return res, i
	}
	return last, lastIdx
}

// tryHedged races the replica set for an immutable read: the owner is asked
// first, and each HedgeDelay without an answer (or any failed answer) adds
// the next replica to the race. First non-503 answer wins; stragglers are
// canceled. The results channel is buffered to the launch count and every
// goroutine's only blocking op is the breaker-recorded HTTP call under the
// canceled-on-return context, so no goroutine outlives the call
// (leakcheck-pinned by TestHedgedReadNoLeak).
func (r *Router) tryHedged(ctx context.Context, owners []string, method, path string, body []byte, traceID string) (*peerResult, int) {
	allowed := make([]int, 0, len(owners))
	for i, peer := range owners {
		if br := r.topo.Breaker(peer); br != nil && br.Allow() {
			allowed = append(allowed, i)
		}
	}
	if len(allowed) == 0 {
		return nil, -1
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type hedgeResult struct {
		res *peerResult
		err error
		idx int
	}
	results := make(chan hedgeResult, len(allowed))
	launched, pending := 0, 0
	launch := func() {
		idx := allowed[launched]
		if launched > 0 {
			r.counters[owners[idx]].hedges.Add(1)
		}
		launched++
		pending++
		go func() {
			res, err := r.topo.do(hctx, owners[idx], method, path, body, traceID)
			results <- hedgeResult{res, err, idx}
		}()
	}
	launch()
	timer := time.NewTimer(r.opts.HedgeDelay)
	defer timer.Stop()
	var last *peerResult
	lastIdx := -1
	for {
		if pending == 0 {
			if launched == len(allowed) {
				return last, lastIdx
			}
			launch() // everything in flight resolved badly: hedge immediately
		}
		select {
		case h := <-results:
			pending--
			if h.err != nil {
				r.counters[owners[h.idx]].errors.Add(1)
			} else if h.res.status == http.StatusServiceUnavailable {
				last, lastIdx = h.res, h.idx
			} else {
				return h.res, h.idx
			}
		case <-timer.C:
			if launched < len(allowed) {
				launch()
				timer.Reset(r.opts.HedgeDelay)
			}
		case <-ctx.Done():
			return last, lastIdx
		}
	}
}

// noteServed books a successful forward: a non-owner serve is a failover
// (or, on the session-stateful paths, a takeover — a replica answering for
// a session it did not create).
func (r *Router) noteServed(peer string, idx int, session bool) {
	c := r.counters[peer]
	c.forwards.Add(1)
	if idx > 0 {
		if session {
			c.takeovers.Add(1)
		} else {
			c.failovers.Add(1)
		}
	}
}

// retryAfterSecs is the Retry-After for fleet-originated 503s. The
// condition clears when a breaker half-opens or a peer revives, so 1s — the
// system-wide 503 default — is the honest hint.
func (r *Router) retryAfterSecs() int {
	return 1
}

// writePeerResult relays a peer's answer verbatim: status, body bytes, and
// the headers the contract cares about. A relayed 503 always carries
// Retry-After, even if the peer's somehow did not.
func writePeerResult(w http.ResponseWriter, res *peerResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if res.status == http.StatusServiceUnavailable {
		ra := res.header.Get("Retry-After")
		if ra == "" {
			ra = "1"
		}
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// writeJSONError is the router's own error shape — the same {"error": ...}
// the peers emit, so clients parse one shape everywhere.
func writeJSONError(w http.ResponseWriter, status int, msg string, retryAfterSecs int) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		if retryAfterSecs <= 0 {
			retryAfterSecs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	}
	w.WriteHeader(status)
	buf, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(buf, '\n'))
}

// RegisterMetrics bridges the router's routing counters into a metric
// registry (typically the co-located server's, so one /metrics scrape
// covers both the solver and the fleet front end) as scrape-time reads of
// the router's atomics and each peer's breaker.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("schedd_fleet_503s_total", "Fleet-originated 503s (every replica dead or shedding).", r.fleet503s.Load)
	for _, name := range r.ring.Peers() {
		c := r.counters[name]
		peer := obs.L("peer", name)
		reg.CounterFunc("schedd_fleet_forwards_total", "Requests served by this peer.", c.forwards.Load, peer)
		reg.CounterFunc("schedd_fleet_hedges_total", "Hedged reads launched at this peer.", c.hedges.Load, peer)
		reg.CounterFunc("schedd_fleet_failovers_total", "Non-owner serves by this peer (stateless paths).", c.failovers.Load, peer)
		reg.CounterFunc("schedd_fleet_takeovers_total", "Non-owner serves on session paths (replica continuing a dead owner's stream).", c.takeovers.Load, peer)
		reg.CounterFunc("schedd_fleet_errors_total", "Transport-level failures talking to this peer.", c.errors.Load, peer)
		br := r.topo.Breaker(name)
		reg.GaugeFunc("schedd_fleet_peer_state", "Peer circuit-breaker position: 0 closed, 1 open, 2 half-open.", func() float64 {
			return float64(br.State())
		}, peer)
		reg.CounterFunc("schedd_fleet_peer_trips_total", "Peer circuit-breaker open transitions.", br.Trips, peer)
		reg.CounterFunc("schedd_fleet_peer_recloses_total", "Peer circuit-breaker completed recoveries.", br.Recloses, peer)
	}
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}
