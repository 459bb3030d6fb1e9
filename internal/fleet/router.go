package fleet

import (
	"bytes"
	"context"
	"encoding/json"
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

// router is a peer's routing half: its mux maps each client request to
// its ring key (schedule fingerprint or session id), forwards it to the
// key's owner, and walks the replicas on failure — breaker-gated, with
// seeded-jitter retry passes between full walks and hedged reads for
// content-addressed GETs. It serves the same API surface as one schedd, so
// clients cannot tell a fleet from a node; its per-peer routing counters
// are series in the peer's registry.
//
// Determinism: the router never builds a response body of its own except
// the fleet-originated 503 (every replica dead or shedding) — everything
// else is a peer's bytes relayed verbatim, and every peer answers every
// request identically, so routing choices are invisible in response bytes.
type router struct {
	ring     *Ring
	topo     *topology
	replicas int
	// starts and maxTasks are the peer's server defaults, so the router
	// keys a submit by the fingerprint the serving peer answers with.
	starts, maxTasks int
	mux              *http.ServeMux

	// hedgeWait is hedgeDelay and sleep is time.Sleep; tests shorten the
	// one and skip the other.
	hedgeWait time.Duration
	sleep     func(time.Duration)

	rngMu sync.Mutex
	rng   *stats.RNG

	fleet503s atomic.Int64
	counters  map[string]*peerCounters
}

type peerCounters struct {
	forwards, hedges, failovers, takeovers, errors atomic.Int64
}

// hedgeDelay is how long a hedged read waits on the owner before also
// asking the next replica.
const hedgeDelay = 50 * time.Millisecond

// routeRetry paces the passes over a key's replica set when every member
// failed or shed: the retry package's default schedule, its jitter stream
// seeded with 0.
var routeRetry = retry.Policy{MaxAttempts: 5, Base: 5 * time.Millisecond, Max: 2 * time.Second}

func newRouter(ring *Ring, topo *topology, replicas, starts, maxTasks int) *router {
	r := &router{
		ring:      ring,
		topo:      topo,
		replicas:  replicas,
		starts:    starts,
		maxTasks:  maxTasks,
		hedgeWait: hedgeDelay,
		sleep:     time.Sleep,
		rng:       stats.NewRNG(0),
		counters:  make(map[string]*peerCounters),
	}
	for _, name := range ring.Peers() {
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

// readBody drains the request body under the same cap the peers decode with.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, server.MaxRequestBody))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "reading request: %v", err)
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
func (r *router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	key := "raw-" + strconv.FormatUint(hash64(string(body)), 16)
	var sr server.SubmitRequest
	// Lenient decode for keying only — the peer's strict decode is the
	// arbiter of validity, and invalid bodies answer identically everywhere.
	if json.Unmarshal(body, &sr) == nil {
		if fp, fok := server.SubmitFingerprint(&sr, r.starts, r.maxTasks); fok {
			key = fp
		}
	}
	r.route(w, req, key, req.URL.Path, body, false, false)
}

func (r *router) handleScheduleGet(w http.ResponseWriter, req *http.Request) {
	fp := req.PathValue("fp")
	r.route(w, req, fp, "/v1/schedules/"+fp, nil, true, false)
}

// handleSessionCreate fixes the session's identity before any peer sees the
// request: a body without a session_id gets one injected, because the id is
// the ring key — it must exist prior to routing, and it must not depend on
// which peer serves the create. The injected id is "f" and a trace id
// (obs.NewTraceID: a random per-process base, a dash and a sequence
// number), so ids injected by different entry peers, or by one peer before
// and after a restart, never meet on a replica that holds another
// session's checkpoint under the same id.
// The body is decoded as strictly as a peer decodes it: re-marshalling drops
// unknown fields, so a body a peer would refuse is forwarded unchanged
// under its raw-body hash, and the owner answers its own 400.
func (r *router) handleSessionCreate(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	key := "raw-" + strconv.FormatUint(hash64(string(body)), 16)
	var sr server.SessionRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&sr) == nil && len(sr.Tasks) > 0 {
		if sr.SessionID == "" {
			sr.SessionID = "f" + obs.NewTraceID()
			rewritten, err := json.Marshal(&sr)
			if err == nil {
				body = rewritten
			}
		}
		key = sr.SessionID
	}
	r.route(w, req, key, "/v1/sessions", body, false, true)
}

func (r *router) handleSessionPath(w http.ResponseWriter, req *http.Request) {
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
func (r *router) route(w http.ResponseWriter, req *http.Request, key, path string, body []byte, hedge, session bool) {
	// One trace identity per request, fixed before the first hop: honour a
	// caller-supplied X-Trace-Id, mint one otherwise, echo it, and forward
	// it with every peer attempt — owner, hedge, and failover alike — so a
	// request's whole fleet journey shares one id.
	tid := req.Header.Get(obs.TraceHeader)
	if tid == "" {
		tid = obs.NewTraceID()
	}
	w.Header().Set(obs.TraceHeader, tid)
	owners := r.ring.Owners(key, r.replicas)
	if len(owners) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "fleet: no peers configured")
		r.fleet503s.Add(1)
		return
	}
	ctx := req.Context()
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
		if pass >= routeRetry.MaxAttempts || ctx.Err() != nil {
			break
		}
		r.rngMu.Lock()
		d := routeRetry.Delay(pass, retryAfter, r.rng)
		r.rngMu.Unlock()
		r.sleep(d)
	}
	if last != nil {
		// Every replica shed: relay the last 503 (its Retry-After rides
		// along — writePeerResult preserves it, defaulting if absent).
		writePeerResult(w, last)
		return
	}
	// Fleet-originated 503: every replica dead or breaker-tripped. It
	// carries Retry-After: 1 like every other 503 in the system — breakers
	// half-open after their cooldown, so the condition clears.
	r.fleet503s.Add(1)
	server.WriteError(w, http.StatusServiceUnavailable,
		"fleet: no replica of %d reachable for this key", len(owners))
}

// trySequential walks the replica set in ownership order: first healthy
// peer with a non-503 answer wins. 503s are remembered (the last one is
// relayed if the whole pass fails); transport errors feed the breaker via
// topology.do and move on.
func (r *router) trySequential(ctx context.Context, owners []string, method, path string, body []byte, traceID string) (*peerResult, int) {
	var last *peerResult
	lastIdx := -1
	for i, peer := range owners {
		if !r.topo.breaker(peer).Allow() {
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
// first, and each hedgeDelay without an answer (or any failed answer) adds
// the next replica to the race. First non-503 answer wins; stragglers are
// canceled. The results channel is buffered to the launch count and every
// goroutine's only blocking op is the breaker-recorded HTTP call under the
// canceled-on-return context, so no goroutine outlives the call
// (leakcheck-pinned by TestHedgedReadNoLeak).
func (r *router) tryHedged(ctx context.Context, owners []string, method, path string, body []byte, traceID string) (*peerResult, int) {
	allowed := make([]int, 0, len(owners))
	for i, peer := range owners {
		if r.topo.breaker(peer).Allow() {
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
	timer := time.NewTimer(r.hedgeWait)
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
				timer.Reset(r.hedgeWait)
			}
		case <-ctx.Done():
			return last, lastIdx
		}
	}
}

// noteServed books a successful forward: a non-owner serve is a failover
// (or, on the session-stateful paths, a takeover — a replica answering for
// a session it did not create).
func (r *router) noteServed(peer string, idx int, session bool) {
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

// registerMetrics bridges the router's routing counters into the peer's
// registry, so one /metrics scrape covers both the server and its routing,
// as scrape-time reads of the router's atomics and each peer's breaker.
func (r *router) registerMetrics(reg *obs.Registry) {
	reg.CounterFunc("schedd_fleet_503s_total", "Fleet-originated 503s (every replica dead or shedding).", r.fleet503s.Load)
	for _, name := range r.ring.Peers() {
		c := r.counters[name]
		peer := obs.L("peer", name)
		reg.CounterFunc("schedd_fleet_forwards_total", "Requests served by this peer.", c.forwards.Load, peer)
		reg.CounterFunc("schedd_fleet_hedges_total", "Hedged reads launched at this peer.", c.hedges.Load, peer)
		reg.CounterFunc("schedd_fleet_failovers_total", "Non-owner serves by this peer (stateless paths).", c.failovers.Load, peer)
		reg.CounterFunc("schedd_fleet_takeovers_total", "Non-owner serves on session paths (replica continuing a dead owner's stream).", c.takeovers.Load, peer)
		reg.CounterFunc("schedd_fleet_errors_total", "Transport-level failures talking to this peer.", c.errors.Load, peer)
		br := r.topo.breaker(name)
		reg.GaugeFunc("schedd_fleet_peer_state", "Peer circuit-breaker position: 0 closed, 1 open, 2 half-open.", func() float64 {
			return float64(br.State())
		}, peer)
		reg.CounterFunc("schedd_fleet_peer_trips_total", "Peer circuit-breaker open transitions.", br.Trips, peer)
		reg.CounterFunc("schedd_fleet_peer_recloses_total", "Peer circuit-breaker completed recoveries.", br.Recloses, peer)
	}
}

func (r *router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}
