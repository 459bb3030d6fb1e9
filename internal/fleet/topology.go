package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
)

// topology is one peer's live view of the fleet: where each peer listens
// and how healthy it looks (one fault.Breaker per peer, shared by this
// peer's routed forwards and its replication pushes, so evidence from either
// path trips the other's traffic away from a dead peer). Its peer table is
// fixed at construction; only a peer's URL may change, as when a test
// revives a peer on a new address.
type topology struct {
	peers map[string]*peerState
	// client carries all peer traffic; Peer.Close drops its idle
	// connections.
	client *http.Client
	// self is this peer's name, and local its own server's handler, which
	// serves the requests this peer sends itself in process (NewPeer sets
	// both).
	self  string
	local http.Handler
}

type peerState struct {
	url     atomic.Value // string
	breaker *fault.Breaker
}

// peerTimeout bounds every request to a peer: the serving listener's
// WriteTimeout, because a long solve is legitimate, and a dead peer fails
// fast by refusing the connection.
var peerTimeout = server.HTTPServer(nil).WriteTimeout

// newTopology builds the peer table from urls, peer name → base URL
// ("http://host:port"); a peer with an empty URL is unreachable. Each peer
// gets its own fault.Breaker.
func newTopology(urls map[string]string) *topology {
	t := &topology{
		peers:  make(map[string]*peerState, len(urls)),
		client: &http.Client{Transport: &http.Transport{}},
	}
	for name, url := range urls {
		ps := &peerState{breaker: fault.NewBreaker()}
		ps.url.Store(url)
		t.peers[name] = ps
	}
	return t
}

// breaker returns the named peer's circuit breaker.
func (t *topology) breaker(name string) *fault.Breaker { return t.peers[name].breaker }

// peerResult is one peer's complete HTTP answer.
type peerResult struct {
	status int
	body   []byte
	header http.Header
}

// forwardedHeader marks a request a peer's router has already routed: the
// receiving peer serves it on its own server instead of routing it again
// (Peer.ServeHTTP), so a request makes at most one fleet hop.
const forwardedHeader = "X-Fleet-Forwarded"

// do sends one request to the named peer under peerTimeout, marked with
// forwardedHeader, and records the transport outcome on its breaker (an
// HTTP answer of any status is breaker success — the peer is alive; only
// transport-level failures are evidence of death). Callers must have
// checked Allow. traceID, when non-empty, rides along as the X-Trace-Id
// header so a request keeps one identity across every hop of the fleet
// (purely observational — peers never read it into any response byte).
// A request to this peer itself is served by its own server's handler into
// an in-memory answer, with no connection dialed.
func (t *topology) do(ctx context.Context, name, method, path string, body []byte, traceID string) (*peerResult, error) {
	ps := t.peers[name]
	base, _ := ps.url.Load().(string)
	ctx, cancel := context.WithTimeout(ctx, peerTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(forwardedHeader, "1")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	if name == t.self {
		a := &answer{header: make(http.Header)}
		t.local.ServeHTTP(a, req)
		ps.breaker.Record(nil)
		if a.status == 0 {
			a.status = http.StatusOK
		}
		return &peerResult{status: a.status, body: a.body.Bytes(), header: a.header}, nil
	}
	resp, err := t.client.Do(req)
	if err != nil {
		ps.breaker.Record(err)
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		ps.breaker.Record(err)
		return nil, err
	}
	ps.breaker.Record(nil)
	return &peerResult{status: resp.StatusCode, body: b, header: resp.Header}, nil
}

// answer is an in-memory http.ResponseWriter: the answer a peer's server
// gives a request the peer sends itself.
type answer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (a *answer) Header() http.Header { return a.header }

func (a *answer) WriteHeader(status int) {
	if a.status == 0 {
		a.status = status
	}
}

func (a *answer) Write(p []byte) (int, error) {
	a.WriteHeader(http.StatusOK)
	return a.body.Write(p)
}
