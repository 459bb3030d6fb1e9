package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Topology is the live view of the fleet's peers: where each one currently
// listens (URLs are swappable — a restarted peer comes back on a new port)
// and how healthy it looks (one fault.Breaker per peer, shared by the
// router's forwards and ReplicatedBlobs' pushes, so evidence from either
// path trips the other's traffic away from a dead peer).
type Topology struct {
	mu    sync.Mutex
	peers map[string]*peerState

	// client carries all peer traffic; the Topology owns it, so Close can
	// drop its idle connections.
	client *http.Client
}

type peerState struct {
	url     atomic.Value // string
	breaker *fault.Breaker
}

// peerTimeout bounds every request to a peer. It matches the serving
// layer's WriteTimeout: a long solve is legitimate, and a dead peer fails
// fast by refusing the connection.
const peerTimeout = 2 * time.Minute

// NewTopology builds the peer table. urls maps peer name → base URL
// ("http://host:port"); peers absent from urls start unreachable until
// SetURL names them. Each peer gets its own fault.Breaker.
func NewTopology(urls map[string]string) *Topology {
	t := &Topology{
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

// SetURL repoints a peer — the restart path: a revived peer listens on a new
// address, and traffic follows without rebuilding the ring.
func (t *Topology) SetURL(name, url string) {
	t.mu.Lock()
	ps := t.peers[name]
	if ps == nil {
		ps = &peerState{breaker: fault.NewBreaker()}
		t.peers[name] = ps
	}
	t.mu.Unlock()
	ps.url.Store(url)
}

// Breaker returns the peer's circuit breaker (nil for unknown peers).
func (t *Topology) Breaker(name string) *fault.Breaker {
	if ps := t.peer(name); ps != nil {
		return ps.breaker
	}
	return nil
}

func (t *Topology) peer(name string) *peerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[name]
}

// Close releases the topology's idle peer connections. Goroutine hygiene for
// leakcheck-guarded tests.
func (t *Topology) Close() {
	t.client.CloseIdleConnections()
}

// peerResult is one peer's complete HTTP answer.
type peerResult struct {
	status int
	body   []byte
	header http.Header
}

// do sends one request to the named peer under peerTimeout and
// records the transport outcome on its breaker (an HTTP answer of any status
// is breaker success — the peer is alive; only transport-level failures are
// evidence of death). Callers must have checked Allow.
// do forwards one request to a peer. traceID, when non-empty, rides along
// as the X-Trace-Id header so a request keeps one identity across every
// hop of the fleet (purely observational — peers never read it into any
// response byte).
func (t *Topology) do(ctx context.Context, name, method, path string, body []byte, traceID string) (*peerResult, error) {
	ps := t.peer(name)
	if ps == nil {
		return nil, fmt.Errorf("fleet: unknown peer %q", name)
	}
	base, _ := ps.url.Load().(string)
	if base == "" {
		err := fmt.Errorf("fleet: peer %q has no address", name)
		ps.breaker.Record(err)
		return nil, err
	}
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
	// Marks the request as already routed: a peer in -fleet mode serves it
	// locally instead of re-forwarding (loop prevention).
	req.Header.Set("X-Fleet-Forwarded", "1")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
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
