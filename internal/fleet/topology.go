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

	client  *http.Client
	timeout time.Duration
}

type peerState struct {
	url     atomic.Value // string
	breaker *fault.Breaker
}

// TopologyOptions configures NewTopology. Zero values select defaults.
type TopologyOptions struct {
	// BreakerThreshold and BreakerCooldown parameterise each peer's circuit
	// breaker (fault.NewBreaker defaults: 5 failures, 5s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// PeerTimeout bounds every request to a peer (default 2s).
	PeerTimeout time.Duration
	// Client is the HTTP client used for all peer traffic (default: a
	// dedicated client, so Close can drop its idle connections).
	Client *http.Client
}

// NewTopology builds the peer table. urls maps peer name → base URL
// ("http://host:port"); peers absent from urls start unreachable until
// SetURL names them.
func NewTopology(urls map[string]string, opts TopologyOptions) *Topology {
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{}}
	}
	t := &Topology{
		peers:   make(map[string]*peerState, len(urls)),
		client:  client,
		timeout: opts.PeerTimeout,
	}
	for name, url := range urls {
		ps := &peerState{breaker: fault.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)}
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
		ps = &peerState{breaker: fault.NewBreaker(0, 0)}
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

// Close releases the topology's idle peer connections (only when the client
// was Topology-owned). Goroutine hygiene for leakcheck-guarded tests.
func (t *Topology) Close() {
	t.client.CloseIdleConnections()
}

// peerResult is one peer's complete HTTP answer.
type peerResult struct {
	status int
	body   []byte
	header http.Header
}

// do sends one request to the named peer under the topology timeout and
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
	ctx, cancel := context.WithTimeout(ctx, t.timeout)
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
