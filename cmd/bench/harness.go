package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

// node is one in-process server listening on a loopback port.
type node struct {
	srv      *server.Server
	hs       *http.Server
	disk     *store.Disk
	base     string
	restored int
	served   chan struct{} // closed once hs.Serve has returned
}

// boot starts a server with default options. A non-empty dir backs it with
// a tiered memory-over-disk store and checkpoint blobs in that directory
// (fsync off, the store's default), and restores any sessions checkpointed
// there before serving.
func boot(dir string) (*node, error) {
	n := &node{served: make(chan struct{})}
	var opts server.Options
	if dir != "" {
		d, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, err
		}
		n.disk = d
		tiered := store.NewTiered(grid.NewMemStore(256<<20), d) // the server's default memo cap
		opts.Store, opts.Checkpoints = tiered, tiered
	}
	n.srv = server.New(opts)
	if dir != "" {
		restored, err := n.srv.RestoreSessions(context.Background())
		if err != nil {
			n.close()
			return nil, fmt.Errorf("restoring sessions: %w", err)
		}
		n.restored = restored
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.base = "http://" + ln.Addr().String()
	n.hs = &http.Server{
		Handler:           n.srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(n.served)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// stop shuts the listener, waits for the serve loop and open connections,
// cancels in-flight solves and closes the disk store.
func (n *node) stop() error {
	err := n.hs.Shutdown(context.Background())
	<-n.served
	if cerr := n.close(); err == nil {
		err = cerr
	}
	return err
}

func (n *node) close() error {
	n.srv.Close()
	if n.disk != nil {
		return n.disk.Close()
	}
	return nil
}

// Endpoints whose requests the server counts in schedd_requests_total.
const (
	epSubmit = iota
	epGet
	epCompare
	epSessionCreate
	epObserve
	nEndpoints
)

var endpointLabels = [nEndpoints]string{"submit", "get", "compare", "session_create", "observe"}

// endpointOf classifies a request the way the server's handlers count it;
// -1 for requests the server does not count.
func endpointOf(method, path string) int {
	switch {
	case method == http.MethodPost && path == "/v1/schedules":
		return epSubmit
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/schedules/"):
		return epGet
	case method == http.MethodPost && path == "/v1/compare":
		return epCompare
	case method == http.MethodPost && path == "/v1/sessions":
		return epSessionCreate
	case method == http.MethodPost && strings.HasPrefix(path, "/v1/sessions/") && strings.HasSuffix(path, "/observe"):
		return epObserve
	}
	return -1
}

// caller is the benchmark's client for one node: keep-alive connections,
// the shared retry policy for 503s, and a count of every request put on the
// wire per endpoint — first attempts and retries alike — which the server's
// own request counters must match exactly.
type caller struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	rc   *retry.HTTPClient

	wire           [nEndpoints]atomic.Int64
	retries, sheds atomic.Int64
}

func newCaller(base string, conns int) *caller {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil // loopback only
	tr.MaxIdleConnsPerHost = conns
	c := &caller{base: base, tr: tr}
	c.hc = &http.Client{Timeout: 2 * time.Minute, Transport: countingTransport{tr, c}}
	c.rc = &retry.HTTPClient{Client: c.hc, Policy: retry.Policy{MaxAttempts: 5, Base: 5 * time.Millisecond}}
	return c
}

type countingTransport struct {
	base http.RoundTripper
	c    *caller
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if e := endpointOf(r.Method, r.URL.Path); e >= 0 {
		t.c.wire[e].Add(1)
	}
	return t.base.RoundTrip(r)
}

// post sends body with retries on 503 and transport failures; rng supplies
// the backoff jitter and belongs to the calling goroutine.
func (c *caller) post(path string, body []byte, rng *stats.RNG) (int, []byte, error) {
	res, err := c.rc.Post(context.Background(), c.base+path, "application/json", body, rng)
	if res != nil {
		c.retries.Add(res.Retries)
		c.sheds.Add(res.Sheds)
	}
	if err != nil {
		return 0, nil, err
	}
	return res.Status, res.Body, nil
}

func (c *caller) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape fetches /metrics and parses it strictly.
func (c *caller) scrape() (scrape, error) {
	code, b, err := c.get("/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", code)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return scrape(fams), nil
}

// checkRequestCounts compares the server's schedd_requests_total{endpoint}
// against what this caller put on the wire.
func (c *caller) checkRequestCounts(s scrape) error {
	var bad []string
	for e, label := range endpointLabels {
		got := s.value("schedd_requests_total", obs.L("endpoint", label))
		if want := c.wire[e].Load(); got != float64(want) {
			bad = append(bad, fmt.Sprintf("%s: server %g, client %d", label, got, want))
		}
	}
	if len(bad) > 0 {
		return errors.New("schedd_requests_total disagrees with requests sent: " + strings.Join(bad, "; "))
	}
	return nil
}

func (c *caller) close() { c.tr.CloseIdleConnections() }

// scrape is one parsed /metrics exposition.
type scrape []obs.Family

// value returns a sample's value, 0 when absent.
func (s scrape) value(name string, labels ...obs.Label) float64 {
	v, _ := obs.SampleValue(s, name, labels...)
	return v
}

// fire runs a closed loop: each of clients goroutines takes its next op
// index from next and runs do on it, until next reports none are left. It
// returns the wall time from the first op to the last reply.
func fire(clients int, next func(client int) (int, bool), do func(client, op int)) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := next(c)
				if !ok {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// shared hands out op indices [0, n) in order to whichever client asks.
func shared(n int) func(int) (int, bool) {
	var next atomic.Int64
	return func(int) (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
}
