package fleet

import (
	"net/http"
	"strings"

	"repro/internal/server"
	"repro/internal/store"
)

// Options configures one fleet peer.
type Options struct {
	// Server configures the peer's server. Its Checkpoints is the peer's
	// own blob store (a fresh store.MemBlobs when nil): the server
	// checkpoints through a layer that replicates it to each key's ring
	// owners, and serves it to the other peers as InternalBlobs.
	Server server.Options
	// Self is this peer's name in Peers.
	Self string
	// Peers maps every peer's name, this one's included, to its base URL
	// ("http://host:port"). The ring is built from the names, so every peer
	// given the same table agrees on each key's owners.
	Peers map[string]string
	// Vnodes is the ring's virtual-node count per peer (default
	// DefaultVnodes).
	Vnodes int
	// Replicas is the ownership factor R (default 2): a key's requests are
	// served, and its blobs stored, by its first R ring owners.
	Replicas int
}

// Peer is one fleet member, as schedd -peers runs it: a server whose
// checkpoints replicate to each key's ring owners, and a router that sends
// every client request to its key's owner, this peer included. The routing
// and replication counters are series in the server's registry.
type Peer struct {
	// Server is the peer's own server: callers restore its sessions on it.
	Server *server.Server
	topo   *topology
	router *router
	repl   *replicatedBlobs
}

// NewPeer builds a fleet member. Its router fingerprints with the server's
// own Starts and MaxTasks, so a submit is routed by the content address the
// serving peer answers with.
func NewPeer(opts Options) *Peer {
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	names := make([]string, 0, len(opts.Peers))
	for name := range opts.Peers {
		names = append(names, name)
	}
	ring := NewRing(names, opts.Vnodes)
	topo := newTopology(opts.Peers)
	sopts := opts.Server
	local := sopts.Checkpoints
	if local == nil {
		local = store.NewMemBlobs()
	}
	repl := &replicatedBlobs{
		local: local, self: opts.Self, ring: ring, topo: topo,
		replicas: opts.Replicas, logf: sopts.Logf,
	}
	sopts.Checkpoints = repl
	sopts.InternalBlobs = local
	srv := server.New(sopts)
	topo.self, topo.local = opts.Self, srv.Handler()
	r := newRouter(ring, topo, opts.Replicas, sopts.Starts, sopts.MaxTasks)
	r.registerMetrics(srv.Metrics())
	repl.registerMetrics(srv.Metrics())
	return &Peer{Server: srv, topo: topo, router: r, repl: repl}
}

// ServeHTTP serves three kinds of request on the peer's own server: those
// another peer's router forwarded (forwardedHeader), peer replication
// (/v1/internal/) and metric scrapes, since each peer reports its own
// registry. The router routes the rest.
func (p *Peer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(forwardedHeader) != "" || strings.HasPrefix(r.URL.Path, "/v1/internal/") ||
		r.URL.Path == "/metrics" {
		p.topo.local.ServeHTTP(w, r)
		return
	}
	p.router.mux.ServeHTTP(w, r)
}

// Close cancels the server's in-flight solves and drops the idle
// connections to the other peers.
func (p *Peer) Close() {
	p.Server.Close()
	p.topo.client.CloseIdleConnections()
}
