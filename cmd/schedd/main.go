// Command schedd is the scheduling daemon: it serves the offline ACS/WCS
// synthesis pipeline as a long-running HTTP/JSON service (internal/server,
// DESIGN.md §7).
//
// Usage:
//
//	schedd -addr :8372
//	schedd -addr :8372 -cachemb 64 -inflight 64 -starts 4
//	schedd -addr :8371 -peers "p0=http://h0:8371,p1=http://h1:8371" -self p0
//
// With -peers/-self the daemon joins a fleet as a fleet.Peer (internal/fleet,
// DESIGN.md §11): requests arriving from clients are routed to the key's
// owner (possibly itself, or a replica on failure), requests already routed
// by a peer are served locally, and session checkpoints and schedule records
// replicate to the key's R ring owners so any replica can take over a dead
// owner's sessions. A client may enter the fleet through any peer.
//
// Endpoints:
//
//	POST /v1/schedules              submit a task set → admission, synthesis,
//	                                schedule + predicted energy
//	GET  /v1/schedules/{fp}         re-fetch a submitted schedule by fingerprint
//	POST /v1/compare                simulated ACS-vs-WCS comparison
//	POST /v1/sessions               open a feedback session: streaming
//	                                estimators + drift detection + adaptive
//	                                re-solving (internal/feedback, DESIGN.md §8)
//	POST /v1/sessions/{id}/observe  stream per-hyper-period execution
//	                                observations → "no change" or a re-solved
//	                                schedule with its fingerprint
//	GET  /v1/sessions/{id}          learned estimator and adaptation state
//	GET  /metrics                   Prometheus text exposition: every cache,
//	                                session and request counter, plus a
//	                                fleet peer's routing counters (DESIGN.md §13)
//	GET  /v1/healthz                liveness
//
// Responses to submit/get/compare are byte-deterministic per request body
// regardless of concurrency, worker count, or cache state; session
// schedule payloads are deterministic per (creation body, observation
// history); see DESIGN.md §7–§8 for the contracts and cmd/schedload for the
// matching load generator / throughput benchmark.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/trace"
)

func main() {
	cliutil.Exit("schedd", run(context.Background(), os.Args[1:], os.Stdout, nil))
}

// run parses flags, binds the listener, and serves until ctx is canceled.
// When ready is non-nil the bound address is sent to it once the listener is
// live (the hook the smoke test drives the daemon through).
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8372", "listen address")
		cacheMB     = fs.Int64("cachemb", 256, "memo cache cap in MiB: schedules and comparisons (LRU eviction; <0 = unbounded)")
		starts      = fs.Int("starts", 0, "default solver multi-start count (0/1 = single)")
		simReps     = fs.Int("hyperperiods", 200, "default hyper-periods per compare simulation")
		maxTasks    = fs.Int("maxtasks", 64, "admission limit on tasks per request")
		storeDir    = fs.String("store-dir", "", "persistent store directory: solved schedules, submitted requests and session checkpoints survive restarts (empty = memory only)")
		storeSync   = fs.Bool("store-sync", false, "fsync every schedule record and blob write (request bodies, session checkpoints)")
		inflight    = fs.Int("inflight", 256, "max concurrently admitted solving requests (overload beyond it queues, then sheds 503 + Retry-After)")
		queueWait   = fs.Duration("queuewait", 100*time.Millisecond, "how long an over-limit request may queue for a seat before being shed")
		solveBudget = fs.Duration("solvebudget", 0, "per-request ACS refinement budget; past it the request is answered with the WCS fallback marked degraded (0 = unlimited)")
		peersFlag   = fs.String("peers", "", "fleet mode: comma-separated name=url peer table for the whole fleet, this daemon included (e.g. \"p0=http://h0:8372,p1=http://h1:8372\")")
		selfFlag    = fs.String("self", "", "fleet mode: this daemon's name in -peers")
		replicas    = fs.Int("replicas", 2, "fleet mode: replication factor R — each key's records and checkpoints live on its first R ring owners")
		vnodes      = fs.Int("vnodes", fleet.DefaultVnodes, "fleet mode: consistent-hash virtual nodes per peer")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; off by default)")
		traceDir    = fs.String("trace-dir", "", "record each session's observation stream to DIR/<session>.trace (replayable with adaptsim -replay)")
	)
	if err := cliutil.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *starts > server.MaxStarts {
		return fmt.Errorf("-starts %d exceeds the limit of %d", *starts, server.MaxStarts)
	}
	if *simReps > server.MaxSimHyperperiods {
		return fmt.Errorf("-hyperperiods %d exceeds the limit of %d", *simReps, server.MaxSimHyperperiods)
	}

	memoBytes := *cacheMB << 20
	if *cacheMB < 0 {
		memoBytes = -1
	}
	opts := server.Options{
		MemoBytes:       memoBytes,
		Starts:          *starts,
		SimHyperperiods: *simReps,
		MaxTasks:        *maxTasks,
		MaxInflight:     *inflight,
		QueueWait:       *queueWait,
		SolveBudget:     *solveBudget,
		Logf:            log.Printf,
	}
	if *traceDir != "" {
		rec, err := newTraceRecorder(*traceDir)
		if err != nil {
			return fmt.Errorf("-trace-dir: %w", err)
		}
		defer rec.Close()
		opts.ObserveSink = rec.observe
	}
	if *storeDir != "" {
		disk, err := store.Open(*storeDir, store.Options{Sync: *storeSync})
		if err != nil {
			return err
		}
		defer disk.Close()
		// Tiered residency: the LRU memory tier keeps its -cachemb bound, the
		// disk records underneath make solves durable. Warm restarts repopulate
		// the hot tier on demand (disk hits promote). Checkpoints flow through
		// the tier too, so the circuit breaker (DESIGN.md §10) sits between
		// the daemon and the device on every durable path: a dying disk
		// degrades the daemon to memory-only, it never fails a request.
		tiered := store.NewTiered(grid.NewMemStore(memoBytes), disk)
		opts.Store = tiered
		opts.Checkpoints = tiered
	}

	// Fleet mode (DESIGN.md §11): this daemon becomes one fleet.Peer. Its
	// checkpoint writes replicate to the ring owners, it serves the
	// peer-replication endpoints, and it routes every client request to
	// its key's owner, itself included.
	var srv *server.Server
	var handler http.Handler
	var urls map[string]string
	if *peersFlag != "" {
		var err error
		if urls, err = parseFleetPeers(*peersFlag); err != nil {
			return err
		}
		if _, ok := urls[*selfFlag]; !ok {
			return fmt.Errorf("-self %q is not a name in -peers", *selfFlag)
		}
		peer := fleet.NewPeer(fleet.Options{
			Server: opts, Self: *selfFlag, Peers: urls, Vnodes: *vnodes, Replicas: *replicas,
		})
		defer peer.Close()
		srv, handler = peer.Server, peer
	} else if *selfFlag != "" {
		return fmt.Errorf("-self requires -peers")
	} else {
		srv = server.New(opts)
		handler = srv.Handler()
	}
	defer srv.Close()

	if *storeDir != "" || *peersFlag != "" {
		restored, err := srv.RestoreSessions(ctx)
		if err != nil {
			return fmt.Errorf("restoring sessions: %w", err)
		}
		if *storeDir != "" {
			fmt.Fprintf(stdout, "schedd store %s: restored %d sessions\n", *storeDir, restored)
		}
	}
	if *peersFlag != "" {
		fmt.Fprintf(stdout, "schedd fleet: self=%s peers=%d replicas=%d vnodes=%d\n",
			*selfFlag, len(urls), *replicas, *vnodes)
	}

	// The pprof listener is a separate loopback-only server: profiling
	// never rides the public port, and the flag is off by default. The
	// metric registry is mounted there too, so an operator can scrape a
	// daemon whose serving port is saturated.
	if *pprofAddr != "" {
		host, _, err := net.SplitHostPort(*pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
			return fmt.Errorf("-pprof must bind a loopback address, got %q", *pprofAddr)
		}
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pmux.Handle("GET /metrics", srv.Metrics())
		ps := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		pprofErr := make(chan error, 1)
		go func() { pprofErr <- ps.Serve(pln) }()
		defer func() {
			ps.Close()
			<-pprofErr // the serve goroutine has exited (leak-checked)
		}()
		fmt.Fprintf(stdout, "schedd pprof on %s\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "schedd listening on %s (cache %d MiB)\n", ln.Addr(), *cacheMB)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := server.HTTPServer(handler)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Cancel in-flight solves *before* waiting on their handlers:
		// Shutdown blocks until requests drain, and a long solve only stops
		// at its next sweep boundary once the server's base context fires.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
		err = <-serveErr
	case err = <-serveErr:
	}
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// traceRecorder is the -trace-dir observe sink: every successfully folded
// observation batch appends to DIR/<session>.trace in the internal/trace
// stream format — the same files adaptsim -record writes and adaptsim
// -replay (or feedback.RunReplay) consumes. Each batch is flushed as it
// lands, so a crashed daemon leaves every recording's complete prefix. A
// session restored on another peer starts a fresh file there; recordings
// are per-instance, like every other observability surface.
type traceRecorder struct {
	dir     string
	mu      sync.Mutex
	files   map[string]*os.File
	writers map[string]*trace.StreamWriter
}

func newTraceRecorder(dir string) (*traceRecorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &traceRecorder{
		dir:     dir,
		files:   make(map[string]*os.File),
		writers: make(map[string]*trace.StreamWriter),
	}, nil
}

// observe implements server.Options.ObserveSink. Failures are logged, never
// surfaced: recording is observational and must not fail an observe.
func (tr *traceRecorder) observe(sessionID string, model *task.Set, rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sw, ok := tr.writers[sessionID]
	if !ok {
		// Session ids are [A-Za-z0-9._-] by admission, so they are safe
		// file names.
		f, err := os.Create(filepath.Join(tr.dir, sessionID+".trace"))
		if err != nil {
			log.Printf("schedd: trace recorder: %v", err)
			return
		}
		sw, err = trace.NewStreamWriter(f, model, len(rows[0]))
		if err != nil {
			f.Close()
			log.Printf("schedd: trace recorder %s: %v", sessionID, err)
			return
		}
		tr.files[sessionID] = f
		tr.writers[sessionID] = sw
	}
	if err := sw.Append(rows); err != nil {
		log.Printf("schedd: trace recorder %s: %v", sessionID, err)
		return
	}
	if err := sw.Flush(); err != nil {
		log.Printf("schedd: trace recorder %s: %v", sessionID, err)
	}
}

// Close flushes and closes every recording.
func (tr *traceRecorder) Close() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for id, sw := range tr.writers {
		if err := sw.Flush(); err != nil {
			log.Printf("schedd: trace recorder %s: %v", id, err)
		}
		tr.files[id].Close()
	}
	tr.writers = make(map[string]*trace.StreamWriter)
	tr.files = make(map[string]*os.File)
}

// parseFleetPeers parses the -peers table: comma-separated name=url entries.
func parseFleetPeers(s string) (map[string]string, error) {
	urls := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=url)", part)
		}
		if _, dup := urls[name]; dup {
			return nil, fmt.Errorf("duplicate peer name %q in -peers", name)
		}
		urls[name] = strings.TrimSuffix(url, "/")
	}
	return urls, nil
}
