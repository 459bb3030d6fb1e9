package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/workload"
)

// testPeer is one in-process fleet member: a NewPeer peer over a MemBlobs
// that survives kill/restart cycles, on a listener of its own.
type testPeer struct {
	blobs *store.MemBlobs
	peer  *Peer
	ts    *httptest.Server
	alive bool
}

// testFleet stands up N peers in-process: the wiring schedd -peers runs,
// minus the OS processes. A client enters through any live peer.
type testFleet struct {
	t    *testing.T
	ring *Ring // the ring every peer builds from the same names
	opts testFleetOptions
	// urls is the peer table a starting peer is given: each peer's current
	// address, empty until it first listens.
	urls  map[string]string
	peers map[string]*testPeer
}

type testFleetOptions struct {
	hedgeDelay time.Duration
	// wrap, when non-nil, decorates each peer's handler (fault injection).
	wrap func(name string, h http.Handler) http.Handler
	// server configures every peer's server.
	server server.Options
}

func newTestFleet(t *testing.T, names []string, opts testFleetOptions) *testFleet {
	t.Helper()
	f := &testFleet{
		t:     t,
		ring:  NewRing(names, DefaultVnodes),
		opts:  opts,
		urls:  make(map[string]string),
		peers: make(map[string]*testPeer),
	}
	for _, name := range names {
		f.urls[name] = ""
	}
	for _, name := range names {
		f.startPeer(name, store.NewMemBlobs())
	}
	t.Cleanup(func() {
		for _, p := range f.peers {
			if p.alive {
				p.peer.Server.Close()
				p.ts.Close()
			}
		}
		for _, p := range f.peers {
			p.peer.Close()
		}
	})
	return f
}

// startPeer boots a peer over blobs on a fresh address, restores its
// sessions, and points every peer at the address.
func (f *testFleet) startPeer(name string, blobs *store.MemBlobs) {
	f.t.Helper()
	sopts := f.opts.server
	sopts.Checkpoints = blobs
	p := NewPeer(Options{Server: sopts, Self: name, Peers: f.urls, Replicas: 2})
	// No pauses between passes, so dead-fleet tests do not stall: real
	// pauses are the policy's business, pinned in internal/retry.
	p.router.sleep = func(time.Duration) {}
	if f.opts.hedgeDelay > 0 {
		p.router.hedgeWait = f.opts.hedgeDelay
	}
	if _, err := p.Server.RestoreSessions(context.Background()); err != nil {
		f.t.Fatal(err)
	}
	var h http.Handler = p
	if f.opts.wrap != nil {
		h = f.opts.wrap(name, h)
	}
	ts := httptest.NewServer(h)
	f.peers[name] = &testPeer{blobs: blobs, peer: p, ts: ts, alive: true}
	f.urls[name] = ts.URL
	for _, tp := range f.peers {
		tp.peer.topo.peers[name].url.Store(ts.URL)
	}
}

// kill takes a peer down hard: in-flight connections die mid-request, the
// address stops answering. The MemBlobs survives for restart.
func (f *testFleet) kill(name string) {
	p := f.peers[name]
	p.peer.Close()
	p.ts.CloseClientConnections()
	p.ts.Close()
	p.alive = false
}

// restart revives a peer over its surviving blob store on a fresh address.
func (f *testFleet) restart(name string) {
	f.startPeer(name, f.peers[name].blobs)
}

// url is the address a client enters the fleet through at peer name.
func (f *testFleet) url(name string) string { return f.peers[name].ts.URL }

// scrape reads and parses peer's /metrics.
func (f *testFleet) scrape(peer string) []obs.Family {
	f.t.Helper()
	code, body, _ := doReq(f.t, http.MethodGet, f.url(peer)+"/metrics", "")
	fams, err := obs.ParseExposition(strings.NewReader(body))
	if code != http.StatusOK || err != nil {
		f.t.Fatalf("/metrics of %s: %d, %v", peer, code, err)
	}
	return fams
}

// metric scrapes peer's /metrics and sums every series of one family (one
// series per peer, or the single fleet-wide one).
func (f *testFleet) metric(peer, name string) float64 {
	f.t.Helper()
	fam := obs.FindFamily(f.scrape(peer), name)
	if fam == nil {
		f.t.Fatalf("metric %s missing from /metrics of %s", name, peer)
	}
	var n float64
	for _, sm := range fam.Samples {
		n += sm.Value
	}
	return n
}

// fingerprintOf is the fingerprint a server with the given default starts
// answers a submit body with.
func fingerprintOf(t *testing.T, body string, starts int) string {
	t.Helper()
	var req server.SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	fp, ok := server.SubmitFingerprint(&req, starts, 0)
	if !ok {
		t.Fatalf("body does not canonicalize: %s", body)
	}
	return fp
}

func doReq(t *testing.T, method, url, body string) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// submitBody is a tiny two-task set; i perturbs the WCET so distinct i are
// distinct fingerprints.
func submitBody(i int) string {
	return fmt.Sprintf(`{"tasks":[{"name":"a","period_ms":10,"wcec":%g,"acec":2,"bcec":1,"ceff":1},{"name":"b","period_ms":20,"wcec":6,"acec":3,"bcec":2,"ceff":1}]}`, 3+0.25*float64(i))
}

// fleetSessionRows mirrors the server package's session test helper: a seeded
// feasible set, its create body with a caller-chosen session id, and a
// deterministic observation stream.
func fleetSessionRows(t *testing.T, seed uint64, id string, n int) (string, [][]float64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{N: 3, Ratio: 0.1, Utilization: 0.7}, 50,
		func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		SessionID string      `json:"session_id,omitempty"`
		Tasks     []task.Task `json:"tasks"`
	}{id, set.Tasks})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: 9, SwitchEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := set.Instances()
	if err != nil {
		t.Fatal(err)
	}
	taskOf := make([]int, len(ins))
	for i := range ins {
		taskOf[i] = ins[i].TaskIndex
	}
	rows, err := sc.Actuals(n, taskOf)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), rows
}

func observeAt(t *testing.T, rows [][]float64, at int64) string {
	t.Helper()
	b, err := json.Marshal(server.ObserveRequest{Hyperperiods: rows, At: &at})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetByteIdentity is the routing half of the contract: fleets of 1, 2
// and 3 peers answer submit, get and compare byte-identically to one plain
// schedd, for every body — routing choices are invisible in response bytes.
func TestFleetByteIdentity(t *testing.T) {
	leakcheck.Check(t)
	refSrv := server.New(server.Options{})
	refTS := httptest.NewServer(refSrv.Handler())
	t.Cleanup(func() { refTS.Close(); refSrv.Close() })

	type want struct{ submit, get, compare string }
	wants := make([]want, 4)
	for i := range wants {
		_, sub, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/schedules", submitBody(i))
		var sr server.ScheduleResponse
		if err := json.Unmarshal([]byte(sub), &sr); err != nil {
			t.Fatalf("reference submit %d: %v in %s", i, err, sub)
		}
		_, get, _ := doReq(t, http.MethodGet, refTS.URL+"/v1/schedules/"+sr.Fingerprint, "")
		_, cmp, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/compare", submitBody(i))
		wants[i] = want{sub, get, cmp}
	}

	for _, n := range []int{1, 2, 3} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("p%d", i)
		}
		f := newTestFleet(t, names, testFleetOptions{})
		for i, w := range wants {
			code, sub, _ := doReq(t, http.MethodPost, f.url("p0")+"/v1/schedules", submitBody(i))
			if code != http.StatusOK || sub != w.submit {
				t.Fatalf("fleet(%d) submit %d: %d, bytes diverged from reference\n got %s\nwant %s", n, i, code, sub, w.submit)
			}
			var sr server.ScheduleResponse
			if err := json.Unmarshal([]byte(sub), &sr); err != nil {
				t.Fatal(err)
			}
			code, get, _ := doReq(t, http.MethodGet, f.url("p0")+"/v1/schedules/"+sr.Fingerprint, "")
			if code != http.StatusOK || get != w.get {
				t.Fatalf("fleet(%d) get %d: %d, bytes diverged\n got %s\nwant %s", n, i, code, get, w.get)
			}
			code, cmp, _ := doReq(t, http.MethodPost, f.url("p0")+"/v1/compare", submitBody(i))
			if code != http.StatusOK || cmp != w.compare {
				t.Fatalf("fleet(%d) compare %d: %d, bytes diverged\n got %s\nwant %s", n, i, code, cmp, w.compare)
			}
		}
		// Invalid bodies draw the peers' deterministic 4xx through the router
		// too (keyed by raw-body hash — any peer answers identically).
		refCode, refErr, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/schedules", `{"tasks":[]}`)
		code, gotErr, _ := doReq(t, http.MethodPost, f.url("p0")+"/v1/schedules", `{"tasks":[]}`)
		if code != refCode || gotErr != refErr {
			t.Fatalf("fleet(%d) invalid body: %d %s, reference %d %s", n, code, gotErr, refCode, refErr)
		}
	}
}

// TestFleetFailoverDeadPeer kills a key's owner and shows the replica serving
// the same bytes — replication plus byte-determinism make the owner's death
// invisible to clients. Requests enter through the peer outside the key's
// replica set.
func TestFleetFailoverDeadPeer(t *testing.T) {
	leakcheck.Check(t)
	f := newTestFleet(t, []string{"p0", "p1", "p2"}, testFleetOptions{})

	body := submitBody(1)
	owners := f.ring.Owners(fingerprintOf(t, body, 0), 3)
	entry := f.url(owners[2])
	code, want, _ := doReq(t, http.MethodPost, entry+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, want)
	}
	var sr server.ScheduleResponse
	if err := json.Unmarshal([]byte(want), &sr); err != nil {
		t.Fatal(err)
	}
	_, wantGet, _ := doReq(t, http.MethodGet, entry+"/v1/schedules/"+sr.Fingerprint, "")

	f.kill(owners[0])

	code, got, _ := doReq(t, http.MethodPost, entry+"/v1/schedules", body)
	if code != http.StatusOK || got != want {
		t.Fatalf("failover submit: %d, bytes diverged\n got %s\nwant %s", code, got, want)
	}
	code, gotGet, _ := doReq(t, http.MethodGet, entry+"/v1/schedules/"+sr.Fingerprint, "")
	if code != http.StatusOK || gotGet != wantGet {
		t.Fatalf("failover get: %d, bytes diverged\n got %s\nwant %s", code, gotGet, wantGet)
	}
	if f.metric(owners[2], "schedd_fleet_failovers_total") == 0 {
		t.Error("owner died and a replica served, but no failover was counted")
	}
	if f.metric(owners[2], "schedd_fleet_errors_total") == 0 {
		t.Error("talking to a dead peer counted no transport errors")
	}
}

// TestFleet503RetryAfter is the satellite regression: when the whole replica
// set is dead, the router's own 503 must carry Retry-After like every other
// 503 in the system — clients' backoff logic keys off it. Both owners of the
// key die, and the request enters through the third peer.
func TestFleet503RetryAfter(t *testing.T) {
	leakcheck.Check(t)
	f := newTestFleet(t, []string{"p0", "p1", "p2"}, testFleetOptions{})
	owners := f.ring.Owners(fingerprintOf(t, submitBody(0), 0), 3)
	f.kill(owners[0])
	f.kill(owners[1])

	code, body, hdr := doReq(t, http.MethodPost, f.url(owners[2])+"/v1/schedules", submitBody(0))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet answered %d %s, want 503", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("fleet-originated 503 carries Retry-After %q, want 1", ra)
	}
	// The server's error shape, byte for byte.
	if want := `{"error":"fleet: no replica of 2 reachable for this key"}` + "\n"; body != want || hdr.Get("Content-Type") != "application/json" {
		t.Errorf("fleet 503 body %q (%s), want %q (application/json)", body, hdr.Get("Content-Type"), want)
	}
	if f.metric(owners[2], "schedd_fleet_503s_total") == 0 {
		t.Error("fleet-originated 503 not counted on /metrics")
	}
}

// TestRouterMetrics: every routing counter a peer's router keeps, each
// peer's breaker trips and recloses included, is a series on the peer's
// /metrics.
func TestRouterMetrics(t *testing.T) {
	leakcheck.Check(t)
	f := newTestFleet(t, []string{"p0", "p1"}, testFleetOptions{})
	now := time.Unix(0, 0)
	br := f.peers["p0"].peer.topo.breaker("p0")
	br.SetClock(func() time.Time { return now })
	for i := 0; i < 5; i++ {
		br.Record(errors.New("peer down"))
	}
	if state, trips := f.metric("p0", "schedd_fleet_peer_state"), f.metric("p0", "schedd_fleet_peer_trips_total"); state != 1 || trips != 1 {
		t.Errorf("after a trip: peer state sum %g, trips %g; want 1 and 1", state, trips)
	}
	now = now.Add(time.Hour)
	if !br.Allow() {
		t.Fatal("breaker did not half-open after its cooldown")
	}
	br.Record(nil)
	if state, recloses := f.metric("p0", "schedd_fleet_peer_state"), f.metric("p0", "schedd_fleet_peer_recloses_total"); state != 0 || recloses != 1 {
		t.Errorf("after a reclose: peer state sum %g, recloses %g; want 0 and 1", state, recloses)
	}
	for _, name := range []string{"schedd_fleet_forwards_total", "schedd_fleet_hedges_total",
		"schedd_fleet_failovers_total", "schedd_fleet_takeovers_total", "schedd_fleet_errors_total",
		"schedd_fleet_503s_total"} {
		f.metric("p0", name) // fails the test if the family is missing
	}
}

// TestHedgedReadNoLeak: a slow owner does not slow immutable reads — the
// hedge asks a replica after HedgeDelay and the first answer wins, with
// identical bytes. leakcheck pins that the abandoned in-flight request's
// goroutine winds down. Reads enter through the peer outside the key's
// replica set.
func TestHedgedReadNoLeak(t *testing.T) {
	leakcheck.Check(t)
	var slowPeer atomic.Value // string: peer whose schedule GETs stall
	slowPeer.Store("")
	f := newTestFleet(t, []string{"p0", "p1", "p2"}, testFleetOptions{
		hedgeDelay: 10 * time.Millisecond,
		wrap: func(name string, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if slowPeer.Load() == name && r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/schedules/") {
					select {
					case <-time.After(2 * time.Second):
					case <-r.Context().Done():
						return
					}
				}
				h.ServeHTTP(w, r)
			})
		},
	})

	owners := f.ring.Owners(fingerprintOf(t, submitBody(2), 0), 3)
	entry := f.url(owners[2])
	code, sub, _ := doReq(t, http.MethodPost, entry+"/v1/schedules", submitBody(2))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, sub)
	}
	var sr server.ScheduleResponse
	if err := json.Unmarshal([]byte(sub), &sr); err != nil {
		t.Fatal(err)
	}
	_, want, _ := doReq(t, http.MethodGet, entry+"/v1/schedules/"+sr.Fingerprint, "")

	slowPeer.Store(owners[0])
	start := time.Now()
	code, got, _ := doReq(t, http.MethodGet, entry+"/v1/schedules/"+sr.Fingerprint, "")
	elapsed := time.Since(start)
	if code != http.StatusOK || got != want {
		t.Fatalf("hedged get: %d, bytes diverged\n got %s\nwant %s", code, got, want)
	}
	if elapsed >= 2*time.Second {
		t.Errorf("hedged get took %v — waited out the slow owner instead of hedging", elapsed)
	}
	if f.metric(owners[2], "schedd_fleet_hedges_total") == 0 {
		t.Error("slow owner, fast answer, but no hedge was counted")
	}
	slowPeer.Store("")
}

// TestSessionTakeoverThroughRouter is failover for stateful streams: the
// session's owner dies mid-stream, a replica restores from the replicated
// checkpoint and continues it, the owner revives stale and heals — and every
// response is byte-identical to an uninterrupted single-node run.
func TestSessionTakeoverThroughRouter(t *testing.T) {
	leakcheck.Check(t)
	// "s1" is pinned (TestRingOwnershipPinned) to owner p1, replica p2;
	// requests enter through p0.
	const id = "s1"
	body, rows := fleetSessionRows(t, 4, id, 30)
	batches := [][2]int{{0, 10}, {10, 20}, {20, 30}}

	refSrv := server.New(server.Options{})
	refTS := httptest.NewServer(refSrv.Handler())
	t.Cleanup(func() { refTS.Close(); refSrv.Close() })
	if code, resp, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("reference create: %d %s", code, resp)
	}
	var want []string
	for i, b := range batches {
		code, resp, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/sessions/"+id+"/observe", observeAt(t, rows[b[0]:b[1]], int64(b[0])))
		if code != http.StatusOK {
			t.Fatalf("reference batch %d: %d %s", i, code, resp)
		}
		want = append(want, resp)
	}

	f := newTestFleet(t, []string{"p0", "p1", "p2"}, testFleetOptions{})
	if code, resp, _ := doReq(t, http.MethodPost, f.url("p0")+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("fleet create: %d %s", code, resp)
	}
	observe := func(i int) (int, string) {
		b := batches[i]
		code, resp, _ := doReq(t, http.MethodPost, f.url("p0")+"/v1/sessions/"+id+"/observe", observeAt(t, rows[b[0]:b[1]], int64(b[0])))
		return code, resp
	}
	// Batch 1 lands on the owner.
	if code, resp := observe(0); code != http.StatusOK || resp != want[0] {
		t.Fatalf("batch 1: %d, bytes diverged\n got %s\nwant %s", code, resp, want[0])
	}
	// Owner dies; the replica restores from the replicated checkpoint and
	// continues the stream at the exact acked position.
	f.kill("p1")
	if code, resp := observe(1); code != http.StatusOK || resp != want[1] {
		t.Fatalf("takeover batch 2: %d, bytes diverged\n got %s\nwant %s", code, resp, want[1])
	}
	if f.metric("p0", "schedd_fleet_takeovers_total") == 0 {
		t.Error("replica continued a dead owner's session, but no takeover was counted")
	}
	// Owner revives with a stale local checkpoint; boot-time restore reads
	// through the replicated store (freshest-wins), so batch 3 applies
	// cleanly.
	f.restart("p1")
	if code, resp := observe(2); code != http.StatusOK || resp != want[2] {
		t.Fatalf("post-restart batch 3: %d, bytes diverged\n got %s\nwant %s", code, resp, want[2])
	}
	// Idempotent replay of the final acked batch, via whichever peer the
	// router picks: stored bytes, no double-fold.
	if code, resp := observe(2); code != http.StatusOK || resp != want[2] {
		t.Fatalf("replay: %d %q, want the acked bytes", code, resp)
	}
	// Status reads agree with the reference position.
	code, resp, _ := doReq(t, http.MethodGet, f.url("p0")+"/v1/sessions/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, resp)
	}
	var st server.SessionStatusResponse
	if err := json.Unmarshal([]byte(resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Observed != 30 {
		t.Fatalf("fleet sees %d observations, want 30", st.Observed)
	}
}

// TestRouterSessionIDInjection: creates without a session_id get an id the
// entry peer's router injects, so the ring key exists before routing. The
// ids are unique across entry peers and across a restart of one: when each
// router numbered its ids from f1, a create through a second peer answered
// 409 for the first peer's session, and one that reached a replica holding
// that session only as a checkpoint replaced it.
func TestRouterSessionIDInjection(t *testing.T) {
	leakcheck.Check(t)
	names := []string{"p0", "p1", "p2"}
	f := newTestFleet(t, names, testFleetOptions{})
	var created []server.SessionResponse
	create := func(entry string, seed uint64) {
		t.Helper()
		body, _ := fleetSessionRows(t, seed, "", 0)
		code, resp, _ := doReq(t, http.MethodPost, f.url(entry)+"/v1/sessions", body)
		if code != http.StatusOK {
			t.Fatalf("create through %s: %d %s", entry, code, resp)
		}
		var sr server.SessionResponse
		if err := json.Unmarshal([]byte(resp), &sr); err != nil {
			t.Fatal(err)
		}
		created = append(created, sr)
	}
	for i, name := range names {
		create(name, uint64(6+i))
	}
	f.kill("p0")
	f.restart("p0")
	create("p0", 9)

	validID := regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)
	ids := make(map[string]bool)
	fps := make(map[string]bool)
	for i, sr := range created {
		if !validID.MatchString(sr.SessionID) || ids[sr.SessionID] {
			t.Fatalf("create %d: injected id %q is invalid or already handed out", i, sr.SessionID)
		}
		ids[sr.SessionID] = true
		if fps[sr.Schedule.Fingerprint] {
			t.Fatalf("create %d: two seeds made one task set; the status check below would not tell the sessions apart", i)
		}
		fps[sr.Schedule.Fingerprint] = true
		// Each session is addressable through another peer by its injected
		// id, and holds its own tasks.
		via := names[(i+1)%len(names)]
		code, resp, _ := doReq(t, http.MethodGet, f.url(via)+"/v1/sessions/"+sr.SessionID, "")
		if code != http.StatusOK {
			t.Fatalf("status of %s through %s: %d %s", sr.SessionID, via, code, resp)
		}
		var st server.SessionStatusResponse
		if err := json.Unmarshal([]byte(resp), &st); err != nil {
			t.Fatal(err)
		}
		if st.Schedule.Fingerprint != sr.Schedule.Fingerprint || st.Observed != 0 {
			t.Errorf("status of %s shows schedule %s at %d hyper-periods, want its create's %s at 0",
				sr.SessionID, st.Schedule.Fingerprint, st.Observed, sr.Schedule.Fingerprint)
		}
	}
}

// TestRouterSessionCreateKeepsCheckpointedSession: a create never replaces
// a session that a replica holds only as a checkpoint. A client creates x1
// through the peer outside its replica set and observes once; the owner
// dies. A create of x1 with another set, through the same peer, reaches the
// replica: before, it answered 200 and overwrote the checkpoint, and the
// first client's next observe answered 409. A retry of the first create
// answers its original bytes.
func TestRouterSessionCreateKeepsCheckpointedSession(t *testing.T) {
	leakcheck.Check(t)
	const id = "x1"
	f := newTestFleet(t, []string{"p0", "p1", "p2"}, testFleetOptions{})
	owners := f.ring.Owners(id, 3)
	entry := f.url(owners[2])
	body, rows := fleetSessionRows(t, 4, id, 20)
	code, created, _ := doReq(t, http.MethodPost, entry+"/v1/sessions", body)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, created)
	}
	if code, resp, _ := doReq(t, http.MethodPost, entry+"/v1/sessions/"+id+"/observe", observeAt(t, rows[:10], 0)); code != http.StatusOK {
		t.Fatalf("first observe: %d %s", code, resp)
	}
	f.kill(owners[0])

	other, _ := fleetSessionRows(t, 5, id, 0)
	if code, resp, _ := doReq(t, http.MethodPost, entry+"/v1/sessions", other); code != http.StatusConflict {
		t.Fatalf("create of another set under x1: %d %s, want 409", code, resp)
	}
	if code, resp, _ := doReq(t, http.MethodPost, entry+"/v1/sessions", body); code != http.StatusOK || resp != created {
		t.Fatalf("retried create: %d %s, want 200 with the original bytes", code, resp)
	}
	if code, resp, _ := doReq(t, http.MethodPost, entry+"/v1/sessions/"+id+"/observe", observeAt(t, rows[10:], 10)); code != http.StatusOK {
		t.Fatalf("the first client's next observe: %d %s, want 200", code, resp)
	}
}

// TestRouterSessionCreateUnknownField: a create body a peer refuses is
// refused through the router too, with the peer's own bytes. Without a
// session_id the router injects one, and re-marshalling the body must not
// drop the unknown field that makes a single node answer 400.
func TestRouterSessionCreateUnknownField(t *testing.T) {
	leakcheck.Check(t)
	refSrv := server.New(server.Options{})
	refTS := httptest.NewServer(refSrv.Handler())
	t.Cleanup(func() { refTS.Close(); refSrv.Close() })
	f := newTestFleet(t, []string{"p0", "p1"}, testFleetOptions{})
	body, _ := fleetSessionRows(t, 6, "", 0)
	for _, field := range []string{"bnis", "bins"} {
		bad := `{"` + field + `":3,` + body[1:]
		wantCode, want, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/sessions", bad)
		if wantCode != http.StatusBadRequest {
			t.Fatalf("%s: single node answered %d %s, want 400", field, wantCode, want)
		}
		code, got, _ := doReq(t, http.MethodPost, f.url("p0")+"/v1/sessions", bad)
		if code != wantCode || got != want {
			t.Errorf("%s through the router: %d %s, want the single node's %d %s", field, code, got, wantCode, want)
		}
	}
}
