package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/workload"
)

// testPeer is one in-process schedd: a real server over a MemBlobs that
// survives kill/restart cycles, fronted by its ReplicatedBlobs.
type testPeer struct {
	name  string
	blobs *store.MemBlobs
	srv   *server.Server
	ts    *httptest.Server
	alive bool
}

// testFleet stands up N real peers plus the router, all in-process: the same
// wiring cmd/schedd -fleet uses, minus the OS processes.
type testFleet struct {
	t      *testing.T
	ring   *Ring
	topo   *Topology
	peers  map[string]*testPeer
	wrap   func(name string, h http.Handler) http.Handler
	router *Router
	// rts is the front end: the router, with its counters on /metrics as a
	// schedd fleet peer serves them.
	rts *httptest.Server
}

type testFleetOptions struct {
	hedgeDelay time.Duration
	// wrap, when non-nil, decorates each peer's handler (fault injection).
	wrap func(name string, h http.Handler) http.Handler
}

func newTestFleet(t *testing.T, names []string, opts testFleetOptions) *testFleet {
	t.Helper()
	f := &testFleet{
		t:     t,
		ring:  NewRing(names, 64),
		topo:  NewTopology(nil, TopologyOptions{PeerTimeout: 5 * time.Second}),
		peers: make(map[string]*testPeer),
		wrap:  opts.wrap,
	}
	for _, name := range names {
		f.startPeer(name, store.NewMemBlobs())
	}
	f.router = NewRouter(Options{
		Ring:     f.ring,
		Topology: f.topo,
		Replicas: 2,
		// Fast retries so dead-fleet tests do not stall: real pauses are the
		// policy's business, pinned in internal/retry.
		Retry:      retry.Policy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
		HedgeDelay: opts.hedgeDelay,
		Sleep:      func(time.Duration) {},
	})
	reg := obs.NewRegistry()
	f.router.RegisterMetrics(reg)
	front := http.NewServeMux()
	front.Handle("GET /metrics", reg)
	front.Handle("/", f.router)
	f.rts = httptest.NewServer(front)
	t.Cleanup(func() {
		f.rts.Close()
		f.router.Close()
		for _, p := range f.peers {
			if p.alive {
				p.srv.Close()
				p.ts.Close()
			}
		}
	})
	return f
}

func (f *testFleet) startPeer(name string, blobs *store.MemBlobs) {
	f.t.Helper()
	repl := NewReplicatedBlobs(ReplicatedBlobsOptions{
		Local: blobs, Self: name, Ring: f.ring, Topo: f.topo, Replicas: 2,
	})
	srv := server.New(server.Options{Checkpoints: repl, InternalBlobs: blobs})
	if _, err := srv.RestoreSessions(context.Background()); err != nil {
		f.t.Fatal(err)
	}
	h := srv.Handler()
	if f.wrap != nil {
		h = f.wrap(name, h)
	}
	ts := httptest.NewServer(h)
	f.peers[name] = &testPeer{name: name, blobs: blobs, srv: srv, ts: ts, alive: true}
	f.topo.SetURL(name, ts.URL)
}

// kill takes a peer down hard: in-flight connections die mid-request, the
// address stops answering. The MemBlobs survives for restart.
func (f *testFleet) kill(name string) {
	p := f.peers[name]
	p.srv.Close()
	p.ts.CloseClientConnections()
	p.ts.Close()
	p.alive = false
}

// restart revives a peer over its surviving blob store on a fresh address.
func (f *testFleet) restart(name string) {
	f.startPeer(name, f.peers[name].blobs)
}

// metric scrapes the front end's /metrics and sums every series of one
// family (one series per peer, or the single fleet-wide one).
func (f *testFleet) metric(name string) float64 {
	f.t.Helper()
	code, body, _ := doReq(f.t, http.MethodGet, f.rts.URL+"/metrics", "")
	fams, err := obs.ParseExposition(strings.NewReader(body))
	if code != http.StatusOK || err != nil {
		f.t.Fatalf("/metrics: %d, %v", code, err)
	}
	fam := obs.FindFamily(fams, name)
	if fam == nil {
		f.t.Fatalf("metric %s missing from /metrics", name)
	}
	var n float64
	for _, sm := range fam.Samples {
		n += sm.Value
	}
	return n
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
			code, sub, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/schedules", submitBody(i))
			if code != http.StatusOK || sub != w.submit {
				t.Fatalf("fleet(%d) submit %d: %d, bytes diverged from reference\n got %s\nwant %s", n, i, code, sub, w.submit)
			}
			var sr server.ScheduleResponse
			if err := json.Unmarshal([]byte(sub), &sr); err != nil {
				t.Fatal(err)
			}
			code, get, _ := doReq(t, http.MethodGet, f.rts.URL+"/v1/schedules/"+sr.Fingerprint, "")
			if code != http.StatusOK || get != w.get {
				t.Fatalf("fleet(%d) get %d: %d, bytes diverged\n got %s\nwant %s", n, i, code, get, w.get)
			}
			code, cmp, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/compare", submitBody(i))
			if code != http.StatusOK || cmp != w.compare {
				t.Fatalf("fleet(%d) compare %d: %d, bytes diverged\n got %s\nwant %s", n, i, code, cmp, w.compare)
			}
		}
		// Invalid bodies draw the peers' deterministic 4xx through the router
		// too (keyed by raw-body hash — any peer answers identically).
		refCode, refErr, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/schedules", `{"tasks":[]}`)
		code, gotErr, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/schedules", `{"tasks":[]}`)
		if code != refCode || gotErr != refErr {
			t.Fatalf("fleet(%d) invalid body: %d %s, reference %d %s", n, code, gotErr, refCode, refErr)
		}
	}
}

// TestFleetFailoverDeadPeer kills a key's owner and shows the replica serving
// the same bytes — replication plus byte-determinism make the owner's death
// invisible to clients.
func TestFleetFailoverDeadPeer(t *testing.T) {
	leakcheck.Check(t)
	f := newTestFleet(t, []string{"p0", "p1", "p2"}, testFleetOptions{})

	body := submitBody(1)
	code, want, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, want)
	}
	var sr server.ScheduleResponse
	if err := json.Unmarshal([]byte(want), &sr); err != nil {
		t.Fatal(err)
	}
	_, wantGet, _ := doReq(t, http.MethodGet, f.rts.URL+"/v1/schedules/"+sr.Fingerprint, "")

	owners := f.ring.Owners(sr.Fingerprint, 2)
	f.kill(owners[0])

	code, got, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/schedules", body)
	if code != http.StatusOK || got != want {
		t.Fatalf("failover submit: %d, bytes diverged\n got %s\nwant %s", code, got, want)
	}
	code, gotGet, _ := doReq(t, http.MethodGet, f.rts.URL+"/v1/schedules/"+sr.Fingerprint, "")
	if code != http.StatusOK || gotGet != wantGet {
		t.Fatalf("failover get: %d, bytes diverged\n got %s\nwant %s", code, gotGet, wantGet)
	}
	if f.metric("schedd_fleet_failovers_total") == 0 {
		t.Error("owner died and a replica served, but no failover was counted")
	}
	if f.metric("schedd_fleet_errors_total") == 0 {
		t.Error("talking to a dead peer counted no transport errors")
	}
}

// TestFleet503RetryAfter is the satellite regression: when the whole replica
// set is dead, the router's own 503 must carry Retry-After like every other
// 503 in the system — clients' backoff logic keys off it.
func TestFleet503RetryAfter(t *testing.T) {
	leakcheck.Check(t)
	f := newTestFleet(t, []string{"p0", "p1"}, testFleetOptions{})
	f.kill("p0")
	f.kill("p1")

	code, body, hdr := doReq(t, http.MethodPost, f.rts.URL+"/v1/schedules", submitBody(0))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet answered %d %s, want 503", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Error("fleet-originated 503 is missing Retry-After")
	}
	if !strings.Contains(body, `"error"`) {
		t.Errorf("fleet 503 body %q is not the standard error shape", body)
	}
	if f.metric("schedd_fleet_503s_total") == 0 {
		t.Error("fleet-originated 503 not counted on /metrics")
	}
}

// TestRouterMetrics: every routing counter the front end keeps, each
// peer's breaker trips and recloses included, is a /metrics series.
func TestRouterMetrics(t *testing.T) {
	leakcheck.Check(t)
	f := newTestFleet(t, []string{"p0", "p1"}, testFleetOptions{})
	now := time.Unix(0, 0)
	br := f.topo.Breaker("p0")
	br.SetClock(func() time.Time { return now })
	for i := 0; i < 5; i++ {
		br.Record(errors.New("peer down"))
	}
	if state, trips := f.metric("schedd_fleet_peer_state"), f.metric("schedd_fleet_peer_trips_total"); state != 1 || trips != 1 {
		t.Errorf("after a trip: peer state sum %g, trips %g; want 1 and 1", state, trips)
	}
	now = now.Add(time.Hour)
	if !br.Allow() {
		t.Fatal("breaker did not half-open after its cooldown")
	}
	br.Record(nil)
	if state, recloses := f.metric("schedd_fleet_peer_state"), f.metric("schedd_fleet_peer_recloses_total"); state != 0 || recloses != 1 {
		t.Errorf("after a reclose: peer state sum %g, recloses %g; want 0 and 1", state, recloses)
	}
	for _, name := range []string{"schedd_fleet_forwards_total", "schedd_fleet_hedges_total",
		"schedd_fleet_failovers_total", "schedd_fleet_takeovers_total", "schedd_fleet_errors_total",
		"schedd_fleet_503s_total"} {
		f.metric(name) // fails the test if the family is missing
	}
}

// TestHedgedReadNoLeak: a slow owner does not slow immutable reads — the
// hedge asks a replica after HedgeDelay and the first answer wins, with
// identical bytes. leakcheck pins that the abandoned in-flight request's
// goroutine winds down.
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

	code, sub, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/schedules", submitBody(2))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, sub)
	}
	var sr server.ScheduleResponse
	if err := json.Unmarshal([]byte(sub), &sr); err != nil {
		t.Fatal(err)
	}
	_, want, _ := doReq(t, http.MethodGet, f.rts.URL+"/v1/schedules/"+sr.Fingerprint, "")

	slowPeer.Store(f.ring.Owners(sr.Fingerprint, 2)[0])
	start := time.Now()
	code, got, _ := doReq(t, http.MethodGet, f.rts.URL+"/v1/schedules/"+sr.Fingerprint, "")
	elapsed := time.Since(start)
	if code != http.StatusOK || got != want {
		t.Fatalf("hedged get: %d, bytes diverged\n got %s\nwant %s", code, got, want)
	}
	if elapsed >= 2*time.Second {
		t.Errorf("hedged get took %v — waited out the slow owner instead of hedging", elapsed)
	}
	if f.metric("schedd_fleet_hedges_total") == 0 {
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
	// "s1" is pinned (TestRingOwnershipPinned) to owner p1, replica p2.
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
	if code, resp, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("fleet create: %d %s", code, resp)
	}
	observe := func(i int) (int, string) {
		b := batches[i]
		code, resp, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/sessions/"+id+"/observe", observeAt(t, rows[b[0]:b[1]], int64(b[0])))
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
	if f.metric("schedd_fleet_takeovers_total") == 0 {
		t.Error("replica continued a dead owner's session, but no takeover was counted")
	}
	// Owner revives with a stale local checkpoint; boot-time restore reads
	// through ReplicatedBlobs (freshest-wins), so batch 3 applies cleanly.
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
	code, resp, _ := doReq(t, http.MethodGet, f.rts.URL+"/v1/sessions/"+id, "")
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

// TestRouterSessionIDInjection: creates without a session_id get a
// router-allocated one, so the ring key exists before routing and the create
// stays a pure function of the (rewritten) body.
func TestRouterSessionIDInjection(t *testing.T) {
	leakcheck.Check(t)
	f := newTestFleet(t, []string{"p0", "p1"}, testFleetOptions{})
	body, _ := fleetSessionRows(t, 6, "", 0)
	code, resp, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/sessions", body)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	var created server.SessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		t.Fatal(err)
	}
	if created.SessionID != "f1" {
		t.Fatalf("injected id %q, want the router's f1", created.SessionID)
	}
	// The session is addressable through the fleet by the injected id.
	code, resp, _ = doReq(t, http.MethodGet, f.rts.URL+"/v1/sessions/f1", "")
	if code != http.StatusOK {
		t.Fatalf("status by injected id: %d %s", code, resp)
	}
}
