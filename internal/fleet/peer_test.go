package fleet

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
)

// submits is the number of submits peer's own server has answered.
func (f *testFleet) submits(peer string) float64 {
	f.t.Helper()
	n, _ := obs.SampleValue(f.scrape(peer), "schedd_requests_total", obs.L("endpoint", "submit"))
	return n
}

// TestFleetForwardedServedLocally: a request carrying the forwarded marker
// is served by the peer's own server even when the peer owns none of its
// key, and no routing counter moves, so a routed request makes one hop.
func TestFleetForwardedServedLocally(t *testing.T) {
	leakcheck.Check(t)
	names := []string{"p0", "p1", "p2"}
	f := newTestFleet(t, names, testFleetOptions{})
	body := submitBody(0)
	outsider := f.ring.Owners(fingerprintOf(t, body, 0), 3)[2]

	req, err := http.NewRequest(http.MethodPost, f.url(outsider)+"/v1/schedules", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(forwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded submit: %d %s", resp.StatusCode, got)
	}
	for _, name := range names {
		want := 0.0
		if name == outsider {
			want = 1
		}
		if n := f.submits(name); n != want {
			t.Errorf("%s's server answered %g submits, want %g", name, n, want)
		}
		if n := f.metric(name, "schedd_fleet_forwards_total"); n != 0 {
			t.Errorf("%s's router forwarded %g requests, want 0", name, n)
		}
	}
}

// TestFleetMetricsAndBlobsNotRouted: /metrics and the peer-replication
// endpoints are served by the peer's own server, never routed; the router
// has no such routes, so a routed one would answer 404.
func TestFleetMetricsAndBlobsNotRouted(t *testing.T) {
	leakcheck.Check(t)
	names := []string{"p0", "p1", "p2"}
	f := newTestFleet(t, names, testFleetOptions{})
	// The blob's key "zz" is owned by two peers; it goes to the third.
	owners := f.ring.Owners("zz", 3)
	url := f.url(owners[2]) + "/v1/internal/blobs/session-zz"
	if code, resp, _ := doReq(t, http.MethodPut, url, `{"x":1}`); code != http.StatusOK {
		t.Fatalf("blob put: %d %s", code, resp)
	}
	if code, resp, _ := doReq(t, http.MethodGet, url, ""); code != http.StatusOK || resp != `{"x":1}` {
		t.Fatalf("blob get: %d %q", code, resp)
	}
	for i, name := range owners {
		_, ok, _ := f.peers[name].blobs.GetBlob("session-zz")
		if ok != (i == 2) {
			t.Errorf("%s holds the blob: %v, want %v", name, ok, i == 2)
		}
	}
	for _, name := range names {
		if obs.FindFamily(f.scrape(name), "schedd_requests_total") == nil {
			t.Errorf("%s's /metrics is not its server's registry", name)
		}
		if n := f.metric(name, "schedd_fleet_forwards_total"); n != 0 {
			t.Errorf("%s's router forwarded %g requests, want 0", name, n)
		}
	}
}

// TestFleetRoutesWithServerStarts: a peer's router keys a submit by the
// fingerprint its own server answers with, here under a default of two
// starts, so the submit reaches that fingerprint's owner. A router keying by
// the one-start fingerprint would send it to another peer.
func TestFleetRoutesWithServerStarts(t *testing.T) {
	leakcheck.Check(t)
	names := []string{"p0", "p1", "p2"}
	f := newTestFleet(t, names, testFleetOptions{server: server.Options{Starts: 2}})
	var body, fp, owner string
	for i := 0; body == ""; i++ {
		b := submitBody(i)
		fp2, fp0 := fingerprintOf(t, b, 2), fingerprintOf(t, b, 0)
		if o := f.ring.Owners(fp2, 1)[0]; o != f.ring.Owners(fp0, 1)[0] {
			body, fp, owner = b, fp2, o
		}
	}
	code, resp, _ := doReq(t, http.MethodPost, f.url("p0")+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var sr server.ScheduleResponse
	if err := json.Unmarshal([]byte(resp), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Fingerprint != fp {
		t.Fatalf("answered fingerprint %s, want the two-start %s", sr.Fingerprint, fp)
	}
	for _, name := range names {
		want := 0.0
		if name == owner {
			want = 1
		}
		if n := f.submits(name); n != want {
			t.Errorf("%s's server answered %g submits, want %g (owner %s)", name, n, want, owner)
		}
	}
	if n, _ := obs.SampleValue(f.scrape("p0"), "schedd_fleet_forwards_total", obs.L("peer", owner)); n != 1 {
		t.Errorf("p0 forwarded %g submits to the owner %s, want 1", n, owner)
	}
}

// TestFleetServesOwnKeysInProcess: a peer serves the requests its router
// sends to itself through its own server's handler, dialing nothing. With
// p0's own peer-table entry on an address that refuses connections, submits
// and GETs of keys p0 owns, entered through p0, answer a single node's
// bytes with no transport error or failover counted on p0. Before, each
// such request took a loopback HTTP hop to p0's own listener.
func TestFleetServesOwnKeysInProcess(t *testing.T) {
	leakcheck.Check(t)
	f := newTestFleet(t, []string{"p0", "p1", "p2"}, testFleetOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String()
	ln.Close()
	f.peers["p0"].peer.topo.peers["p0"].url.Store(refused)

	refSrv := server.New(server.Options{})
	refTS := httptest.NewServer(refSrv.Handler())
	t.Cleanup(func() { refTS.Close(); refSrv.Close() })
	requests := 0
	for i, owned := 0, 0; owned < 3; i++ {
		body := submitBody(i)
		fp := fingerprintOf(t, body, 0)
		if f.ring.Owners(fp, 1)[0] != "p0" {
			continue
		}
		owned++
		_, want, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/schedules", body)
		for _, req := range [][2]string{{http.MethodPost, "/v1/schedules"}, {http.MethodGet, "/v1/schedules/" + fp}} {
			reqBody := body
			if req[0] == http.MethodGet {
				reqBody = ""
			}
			code, got, _ := doReq(t, req[0], f.url("p0")+req[1], reqBody)
			if code != http.StatusOK || got != want {
				t.Fatalf("%s %s through p0: %d %s, want the single node's %s", req[0], req[1], code, got, want)
			}
			requests++
		}
	}
	self := obs.L("peer", "p0")
	fams := f.scrape("p0")
	for name, want := range map[string]float64{
		"schedd_fleet_forwards_total": float64(requests), "schedd_fleet_errors_total": 0, "schedd_fleet_failovers_total": 0,
	} {
		if n, _ := obs.SampleValue(fams, name, self); n != want {
			t.Errorf("%s{peer=p0} on p0 = %g, want %g", name, n, want)
		}
	}
}
