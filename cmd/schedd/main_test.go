package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestRunServeAndShutdown boots the daemon on an ephemeral port, drives one
// request through real HTTP, and shuts it down through context cancellation.
func TestRunServeAndShutdown(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	var out strings.Builder
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &out, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Post("http://"+addr+"/v1/schedules", "application/json",
		strings.NewReader(`{"tasks":[{"name":"a","period_ms":10,"wcec":4,"acec":2,"bcec":1,"ceff":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit through daemon: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"fingerprint"`) {
		t.Fatalf("implausible response: %s", body)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("clean shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "schedd listening on") {
		t.Errorf("startup banner missing: %q", out.String())
	}
}

// TestRunFlagErrors: bad invocations fail without binding a listener.
func TestRunFlagErrors(t *testing.T) {
	// Canceled up front: were a check missing, run would serve and return
	// nil at once instead of blocking.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-addr", "127.0.0.1:0", "trailing"},
		{"-addr", "999.999.999.999:99999"},
		{"-addr", "127.0.0.1:0", "-starts", "17"},
		{"-addr", "127.0.0.1:0", "-hyperperiods", "10001"},
	} {
		var out strings.Builder
		if err := run(ctx, args, &out, nil); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// bootDaemon starts the daemon with args and returns its address and a stop
// function that shuts it down cleanly.
func bootDaemon(t *testing.T, args []string) (addr string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	var out strings.Builder
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, args, &out, ready) }()
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("run exited before ready: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return addr, func() {
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("clean shutdown returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}

// freePorts reserves n distinct ephemeral ports and releases them — fleet
// daemons need the whole peer table before any of them binds.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]interface{ Close() error }, 0, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		lns = append(lns, ln)
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestFleetModeSmoke boots three daemons in -peers fleet mode, submits
// through one, reads the same bytes back through another, kills a peer, and
// shows the survivors still answering — the in-process chaos contract
// (internal/fleet) holding across real daemon processes' wiring.
func TestFleetModeSmoke(t *testing.T) {
	leakcheck.Check(t)
	addrs := freePorts(t, 3)
	names := []string{"p0", "p1", "p2"}
	var table []string
	for i, n := range names {
		table = append(table, n+"=http://"+addrs[i])
	}
	peers := strings.Join(table, ",")

	stops := make(map[string]func())
	for i, n := range names {
		_, stop := bootDaemon(t, []string{"-addr", addrs[i], "-peers", peers, "-self", n})
		stops[n] = stop
	}
	defer func() {
		for _, stop := range stops {
			if stop != nil {
				stop()
			}
		}
	}()

	body := `{"tasks":[{"name":"a","period_ms":10,"wcec":4,"acec":2,"bcec":1,"ceff":1},` +
		`{"name":"b","period_ms":20,"wcec":6,"acec":3,"bcec":2,"ceff":1}]}`
	resp, err := http.Post("http://"+addrs[0]+"/v1/schedules", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit via p0: %d %s", resp.StatusCode, first)
	}
	var sub struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(first, &sub); err != nil {
		t.Fatal(err)
	}
	// The same fingerprint reads back byte-identically through a different
	// entry peer: routing is invisible in response bytes.
	resp, err = http.Get("http://" + addrs[2] + "/v1/schedules/" + sub.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	viaOther, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(viaOther), sub.Fingerprint) {
		t.Fatalf("get via p2: %d %s", resp.StatusCode, viaOther)
	}

	// The peer's routing counters and its replication counters are series
	// on its own /metrics.
	fams := scrape(t, "http://"+addrs[0])
	if obs.FindFamily(fams, "schedd_fleet_forwards_total") == nil {
		t.Error("fleet peer /metrics carries no routing counters")
	}
	if obs.FindFamily(fams, "schedd_fleet_blob_push_errors_total") == nil {
		t.Error("fleet peer /metrics carries no replication counters")
	}

	// Kill one peer; the fleet keeps answering, byte-identically.
	stops["p1"]()
	stops["p1"] = nil
	resp, err = http.Post("http://"+addrs[0]+"/v1/schedules", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	after, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit after peer death: %d %s", resp.StatusCode, after)
	}
	if string(after) != string(first) {
		t.Fatalf("peer death changed the response bytes:\n%s\nvs\n%s", after, first)
	}
}

// TestWarmRestartServesFromStore is the daemon-level warm-restart smoke: a
// schedule submitted before a full stop/boot cycle on the same -store-dir is
// fetchable afterwards by fingerprint alone, byte-identically, served from
// the disk store rather than a re-solve.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-store-dir", dir}
	body := `{"tasks":[{"name":"a","period_ms":10,"wcec":4,"acec":2,"bcec":1,"ceff":1},` +
		`{"name":"b","period_ms":20,"wcec":6,"acec":3,"bcec":2,"ceff":1}]}`

	addr, stop := bootDaemon(t, args)
	resp, err := http.Post("http://"+addr+"/v1/schedules", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, first)
	}
	var sub struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(first, &sub); err != nil {
		t.Fatal(err)
	}
	stop()

	addr, stop = bootDaemon(t, args)
	defer stop()
	resp, err = http.Get("http://" + addr + "/v1/schedules/" + sub.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after restart: %d %s", resp.StatusCode, second)
	}
	if string(second) != string(first) {
		t.Fatalf("restart changed the response bytes:\n%s\nvs\n%s", second, first)
	}
	fams := scrape(t, "http://"+addr)
	if n, _ := obs.SampleValue(fams, "schedd_memo_misses_total", obs.L("kind", "schedule")); n != 0 {
		t.Errorf("warm restart re-solved %g schedules, want 0", n)
	}
	if diskHits, _ := obs.SampleValue(fams, "schedd_store_tier_hits_total", obs.L("tier", "disk")); diskHits == 0 {
		t.Error("warm restart did not serve from the disk store: 0 disk hits")
	}
}

// scrape GETs base's /metrics and parses it strictly.
func scrape(t *testing.T, base string) []obs.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("metrics on %s: status %d, parse: %v", base, resp.StatusCode, err)
	}
	return fams
}

// TestObservabilityEndpoints boots the daemon with the pprof sidecar and
// the trace recorder on: /metrics must serve valid exposition on both
// listeners, pprof must answer on its loopback port only, and a session's
// observation stream must land on disk as a readable trace — with a clean,
// leak-checked shutdown around all of it.
func TestObservabilityEndpoints(t *testing.T) {
	leakcheck.Check(t)
	pprofAddr := freePorts(t, 1)[0]
	traceDir := t.TempDir()
	addr, stop := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-pprof", pprofAddr, "-trace-dir", traceDir,
	})

	body := `{"tasks":[{"name":"a","period_ms":10,"wcec":4,"acec":2,"bcec":1,"ceff":1},` +
		`{"name":"b","period_ms":20,"wcec":6,"acec":3,"bcec":2,"ceff":1}]}`
	resp, err := http.Post("http://"+addr+"/v1/schedules", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()

	// A short session stream for the recorder.
	resp, err = http.Post("http://"+addr+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	createBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, createBody)
	}
	var created struct {
		SessionID string `json:"session_id"`
		Instances int    `json:"instances"`
	}
	if err := json.Unmarshal(createBody, &created); err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 3)
	for i := range rows {
		rows[i] = make([]float64, created.Instances)
		for j := range rows[i] {
			rows[i][j] = 2
		}
	}
	obsBody, _ := json.Marshal(struct {
		Hyperperiods [][]float64 `json:"hyperperiods"`
	}{rows})
	resp, err = http.Post("http://"+addr+"/v1/sessions/"+created.SessionID+"/observe",
		"application/json", strings.NewReader(string(obsBody)))
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d", resp.StatusCode)
	}

	// /metrics on the serving port: strictly valid exposition with the
	// request counter moving.
	for _, base := range []string{addr, pprofAddr} {
		fams := scrape(t, "http://"+base)
		if v, ok := obs.SampleValue(fams, "schedd_requests_total", obs.L("endpoint", "submit")); !ok || v < 1 {
			t.Errorf("metrics on %s: submit counter = %v (present %v)", base, v, ok)
		}
	}

	// pprof answers on its own loopback listener.
	resp, err = http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}

	stop()

	// The recording survived shutdown and replays as a valid stream.
	f, err := os.Open(traceDir + "/" + created.SessionID + ".trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.ReadStream(f)
	if err != nil {
		t.Fatalf("recorded trace unreadable: %v", err)
	}
	if len(rec.Rows) != 3 || rec.Instances != created.Instances {
		t.Fatalf("recording has %d rows width %d, want 3 width %d", len(rec.Rows), rec.Instances, created.Instances)
	}
}

// TestPprofRejectsNonLoopback: the profiling sidecar refuses to bind a
// routable address.
func TestPprofRejectsNonLoopback(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-pprof", "0.0.0.0:0"}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "loopback") {
		t.Fatalf("non-loopback -pprof accepted: %v", err)
	}
}
