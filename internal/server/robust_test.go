package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/leakcheck"
	"repro/internal/store"
)

// TestChaos is the fault-injection harness (ISSUE: robustness): a randomized
// fault schedule — disk write/read/sync errors, torn writes, injected handler
// and pipeline panics — runs against a concurrent request stream, and the
// service contract must hold throughout:
//
//   - the daemon never dies (every request gets an HTTP answer),
//   - every answer is 200, 500 (injected panic), or 503 (shed/canceled),
//   - every non-degraded 200 is byte-identical to the fault-free run,
//   - persistent disk failure trips the breaker into memory-only serving,
//     and the breaker re-closes once faults clear,
//   - the store directory reopens cleanly afterward and serves the undamaged
//     prefix: a fresh daemon over the recovered store reproduces the
//     fault-free bytes for the whole request set.
func TestChaos(t *testing.T) {
	leakcheck.Check(t)
	const nBodies = 10
	bodies := make([]string, nBodies)
	for i := range bodies {
		bodies[i] = smallBody(i)
	}

	// Fault-free reference bytes.
	_, ref := newTestServer(t, Options{})
	want := make(map[string]string, nBodies)
	for _, b := range bodies {
		code, resp := post(t, ref.URL+"/v1/schedules", b)
		if code != http.StatusOK {
			t.Fatalf("reference submit: %d %s", code, resp)
		}
		want[b] = resp
	}

	// Chaos daemon: tiered store over a fault-injected filesystem, server
	// failpoints armed from the same registry.
	dir := t.TempDir()
	reg := fault.NewRegistry(42)
	disk, err := store.Open(dir, store.Options{FS: fault.Inject(fault.OS(), reg)})
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTieredWith(grid.NewMemStore(0), disk, store.TieredOptions{
		BreakerThreshold: 3, BreakerCooldown: 50 * time.Millisecond,
	})
	s := New(Options{
		Store: tiered, Checkpoints: tiered, Faults: reg,
		MaxInflight: 8, QueueWait: 5 * time.Millisecond,
		SolveBudget: 250 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer s.Close()
	defer ts.Close()

	// Fault driver: randomly arm and clear failpoints while clients run.
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		rng := rand.New(rand.NewSource(7))
		specs := []struct {
			name string
			spec fault.Spec
		}{
			{"fs.write", fault.Spec{Prob: 0.5, Err: true, Torn: 0.5}},
			{"fs.write", fault.Spec{Prob: 0.5, Err: true}},
			{"fs.read", fault.Spec{Prob: 0.5, Err: true}},
			{"fs.read", fault.Spec{Prob: 0.5, Latency: time.Millisecond}},
			{"fs.sync", fault.Spec{Prob: 0.5, Err: true}},
			{"handler.panic", fault.Spec{Prob: 0.1, Err: true}},
			{"pipeline.panic", fault.Spec{Prob: 0.1, Err: true}},
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := specs[rng.Intn(len(specs))]
			reg.Arm(f.name, f.spec)
			time.Sleep(2 * time.Millisecond)
			if rng.Intn(2) == 0 {
				reg.Disarm(f.name)
			}
		}
	}()

	// Concurrent request stream.
	const clients, iters = 4, 40
	var (
		mu         sync.Mutex
		mismatches []string
		badCodes   []int
		served     [3]int64 // 200 / 500 / 503
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < iters; i++ {
				b := bodies[rng.Intn(len(bodies))]
				code, resp, err := tryPost(ts.URL+"/v1/schedules", b)
				if err != nil {
					continue // transport-level teardown; the daemon itself is checked below
				}
				mu.Lock()
				switch code {
				case http.StatusOK:
					served[0]++
				case http.StatusInternalServerError:
					served[1]++
				case http.StatusServiceUnavailable:
					served[2]++
				default:
					badCodes = append(badCodes, code)
				}
				mu.Unlock()
				if code != http.StatusOK {
					continue
				}
				var sr ScheduleResponse
				if json.Unmarshal([]byte(resp), &sr) != nil {
					t.Errorf("unparsable 200 body: %s", resp)
					continue
				}
				if sr.Degraded {
					continue // outside the byte contract by design
				}
				if resp != want[b] {
					mu.Lock()
					mismatches = append(mismatches, fmt.Sprintf("body %q:\n got %s\nwant %s", b, resp, want[b]))
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	driver.Wait()
	reg.DisarmAll()

	if len(badCodes) > 0 {
		t.Errorf("unexpected status codes under chaos: %v", badCodes)
	}
	if len(mismatches) > 0 {
		t.Errorf("%d non-degraded 200s differ from the fault-free run; first:\n%s",
			len(mismatches), mismatches[0])
	}
	if served[0] == 0 {
		t.Error("chaos run produced no successful responses at all")
	}
	t.Logf("chaos: %d ok, %d panic-500, %d shed/canceled-503", served[0], served[1], served[2])

	// Deterministic degradation: persistent write failure must trip the
	// breaker into memory-only serving without failing any request.
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true})
	for i := 0; i < 4; i++ {
		code, resp := post(t, ts.URL+"/v1/schedules", smallBody(nBodies+i))
		if code != http.StatusOK {
			t.Fatalf("submit during disk failure: %d %s", code, resp)
		}
	}
	fams := scrape(t, ts.URL)
	if state, degraded := sampleOr(t, fams, "schedd_store_breaker_state"), sampleOr(t, fams, "schedd_store_mem_degraded"); state != 1 || degraded != 1 {
		t.Fatalf("breaker did not trip under persistent write failure: state %g, mem_degraded %g", state, degraded)
	}

	// Faults clear: after the cooldown, solve traffic doubles as the reopen
	// probe and the breaker must re-close.
	reg.DisarmAll()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		time.Sleep(25 * time.Millisecond)
		code, resp := post(t, ts.URL+"/v1/schedules", smallBody(100+i))
		if code != http.StatusOK {
			t.Fatalf("submit during recovery: %d %s", code, resp)
		}
		fams := scrape(t, ts.URL)
		state, degraded := sampleOr(t, fams, "schedd_store_breaker_state"), sampleOr(t, fams, "schedd_store_mem_degraded")
		if state == 0 && degraded == 0 {
			if sampleOr(t, fams, "schedd_store_breaker_recloses_total") == 0 {
				t.Fatal("breaker closed without counting a re-close")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed after faults cleared: state %g, mem_degraded %g", state, degraded)
		}
	}

	// Leave guaranteed torn debris at the log tail — the one shape only the
	// next Open's scan can clean up — before the "crash".
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true, Torn: 0.5})
	if code, resp := post(t, ts.URL+"/v1/schedules", smallBody(60)); code != http.StatusOK {
		t.Fatalf("submit with torn tail: %d %s", code, resp)
	}
	reg.DisarmAll()

	ts.Close()
	s.Close()
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-recovery contract: the store directory — littered with torn and
	// half-synced appends — must reopen cleanly, and a fresh daemon over it
	// must reproduce the fault-free bytes for the entire request set (every
	// recovered record serves; everything torn is a rebuildable miss).
	disk2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopening chaos-damaged store: %v", err)
	}
	st := disk2.Stats()
	t.Logf("recovery: %d entries recovered, %d torn records dropped", st.RecoveredEntries, st.TornRecordsDropped)
	if st.TornRecordsDropped == 0 {
		t.Error("recovery scan dropped no torn records despite the torn tail")
	}
	tiered2 := store.NewTiered(grid.NewMemStore(0), disk2)
	s2 := New(Options{Store: tiered2, Checkpoints: tiered2})
	ts2 := httptest.NewServer(s2.Handler())
	defer s2.Close()
	defer ts2.Close()
	for _, b := range bodies {
		code, resp := post(t, ts2.URL+"/v1/schedules", b)
		if code != http.StatusOK {
			t.Fatalf("post-recovery submit: %d %s", code, resp)
		}
		if resp != want[b] {
			t.Fatalf("post-recovery response differs from fault-free run:\n got %s\nwant %s", resp, want[b])
		}
	}
}

// TestSolveBudgetDegradesToWCS pins the degraded-mode contract: a submit
// whose ACS refinement exhausts the solve budget answers 200 with the WCS
// fallback schedule marked degraded — the exact vectors a direct WCS submit
// returns — and the baseline-comparison fields absent.
func TestSolveBudgetDegradesToWCS(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Options{SolveBudget: time.Nanosecond})

	code, body := post(t, ts.URL+"/v1/schedules", smallBody(0))
	if code != http.StatusOK {
		t.Fatalf("budgeted submit must degrade, not fail: %d %s", code, body)
	}
	var deg ScheduleResponse
	if err := json.Unmarshal([]byte(body), &deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded {
		t.Fatalf("1ns budget did not degrade the response: %s", body)
	}
	if deg.WCSAvgEnergy != nil || deg.ImprovementPct != nil {
		t.Error("degraded response carries ACS-only baseline fields")
	}
	if n := metric(t, ts.URL, "schedd_degraded_total"); n != 1 {
		t.Errorf("degraded counter = %g, want 1", n)
	}

	// The fallback must be the WCS schedule itself: a direct WCS submit of
	// the same set (unbudgeted by design) returns the same vectors.
	wcsBody := strings.TrimSuffix(smallBody(0), "}") + `,"objective":"wcs"}`
	code, body = post(t, ts.URL+"/v1/schedules", wcsBody)
	if code != http.StatusOK {
		t.Fatalf("wcs submit: %d %s", code, body)
	}
	var wcs ScheduleResponse
	if err := json.Unmarshal([]byte(body), &wcs); err != nil {
		t.Fatal(err)
	}
	if wcs.Degraded {
		t.Fatal("WCS objective must never be budgeted (it is the fallback)")
	}
	if deg.Pieces != wcs.Pieces || deg.Sweeps != wcs.Sweeps ||
		deg.PredictedEnergy != wcs.PredictedEnergy ||
		deg.HyperperiodMs != wcs.HyperperiodMs ||
		fmt.Sprint(deg.EndMs) != fmt.Sprint(wcs.EndMs) ||
		fmt.Sprint(deg.WCWorkCycles) != fmt.Sprint(wcs.WCWorkCycles) {
		t.Errorf("degraded schedule is not the WCS schedule:\ndegraded %+v\nwcs      %+v", deg, wcs)
	}
}

// TestPanicIsolation pins the one recovery layer, the HTTP middleware: an
// injected panic in the handler and one in the solve pipeline, which runs on
// the handler's goroutine, each cost exactly their own request a 500, a
// counter bump and a logged stack; the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	leakcheck.Check(t)
	reg := fault.NewRegistry(1)
	var mu sync.Mutex
	var logs []string
	_, ts := newTestServer(t, Options{Faults: reg, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})

	for i, point := range []string{"handler.panic", "pipeline.panic"} {
		reg.Arm(point, fault.Spec{Prob: 1, Err: true, Count: 1})
		code, body := post(t, ts.URL+"/v1/schedules", smallBody(i))
		if code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500 (%s)", point, code, body)
		}
		if !strings.Contains(body, "internal error") {
			t.Errorf("%s: 500 body leaks internals: %s", point, body)
		}
		// The daemon survived: the same request now succeeds.
		code, body = post(t, ts.URL+"/v1/schedules", smallBody(i))
		if code != http.StatusOK {
			t.Fatalf("%s: daemon did not survive the panic: %d %s", point, code, body)
		}
		if n := metric(t, ts.URL, "schedd_panics_total"); n != float64(i+1) {
			t.Errorf("%s: panic counter = %g, want %d", point, n, i+1)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 2 {
		t.Errorf("panic log lines = %d, want 2 (one per panic)", len(logs))
	}
	for _, l := range logs {
		if !strings.Contains(l, "panic") || !strings.Contains(l, "goroutine") {
			t.Errorf("panic log line lacks a stack trace: %.120s", l)
		}
	}
}

// TestAdmissionShedsWithRetryAfter pins the overload contract: with every
// seat taken and the queue wait expired, a solving request is shed with 503
// and a Retry-After header, counted on /metrics; a freed seat restores
// service.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Options{MaxInflight: 1, QueueWait: time.Millisecond})

	s.admit <- struct{}{} // occupy the only seat
	resp, err := http.Post(ts.URL+"/v1/schedules", "application/json", strings.NewReader(smallBody(0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed 503 carries no Retry-After header")
	}
	fams := scrape(t, ts.URL)
	if shed, inflight := sampleOr(t, fams, "schedd_shed_total"), sampleOr(t, fams, "schedd_inflight"); shed != 1 || inflight != 1 {
		t.Errorf("shed/inflight = %g/%g, want 1/1", shed, inflight)
	}

	<-s.admit // free the seat
	if code, body := post(t, ts.URL+"/v1/schedules", smallBody(0)); code != http.StatusOK {
		t.Fatalf("post-overload submit: %d %s", code, body)
	}
}

// TestSessionLimit503RetryAfter pins satellite 2 for the session-limit path:
// the rejection carries a Retry-After header (longer than the overload
// default — session slots free on a human timescale).
func TestSessionLimit503RetryAfter(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Options{SessionLimit: 1})
	body, _ := sessionBody(t, 3)
	if code, resp := post(t, ts.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("first session: %d %s", code, resp)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit create: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Errorf("session-limit Retry-After = %q, want %q", ra, "5")
	}
}

// failingBlobs is a BlobStore whose writes always fail — the
// dead-checkpoint-disk regression fixture.
type failingBlobs struct{ puts atomic.Int64 }

func (f *failingBlobs) PutBlob(string, []byte) error {
	f.puts.Add(1)
	return errors.New("checkpoint device gone")
}
func (f *failingBlobs) GetBlob(string) ([]byte, bool, error) { return nil, false, nil }
func (f *failingBlobs) ListBlobs() ([]string, error)         { return nil, nil }

// countingBlobs is an in-memory BlobStore that counts its writes.
type countingBlobs struct {
	*store.MemBlobs
	puts atomic.Int64
}

func (c *countingBlobs) PutBlob(name string, data []byte) error {
	c.puts.Add(1)
	return c.MemBlobs.PutBlob(name, data)
}

// TestClosedServerRefusesRequests pins Close's promise: afterwards every
// submit, get, compare, session create, observe and session GET answers 503
// with Retry-After — even where the memo or a resident session could answer
// without consulting a context — and an observe folds and checkpoints
// nothing.
func TestClosedServerRefusesRequests(t *testing.T) {
	blobs := &countingBlobs{MemBlobs: store.NewMemBlobs()}
	s, ts := newTestServer(t, Options{SimHyperperiods: 10, Checkpoints: blobs})
	body := smallBody(0)
	code, resp := post(t, ts.URL+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal([]byte(resp), &sr); err != nil {
		t.Fatal(err)
	}
	if code, resp := post(t, ts.URL+"/v1/compare", body); code != http.StatusOK {
		t.Fatalf("compare: %d %s", code, resp)
	}
	sessBody, rows := sessionRows(t, 3, "closing", 10)
	if code, resp := post(t, ts.URL+"/v1/sessions", sessBody); code != http.StatusOK {
		t.Fatalf("session create: %d %s", code, resp)
	}
	plainSessBody, _ := sessionBody(t, 3) // same content, server-allocated id

	s.Close()
	puts := blobs.puts.Load()
	for _, rq := range []struct{ name, method, path, body string }{
		{"submit", http.MethodPost, "/v1/schedules", body},
		{"get", http.MethodGet, "/v1/schedules/" + sr.Fingerprint, ""},
		{"compare", http.MethodPost, "/v1/compare", body},
		{"session create", http.MethodPost, "/v1/sessions", plainSessBody},
		{"observe", http.MethodPost, "/v1/sessions/closing/observe", observeBody(t, rows)},
		{"session get", http.MethodGet, "/v1/sessions/closing", ""},
	} {
		req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusServiceUnavailable || res.Header.Get("Retry-After") == "" {
			t.Errorf("%s after Close: status %d, Retry-After %q; want 503 with Retry-After",
				rq.name, res.StatusCode, res.Header.Get("Retry-After"))
		}
	}
	if n := s.session("closing").ctrl.Observed(); n != 0 {
		t.Errorf("closed server folded %d hyper-periods", n)
	}
	if n := blobs.puts.Load() - puts; n != 0 {
		t.Errorf("closed server wrote %d blobs", n)
	}
}

// TestCheckpointFailuresStillServe is the satellite-3 regression: a session
// whose checkpoint writes always fail still serves every observation, every
// failure is counted, and the failure is logged once — not once per observe.
func TestCheckpointFailuresStillServe(t *testing.T) {
	leakcheck.Check(t)
	fb := &failingBlobs{}
	var mu sync.Mutex
	var logs []string
	_, ts := newTestServer(t, Options{Checkpoints: fb, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})

	body, set := sessionBody(t, 2)
	code, resp := post(t, ts.URL+"/v1/sessions", body)
	if code != http.StatusOK {
		t.Fatalf("create with dead checkpoint store: %d %s", code, resp)
	}
	var created SessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		t.Fatal(err)
	}

	rows := make([][]float64, 12)
	for i := range rows {
		row := make([]float64, created.Instances)
		for j := range row {
			row[j] = set.Tasks[0].BCEC
		}
		rows[i] = row
	}
	const batches = 4
	for b := 0; b < batches; b++ {
		lo := b * 3
		code, resp := post(t, ts.URL+"/v1/sessions/"+created.SessionID+"/observe",
			observeBody(t, rows[lo:lo+3]))
		if code != http.StatusOK {
			t.Fatalf("observe %d with dead checkpoint store: %d %s", b, code, resp)
		}
	}

	errs := metric(t, ts.URL, "schedd_checkpoint_errors_total")
	if want := fb.puts.Load(); errs != float64(want) || want < batches {
		t.Errorf("checkpoint errors = %g, want %d (>= %d observes)", errs, want, batches)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 1 {
		t.Fatalf("checkpoint failure logged %d times, want exactly once: %v", len(logs), logs)
	}
	if !strings.Contains(logs[0], "checkpoint") {
		t.Errorf("log line does not identify the checkpoint path: %s", logs[0])
	}
}

// TestMalformedBlobNameSparesBreaker: a name the disk refuses is the
// client's error, not the device's. Ten GETs of a malformed fingerprint
// leave a tiered store's breaker closed, so the next session still
// checkpoints, and the peer blob door answers such a name 422 without
// counting a checkpoint error.
func TestMalformedBlobNameSparesBreaker(t *testing.T) {
	disk, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	tiered := store.NewTiered(grid.NewMemStore(0), disk)
	_, ts := newTestServer(t, Options{Store: tiered, Checkpoints: tiered, InternalBlobs: tiered})

	for i := 0; i < 10; i++ {
		if code, body := get(t, ts.URL+"/v1/schedules/!"); code != http.StatusNotFound {
			t.Fatalf("GET of a malformed fingerprint: %d %s, want 404", code, body)
		}
	}
	if state := metric(t, ts.URL, "schedd_store_breaker_state"); state != 0 {
		t.Fatalf("malformed fingerprints moved the disk breaker to state %g, want 0 (closed)", state)
	}
	body, _ := sessionBody(t, 5)
	if code, resp := post(t, ts.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("session create: %d %s", code, resp)
	}
	if n := checkpointErrs(t, ts.URL); n != 0 {
		t.Errorf("session create counted %d checkpoint errors, want 0", n)
	}

	if code, resp := putBlob(t, ts.URL, "!", []byte("x")); code != http.StatusUnprocessableEntity {
		t.Errorf("PUT of a malformed blob name: %d %s, want 422", code, resp)
	}
	if code, resp := get(t, ts.URL+"/v1/internal/blobs/!"); code != http.StatusUnprocessableEntity {
		t.Errorf("GET of a malformed blob name: %d %s, want 422", code, resp)
	}
	if n := checkpointErrs(t, ts.URL); n != 0 {
		t.Errorf("the blob door counted %d checkpoint errors for a malformed name, want 0", n)
	}
}

// TestServerCloseReleasesGoroutines pins the shutdown contract directly: a
// server that has done real work leaves no goroutines behind after Close —
// checked by the shared leakcheck helper.
func TestServerCloseReleasesGoroutines(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Options{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				tryPost(ts.URL+"/v1/schedules", smallBody(i))
			}
		}(c)
	}
	wg.Wait()
	// Cleanup (ts.Close, s.Close, then leakcheck) does the actual check.
}
