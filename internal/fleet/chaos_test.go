package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/stats"
)

// TestFleetChaos is the PR's pinned contract: a 3-peer R=2 fleet with one
// peer killed and revived mid-run answers every request with 200 or 503, and
// every non-degraded 200 — concurrent submits and an adaptive session's
// observe stream alike — is byte-identical to a single-node fault-free
// reference. The session's owner is the kill target, so the stream provably
// continues on a replica (takeovers > 0) with an identical decision stream.
func TestFleetChaos(t *testing.T) {
	leakcheck.Check(t)

	// Single-node fault-free reference for everything the chaos run answers.
	refSrv := server.New(server.Options{})
	refTS := httptest.NewServer(refSrv.Handler())
	t.Cleanup(func() { refTS.Close(); refSrv.Close() })

	const uniqueBodies = 8
	wantSubmit := make([]string, uniqueBodies)
	for i := range wantSubmit {
		code, resp, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/schedules", submitBody(i))
		if code != http.StatusOK {
			t.Fatalf("reference submit %d: %d %s", i, code, resp)
		}
		wantSubmit[i] = resp
	}

	// "s1" is pinned to owner p1 (TestRingOwnershipPinned) — the kill target.
	const id = "s1"
	sessionBody, rows := fleetSessionRows(t, 4, id, 60)
	if code, resp, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/sessions", sessionBody); code != http.StatusOK {
		t.Fatalf("reference session create: %d %s", code, resp)
	}
	const batch = 10
	var wantObserve []string
	for at := 0; at < len(rows); at += batch {
		code, resp, _ := doReq(t, http.MethodPost, refTS.URL+"/v1/sessions/"+id+"/observe", observeAt(t, rows[at:at+batch], int64(at)))
		if code != http.StatusOK {
			t.Fatalf("reference observe at %d: %d %s", at, code, resp)
		}
		wantObserve = append(wantObserve, resp)
	}

	f := newTestFleet(t, []string{"p0", "p1", "p2"}, testFleetOptions{})
	if code, resp, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/sessions", sessionBody); code != http.StatusOK {
		t.Fatalf("fleet session create: %d %s", code, resp)
	}

	// Concurrent submit load through the router for the whole run, via the
	// shared retry client — the same client schedload ships.
	const (
		workers     = 4
		perWorker   = 20
		totalSubmit = workers * perWorker
	)
	type outcome struct {
		status int
		body   string
		idx    int
	}
	outcomes := make([]outcome, totalSubmit)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &retry.HTTPClient{
				Client: &http.Client{},
				Policy: retry.Policy{MaxAttempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond},
			}
			rng := stats.NewRNG(uint64(100 + w))
			for i := 0; i < perWorker; i++ {
				idx := (w*perWorker + i) % uniqueBodies
				res, err := client.Post(context.Background(), f.rts.URL+"/v1/schedules", "application/json", []byte(submitBody(idx)), rng)
				slot := w*perWorker + i
				if err != nil {
					outcomes[slot] = outcome{status: -1, body: err.Error(), idx: idx}
				} else {
					outcomes[slot] = outcome{status: res.Status, body: string(res.Body), idx: idx}
				}
				done.Add(1)
			}
			client.Client.CloseIdleConnections()
		}(w)
	}

	// The observe stream interleaves with the kill/revive schedule so the
	// takeover is deterministic: two batches on the owner, kill, two batches
	// on the replica, revive, the rest on the healed owner.
	observe := func(i int) {
		t.Helper()
		at := i * batch
		code, resp, _ := doReq(t, http.MethodPost, f.rts.URL+"/v1/sessions/"+id+"/observe", observeAt(t, rows[at:at+batch], int64(at)))
		if code != http.StatusOK {
			t.Fatalf("chaos observe batch %d: %d %s", i, code, resp)
		}
		if resp != wantObserve[i] {
			t.Fatalf("chaos observe batch %d diverged from the reference decision stream:\n got %s\nwant %s", i, resp, wantObserve[i])
		}
	}
	waitSubmits := func(n int64) {
		deadline := time.Now().Add(30 * time.Second)
		for done.Load() < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	observe(0)
	observe(1)
	waitSubmits(totalSubmit / 4)
	f.kill("p1")
	observe(2)
	observe(3)
	waitSubmits(totalSubmit / 2)
	f.restart("p1")
	for i := 4; i < len(wantObserve); i++ {
		observe(i)
	}
	wg.Wait()

	// Only 200s and 503s; every non-degraded 200 byte-identical to reference.
	var oks, sheds int
	for slot, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			oks++
			if strings.Contains(o.body, `"degraded":true`) {
				continue
			}
			if o.body != wantSubmit[o.idx] {
				t.Fatalf("submit slot %d (body %d) diverged from reference:\n got %s\nwant %s", slot, o.idx, o.body, wantSubmit[o.idx])
			}
		case http.StatusServiceUnavailable:
			sheds++
		default:
			t.Fatalf("submit slot %d: status %d (%s) — chaos contract allows only 200/503", slot, o.status, o.body)
		}
	}
	if oks == 0 {
		t.Fatal("no submits succeeded during the chaos run")
	}
	t.Logf("chaos: %d submits ok, %d shed", oks, sheds)

	takeovers := f.metric("schedd_fleet_takeovers_total")
	if takeovers == 0 {
		t.Error("the session owner died mid-stream and the stream continued, but no takeover was counted")
	}
	t.Logf("chaos: takeovers=%g failovers=%g fleet503s=%g", takeovers,
		f.metric("schedd_fleet_failovers_total"), f.metric("schedd_fleet_503s_total"))

	// The healed fleet agrees with the reference on the final position.
	code, resp, _ := doReq(t, http.MethodGet, f.rts.URL+"/v1/sessions/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("final status: %d %s", code, resp)
	}
	var status server.SessionStatusResponse
	if err := json.Unmarshal([]byte(resp), &status); err != nil {
		t.Fatal(err)
	}
	if status.Observed != int64(len(rows)) {
		t.Fatalf("fleet sees %d observations after the chaos run, want %d", status.Observed, len(rows))
	}
}
