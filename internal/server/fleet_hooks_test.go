package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/workload"
)

// The fleet hooks (DESIGN.md §11): caller-named sessions, position-asserting
// idempotent observes, lazy session takeover from a shared checkpoint store,
// stale-resident refresh, and the internal blob-replication endpoints. These
// tests drive them against plain servers sharing a store.MemBlobs — exactly
// what fleet replication looks like from one peer's point of view.

// observeAtBody renders rows plus the stream-position assertion.
func observeAtBody(t *testing.T, rows [][]float64, at int64) string {
	t.Helper()
	b, err := json.Marshal(ObserveRequest{Hyperperiods: rows, At: &at})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sessionRows builds a session body, its custom-id create form, and a
// deterministic observation stream for it.
func sessionRows(t *testing.T, seed uint64, id string, n int) (string, [][]float64) {
	t.Helper()
	body, set := sessionBody(t, seed)
	if id != "" {
		body = `{"session_id":"` + id + `",` + body[1:]
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
	return body, rows
}

// TestSessionCustomID: a create names its session, and a create never
// replaces a session under its id. The same creation answers the original
// create's bytes, on the server holding the session and on one that holds
// only its checkpoint, so a lost-ack retry gets the same answer on every
// peer; another creation answers 409.
func TestSessionCustomID(t *testing.T) {
	blobs := store.NewMemBlobs()
	_, ts := newTestServer(t, Options{Checkpoints: blobs})
	body, rows := sessionRows(t, 3, "fleet-a1", 10)

	code, resp := post(t, ts.URL+"/v1/sessions", body)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	var created SessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		t.Fatal(err)
	}
	if created.SessionID != "fleet-a1" {
		t.Fatalf("created id %q, want the requested fleet-a1", created.SessionID)
	}

	if code, observed := post(t, ts.URL+"/v1/sessions/fleet-a1/observe", observeAtBody(t, rows, 0)); code != http.StatusOK {
		t.Fatalf("observe: %d %s", code, observed)
	}

	// Same id and body again, on this server and on a replica that holds
	// only the checkpoint: the original create's bytes, the session kept.
	other, _ := sessionBody(t, 4)
	other = `{"session_id":"fleet-a1",` + other[1:]
	_, replica := newTestServer(t, Options{Checkpoints: blobs})
	for _, url := range []string{ts.URL, replica.URL} {
		if code, again := post(t, url+"/v1/sessions", body); code != http.StatusOK || again != resp {
			t.Fatalf("retried create: %d %s, want 200 with the original bytes %s", code, again, resp)
		}
		// Another set under the same id conflicts.
		if code, conflict := post(t, url+"/v1/sessions", other); code != http.StatusConflict {
			t.Fatalf("create of another set under a taken id: %d %s, want 409", code, conflict)
		}
		code, status := get(t, url+"/v1/sessions/fleet-a1")
		var st SessionStatusResponse
		if err := json.Unmarshal([]byte(status), &st); code != http.StatusOK || err != nil || st.Observed != 10 {
			t.Fatalf("status after the creates: %d %s, want the session at 10 hyper-periods", code, status)
		}
	}

	// Malformed ids are rejected before any solving.
	bad, _ := sessionBody(t, 3)
	bad = `{"session_id":"no/slashes",` + bad[1:]
	code, resp = post(t, ts.URL+"/v1/sessions", bad)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("bad id: %d %s, want 422", code, resp)
	}
}

// TestAllocatedSessionIDSkipsNamedSession: server id allocation never
// replaces a session a caller named "s1". The next unnamed create gets its
// own id, and both sessions keep their own state and checkpoint.
func TestAllocatedSessionIDSkipsNamedSession(t *testing.T) {
	blobs := store.NewMemBlobs()
	_, ts := newTestServer(t, Options{Checkpoints: blobs})
	namedBody, namedRows := sessionRows(t, 3, "s1", 10)
	plainBody, _ := sessionBody(t, 4)
	var ids []string
	created := make(map[string]SessionResponse)
	for _, body := range []string{namedBody, plainBody} {
		code, resp := post(t, ts.URL+"/v1/sessions", body)
		if code != http.StatusOK {
			t.Fatalf("create: %d %s", code, resp)
		}
		var sr SessionResponse
		if err := json.Unmarshal([]byte(resp), &sr); err != nil {
			t.Fatal(err)
		}
		if _, dup := created[sr.SessionID]; dup {
			t.Fatalf("two creates both answered session %q", sr.SessionID)
		}
		ids = append(ids, sr.SessionID)
		created[sr.SessionID] = sr
	}
	if ids[0] != "s1" {
		t.Fatalf("named create answered %q, want s1", ids[0])
	}
	if created[ids[0]].Schedule.Fingerprint == created[ids[1]].Schedule.Fingerprint {
		t.Fatal("the two sessions' sets share a fingerprint, so the test cannot tell them apart")
	}
	if code, resp := post(t, ts.URL+"/v1/sessions/s1/observe", observeBody(t, namedRows)); code != http.StatusOK {
		t.Fatalf("observe s1: %d %s", code, resp)
	}
	for _, c := range []struct {
		id       string
		observed int64
	}{{ids[0], int64(len(namedRows))}, {ids[1], 0}} {
		code, resp := get(t, ts.URL+"/v1/sessions/"+c.id)
		if code != http.StatusOK {
			t.Fatalf("status %s: %d %s", c.id, code, resp)
		}
		var st SessionStatusResponse
		if err := json.Unmarshal([]byte(resp), &st); err != nil {
			t.Fatal(err)
		}
		if st.Observed != c.observed {
			t.Errorf("session %s observed %d hyper-periods, want %d", c.id, st.Observed, c.observed)
		}
		if c.observed == 0 && st.Schedule.Fingerprint != created[c.id].Schedule.Fingerprint {
			t.Errorf("session %s serves fingerprint %s, want its own %s", c.id, st.Schedule.Fingerprint, created[c.id].Schedule.Fingerprint)
		}
		blob, ok, _ := blobs.GetBlob("session-" + c.id)
		if n, pok := SessionCheckpointObserved(blob); !ok || !pok || n != c.observed {
			t.Errorf("session %s checkpoint: present %v, observed %d, want %d", c.id, ok, n, c.observed)
		}
	}
}

// TestObserveIdempotency: `at` makes the observe stream safe to retry — an
// exact replay of the last acked batch returns the stored bytes, and any
// other position mismatch is a deterministic 409.
func TestObserveIdempotency(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, rows := sessionRows(t, 3, "idem", 30)
	if code, resp := post(t, ts.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	base := ts.URL + "/v1/sessions/idem/observe"

	code, first := post(t, base, observeAtBody(t, rows[0:10], 0))
	if code != http.StatusOK {
		t.Fatalf("batch 1: %d %s", code, first)
	}
	// Retry of the acked batch: byte-identical replay, no double-fold.
	code, replay := post(t, base, observeAtBody(t, rows[0:10], 0))
	if code != http.StatusOK || replay != first {
		t.Fatalf("replay answered %d %q, want the original bytes", code, replay)
	}
	// The fold did not advance: the next batch applies at position 10.
	code, second := post(t, base, observeAtBody(t, rows[10:20], 10))
	if code != http.StatusOK {
		t.Fatalf("batch 2: %d %s", code, second)
	}
	var ob ObserveResponse
	if err := json.Unmarshal([]byte(second), &ob); err != nil {
		t.Fatal(err)
	}
	if ob.Observed != 20 {
		t.Fatalf("observed %d after two batches, want 20", ob.Observed)
	}
	// A position that is neither current nor the acked window: 409.
	if code, resp := post(t, base, observeAtBody(t, rows[10:20], 5)); code != http.StatusConflict {
		t.Fatalf("stale position answered %d %s, want 409", code, resp)
	}
	// Replaying batch 1 after batch 2 is also a conflict — only the *last*
	// acked batch has a stored response.
	if code, resp := post(t, base, observeAtBody(t, rows[0:10], 0)); code != http.StatusConflict {
		t.Fatalf("deep replay answered %d %s, want 409", code, resp)
	}
}

// TestSessionTakeoverAndRefresh is fleet failover in miniature: two servers
// share one blob store (the replicated checkpoint view). The session hops
// A → B (lazy takeover restore) and back A (stale-resident refresh), and
// every response is byte-identical to an uninterrupted single-server run.
func TestSessionTakeoverAndRefresh(t *testing.T) {
	shared := store.NewMemBlobs()
	srvA, tsA := newTestServer(t, Options{Checkpoints: shared})
	srvB, tsB := newTestServer(t, Options{Checkpoints: shared})
	_, tsRef := newTestServer(t, Options{})

	body, rows := sessionRows(t, 4, "hop", 30)
	batches := [][2]int{{0, 10}, {10, 20}, {20, 30}}

	// Reference: one server, no hops.
	var want []string
	if code, resp := post(t, tsRef.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("ref create: %d %s", code, resp)
	}
	for i, b := range batches {
		code, resp := post(t, tsRef.URL+"/v1/sessions/hop/observe", observeAtBody(t, rows[b[0]:b[1]], int64(b[0])))
		if code != http.StatusOK {
			t.Fatalf("ref batch %d: %d %s", i, code, resp)
		}
		want = append(want, resp)
	}

	// Fleet-shaped run: create + batch 1 on A, batch 2 on B (which has never
	// seen the session — lazy takeover from the shared checkpoints), batch 3
	// back on A (whose resident fold is now stale — refresh-on-gap).
	if code, resp := post(t, tsA.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("create on A: %d %s", code, resp)
	}
	urls := []string{tsA.URL, tsB.URL, tsA.URL}
	for i, b := range batches {
		code, resp := post(t, urls[i]+"/v1/sessions/hop/observe", observeAtBody(t, rows[b[0]:b[1]], int64(b[0])))
		if code != http.StatusOK {
			t.Fatalf("hop batch %d: %d %s", i, code, resp)
		}
		if resp != want[i] {
			t.Fatalf("hop batch %d diverged from the single-server reference:\n got %s\nwant %s", i, resp, want[i])
		}
	}
	// Replay of the final batch on B: it must refresh past its own stale
	// fold and replay the acked bytes.
	code, resp := post(t, tsB.URL+"/v1/sessions/hop/observe", observeAtBody(t, rows[20:30], 20))
	if code != http.StatusOK || resp != want[2] {
		t.Fatalf("replay on B: %d %q, want the reference bytes", code, resp)
	}
	if n := srvB.m.restored.Value(); n == 0 {
		t.Error("B answered without a takeover restore")
	}
	if n := srvA.m.restored.Value(); n == 0 {
		t.Error("A answered batch 3 without refreshing its stale fold")
	}
	// Status reads also restore lazily: a third server can answer them.
	srvC, tsC := newTestServer(t, Options{Checkpoints: shared})
	code, resp = get(t, tsC.URL+"/v1/sessions/hop")
	if code != http.StatusOK {
		t.Fatalf("status on C: %d %s", code, resp)
	}
	var st SessionStatusResponse
	if err := json.Unmarshal([]byte(resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Observed != 30 {
		t.Fatalf("C sees %d observations, want 30", st.Observed)
	}
	_ = srvA
	_ = srvC
}

// TestDamagedSessionCheckpoint feeds a truncated checkpoint, one that names
// another session and one whose controller state is invalid (a negative
// observation count) through the three paths that decode checkpoints. Each
// counts the damage once and answers its own way: boot restore skips the
// session, takeover answers 404, and refresh keeps the resident fold, so the
// observe's position check answers 409. Refresh does not restore the
// negative count, which is not ahead of its fold, and so counts nothing.
// A fourth path repeats: boot and three requests meet one damaged blob and
// count it once, a different damaged blob counts once more, and a valid
// checkpoint then restores the session.
func TestDamagedSessionCheckpoint(t *testing.T) {
	// Valid checkpoints to damage, from a donor server.
	donorBlobs := store.NewMemBlobs()
	_, donor := newTestServer(t, Options{Checkpoints: donorBlobs})
	victimBody, rows := sessionRows(t, 4, "victim", 30)
	otherBody, otherRows := sessionRows(t, 5, "other", 20)
	for _, c := range []struct {
		id, body string
		rows     [][]float64
	}{{"victim", victimBody, rows[:10]}, {"other", otherBody, otherRows}} {
		if code, resp := post(t, donor.URL+"/v1/sessions", c.body); code != http.StatusOK {
			t.Fatalf("donor create %s: %d %s", c.id, code, resp)
		}
		if code, resp := post(t, donor.URL+"/v1/sessions/"+c.id+"/observe", observeAtBody(t, c.rows, 0)); code != http.StatusOK {
			t.Fatalf("donor observe %s: %d %s", c.id, code, resp)
		}
	}
	victim, _, _ := donorBlobs.GetBlob("session-victim")
	other, _, _ := donorBlobs.GetBlob("session-other")
	negative := bytes.Replace(victim, []byte(`"observed":10,`), []byte(`"observed":-1,`), 1)
	if bytes.Equal(negative, victim) {
		t.Fatal("victim checkpoint has no observed count to damage")
	}
	// A model whose WCEC left its base: a valid set, but not one adaptation
	// can reach, so the restore check refuses it.
	var cp sessionCheckpoint
	if err := json.Unmarshal(victim, &cp); err != nil {
		t.Fatal(err)
	}
	cp.Controller.Model[0].WCEC *= 1.5
	wcecMoved, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	// A set whose hyper-period holds far more than core.CheckInstances
	// allows: refused before a restore solve expands it.
	var big sessionCheckpoint
	if err := json.Unmarshal(victim, &big); err != nil {
		t.Fatal(err)
	}
	for _, tasks := range [][]task.Task{big.Controller.Base, big.Controller.Model} {
		tasks[0].Period, tasks[1].Period = 2971, 2999
	}
	oversized, err := json.Marshal(&big)
	if err != nil {
		t.Fatal(err)
	}

	paths := []struct {
		name string
		// want is the path's answer: an HTTP status, or for boot, which
		// answers none, the number of sessions RestoreSessions restored.
		want  int
		drive func(t *testing.T, damaged []byte) (answer int, errs int64)
	}{
		{"boot", 0, func(t *testing.T, damaged []byte) (int, int64) {
			blobs := store.NewMemBlobs()
			blobs.PutBlob("session-victim", damaged)
			s, ts := newTestServer(t, Options{Checkpoints: blobs})
			n, err := s.RestoreSessions(context.Background())
			if err != nil {
				t.Fatalf("boot restore: %v", err)
			}
			return n, checkpointErrs(t, ts.URL)
		}},
		{"takeover", http.StatusNotFound, func(t *testing.T, damaged []byte) (int, int64) {
			blobs := store.NewMemBlobs()
			blobs.PutBlob("session-victim", damaged)
			_, ts := newTestServer(t, Options{Checkpoints: blobs})
			code, _ := get(t, ts.URL+"/v1/sessions/victim")
			return code, checkpointErrs(t, ts.URL)
		}},
		{"refresh", http.StatusConflict, func(t *testing.T, damaged []byte) (int, int64) {
			blobs := store.NewMemBlobs()
			s, ts := newTestServer(t, Options{Checkpoints: blobs})
			if code, resp := post(t, ts.URL+"/v1/sessions", victimBody); code != http.StatusOK {
				t.Fatalf("create: %d %s", code, resp)
			}
			if code, resp := post(t, ts.URL+"/v1/sessions/victim/observe", observeAtBody(t, rows[:10], 0)); code != http.StatusOK {
				t.Fatalf("observe: %d %s", code, resp)
			}
			before := checkpointErrs(t, ts.URL)
			blobs.PutBlob("session-victim", damaged)
			// A position ahead of the resident fold triggers the refresh.
			code, _ := post(t, ts.URL+"/v1/sessions/victim/observe", observeAtBody(t, rows[20:30], 20))
			if n := s.session("victim").ctrl.Observed(); n != 10 {
				t.Errorf("resident fold at %d after a damaged refresh, want 10", n)
			}
			return code, checkpointErrs(t, ts.URL) - before
		}},
		{"repeat", http.StatusNotFound, func(t *testing.T, damaged []byte) (int, int64) {
			// Boot, two status reads and an observe all meet one damaged
			// blob, which is decoded and counted once.
			blobs := store.NewMemBlobs()
			blobs.PutBlob("session-victim", damaged)
			s, ts := newTestServer(t, Options{Checkpoints: blobs})
			if n, err := s.RestoreSessions(context.Background()); n != 0 || err != nil {
				t.Fatalf("boot restore: %d sessions, %v", n, err)
			}
			status := func() int { code, _ := get(t, ts.URL+"/v1/sessions/victim"); return code }
			observe := func() int {
				code, _ := post(t, ts.URL+"/v1/sessions/victim/observe", observeAtBody(t, rows[:10], 0))
				return code
			}
			answer := http.StatusNotFound
			for _, send := range []func() int{status, status, observe} {
				if code := send(); code != http.StatusNotFound {
					answer = code
				}
			}
			errs := checkpointErrs(t, ts.URL)
			// Another damaged blob is decoded afresh and counted once more.
			blobs.PutBlob("session-victim", victim[:len(victim)/3])
			if code := status(); code != http.StatusNotFound {
				t.Errorf("status on a replaced damaged blob: %d, want 404", code)
			}
			if n := checkpointErrs(t, ts.URL); n != errs+1 {
				t.Errorf("%d checkpoint errors after a second damaged blob, want %d", n, errs+1)
			}
			// A valid checkpoint then restores the session.
			blobs.PutBlob("session-victim", victim)
			if code := status(); code != http.StatusOK {
				t.Errorf("status on a valid checkpoint: %d, want 200", code)
			}
			return answer, errs
		}},
	}
	for _, d := range []struct {
		name string
		blob []byte
		// stale marks a blob that parses but is not ahead of the resident
		// fold: refresh leaves it alone and counts no error.
		stale bool
	}{
		{"truncated", victim[:len(victim)/2], false},
		{"id-mismatched", other, false},
		{"negative-observed", negative, true},
		{"wcec-moved", wcecMoved, true},
		{"oversized", oversized, false},
	} {
		for _, p := range paths {
			t.Run(d.name+"/"+p.name, func(t *testing.T) {
				answer, errs := p.drive(t, d.blob)
				wantErrs := int64(1)
				if d.stale && p.name == "refresh" {
					wantErrs = 0
				}
				if answer != p.want || errs != wantErrs {
					t.Errorf("answered %d with %d checkpoint errors, want %d with %d", answer, errs, p.want, wantErrs)
				}
			})
		}
	}
}

// TestRefreshCountsDamageOnce: a stale resident session whose replicated
// checkpoint is damaged meets it on every observe whose position is ahead of
// its fold. Each such observe answers 409, and the blob is counted once
// however often it is met: one that does not parse, and one that parses but
// that feedback.RestoreController refuses. A valid checkpoint put afterwards
// refreshes the session, which then answers what an uninterrupted daemon
// answers.
func TestRefreshCountsDamageOnce(t *testing.T) {
	// A donor folds 20 hyper-periods, so its checkpoint is ahead of a
	// resident fold of 10, then answers the next batch for reference.
	donorBlobs := store.NewMemBlobs()
	_, donor := newTestServer(t, Options{Checkpoints: donorBlobs})
	body, rows := sessionRows(t, 4, "victim", 30)
	if code, resp := post(t, donor.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("donor create: %d %s", code, resp)
	}
	for at := 0; at < 20; at += 10 {
		if code, resp := post(t, donor.URL+"/v1/sessions/victim/observe", observeAtBody(t, rows[at:at+10], int64(at))); code != http.StatusOK {
			t.Fatalf("donor observe at %d: %d %s", at, code, resp)
		}
	}
	ahead, _, _ := donorBlobs.GetBlob("session-victim")
	_, want := post(t, donor.URL+"/v1/sessions/victim/observe", observeAtBody(t, rows[20:30], 20))
	var cp sessionCheckpoint
	if err := json.Unmarshal(ahead, &cp); err != nil {
		t.Fatal(err)
	}
	cp.Controller.Model[0].WCEC *= 1.5
	refused, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range []struct {
		name string
		blob []byte
	}{{"truncated", ahead[:len(ahead)/2]}, {"refused", refused}} {
		t.Run(d.name, func(t *testing.T) {
			blobs := store.NewMemBlobs()
			s, ts := newTestServer(t, Options{Checkpoints: blobs})
			obs := ts.URL + "/v1/sessions/victim/observe"
			if code, resp := post(t, ts.URL+"/v1/sessions", body); code != http.StatusOK {
				t.Fatalf("create: %d %s", code, resp)
			}
			if code, resp := post(t, obs, observeAtBody(t, rows[:10], 0)); code != http.StatusOK {
				t.Fatalf("observe: %d %s", code, resp)
			}
			before := checkpointErrs(t, ts.URL)
			blobs.PutBlob("session-victim", d.blob)
			for i := 1; i <= 3; i++ {
				if code, resp := post(t, obs, observeAtBody(t, rows[20:30], 20)); code != http.StatusConflict {
					t.Fatalf("observe %d on a damaged checkpoint: %d %s, want 409", i, code, resp)
				}
				if n := checkpointErrs(t, ts.URL) - before; n != 1 {
					t.Errorf("after observe %d: %d checkpoint errors, want 1", i, n)
				}
			}
			if n := s.session("victim").ctrl.Observed(); n != 10 {
				t.Errorf("resident fold at %d after damaged refreshes, want 10", n)
			}
			blobs.PutBlob("session-victim", ahead)
			if code, got := post(t, obs, observeAtBody(t, rows[20:30], 20)); code != http.StatusOK || got != want {
				t.Fatalf("observe after a valid checkpoint: %d\n got %s\nwant %s", code, got, want)
			}
			if n := checkpointErrs(t, ts.URL) - before; n != 1 {
				t.Errorf("%d checkpoint errors after the refresh, want 1", n)
			}
		})
	}
}

// checkpointErrs reads schedd_checkpoint_errors_total from base's /metrics.
func checkpointErrs(t *testing.T, base string) int64 {
	t.Helper()
	return int64(metric(t, base, "schedd_checkpoint_errors_total"))
}

func TestInternalBlobEndpoints(t *testing.T) {
	// A standalone daemon has no peers: the paths answer 404.
	_, tsPlain := newTestServer(t, Options{})
	if code, resp := putBlob(t, tsPlain.URL, "x", []byte("y")); code != http.StatusNotFound {
		t.Fatalf("non-fleet PUT: %d %s, want 404", code, resp)
	}

	blobs := store.NewMemBlobs()
	_, ts := newTestServer(t, Options{InternalBlobs: blobs})
	payload := []byte(`{"anything":"goes"}`)
	if code, resp := putBlob(t, ts.URL, "session-s9", payload); code != http.StatusOK {
		t.Fatalf("PUT: %d %s", code, resp)
	}
	got, ok, err := blobs.GetBlob("session-s9")
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("pushed blob not stored: %v %v %q", err, ok, got)
	}
	code, body := get(t, ts.URL+"/v1/internal/blobs/session-s9")
	if code != http.StatusOK || body != string(payload) {
		t.Fatalf("GET: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/internal/blobs/absent"); code != http.StatusNotFound {
		t.Fatalf("GET absent blob: %d, want 404", code)
	}
}

func putBlob(t *testing.T, base, name string, data []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/internal/blobs/"+name, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
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
	return resp.StatusCode, string(b)
}

func TestSessionCheckpointObserved(t *testing.T) {
	shared := store.NewMemBlobs()
	_, ts := newTestServer(t, Options{Checkpoints: shared})
	body, rows := sessionRows(t, 5, "fresh", 10)
	if code, resp := post(t, ts.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	blob, ok, _ := shared.GetBlob("session-fresh")
	if !ok {
		t.Fatal("no checkpoint after create")
	}
	if n, ok := SessionCheckpointObserved(blob); !ok || n != 0 {
		t.Fatalf("fresh checkpoint observed=%d ok=%v, want 0/true", n, ok)
	}
	if code, resp := post(t, ts.URL+"/v1/sessions/fresh/observe", observeBody(t, rows)); code != http.StatusOK {
		t.Fatalf("observe: %d %s", code, resp)
	}
	blob, _, _ = shared.GetBlob("session-fresh")
	if n, ok := SessionCheckpointObserved(blob); !ok || n != 10 {
		t.Fatalf("advanced checkpoint observed=%d ok=%v, want 10/true", n, ok)
	}
	if _, ok := SessionCheckpointObserved([]byte("not json")); ok {
		t.Error("garbage parsed as a checkpoint")
	}
	if _, ok := SessionCheckpointObserved([]byte(`{"id":"x"}`)); ok {
		t.Error("controller-less blob parsed as a checkpoint")
	}
}

// TestSubmitFingerprint: the router-side fingerprint matches what the server
// answers, under the same defaults — the property consistent-hash routing
// by content address rests on.
func TestSubmitFingerprint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := smallBody(7)
	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	fp, ok := SubmitFingerprint(&req, 0, 0)
	if !ok || fp == "" {
		t.Fatal("feasible body did not fingerprint")
	}
	code, resp := post(t, ts.URL+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal([]byte(resp), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Fingerprint != fp {
		t.Fatalf("router fingerprint %s, server answered %s", fp, sr.Fingerprint)
	}
	if _, ok := SubmitFingerprint(&SubmitRequest{}, 0, 0); ok {
		t.Error("empty body fingerprinted")
	}
	if _, ok := SubmitFingerprint(&SubmitRequest{Tasks: make([]task.Task, 100)}, 0, 64); ok {
		t.Error("over-limit body fingerprinted")
	}
	// Objective changes the address, like it does on the server.
	var wcsReq SubmitRequest
	if err := json.Unmarshal([]byte(body), &wcsReq); err != nil {
		t.Fatal(err)
	}
	wcsReq.Objective = "wcs"
	if fp2, ok := SubmitFingerprint(&wcsReq, 0, 0); !ok || fp2 == fp {
		t.Error("wcs objective shares the acs fingerprint")
	}
	_ = strings.TrimSpace("")
}
