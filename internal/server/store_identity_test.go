package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/workload"
)

// TestStoreBackendIdentity is the tentpole's acceptance contract (DESIGN.md
// §9): the residency backend behind the memo — in-memory, disk-only, or
// tiered — must be invisible in every response byte. The same submit, fetch
// and compare requests are driven against all three backends and byte-
// compared, including repeat requests that are served from cache (which on
// the disk backend exercises the full encode → log → decode → recompile
// path).
func TestStoreBackendIdentity(t *testing.T) {
	base := Options{SimHyperperiods: 20}
	backends := []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"mem", func(t *testing.T) Options { return base }},
		{"disk", func(t *testing.T) Options {
			d, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			o := base
			o.Store = d
			return o
		}},
		{"tiered", func(t *testing.T) Options {
			d, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			o := base
			o.Store = store.NewTiered(grid.NewMemStore(0), d)
			return o
		}},
	}

	// One request script, replayed verbatim against every backend.
	type exchange struct{ name, body string }
	script := func(t *testing.T, ts *httptest.Server) []exchange {
		var out []exchange
		var fps []string
		for i := 0; i < 3; i++ {
			code, body := post(t, ts.URL+"/v1/schedules", smallBody(i))
			if code != http.StatusOK {
				t.Fatalf("submit %d: %d %s", i, code, body)
			}
			var resp ScheduleResponse
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatal(err)
			}
			fps = append(fps, resp.Fingerprint)
			out = append(out, exchange{"submit", body})
		}
		// Resubmit and fetch: cache-served on every backend (on disk, via
		// decode + plan recompile).
		for i, fp := range fps {
			_, body := post(t, ts.URL+"/v1/schedules", smallBody(i))
			out = append(out, exchange{"resubmit", body})
			code, body := get(t, ts.URL+"/v1/schedules/"+fp)
			if code != http.StatusOK {
				t.Fatalf("get %s: %d %s", fp, code, body)
			}
			out = append(out, exchange{"get", body})
		}
		code, body := post(t, ts.URL+"/v1/compare", smallBody(0))
		if code != http.StatusOK {
			t.Fatalf("compare: %d %s", code, body)
		}
		out = append(out, exchange{"compare", body})
		return out
	}

	var ref []exchange
	for _, be := range backends {
		_, ts := newTestServer(t, be.opts(t))
		got := script(t, ts)
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s backend: %s response %d differs:\n%s\nvs mem:\n%s",
					be.name, got[i].name, i, got[i].body, ref[i].body)
			}
		}
	}
}

// TestStoreRestartIdentity is the warm-restart half of the contract: a
// tiered daemon stopped mid-run — mid-adaptive-session, between a drift
// firing and its re-solve — and restarted on the same store directory must
// answer every subsequent request byte-identically to a daemon that never
// restarted: schedule GETs without resubmission (request blobs + schedule records),
// and the resumed session's observes and status (controller checkpoints).
func TestStoreRestartIdentity(t *testing.T) {
	body, set := sessionBody(t, 1)
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{
		Kind: workload.ModeSwitch, Seed: 5, SwitchEvery: 60,
	})
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
	rows, err := sc.Actuals(150, taskOf)
	if err != nil {
		t.Fatal(err)
	}
	const chunk, cut = 10, 70 // restart at row 70: drift has fired, re-solve has not

	// drive runs the whole script against one server pair: the pre-cut part
	// on stop (nil stop = same server throughout), the post-cut part on the
	// server resume returns.
	type arm struct {
		preObs, postObs []string
		submitBody      string
		getBody         string
		statusBody      string
	}
	drive := func(t *testing.T, ts *httptest.Server, restart func() *httptest.Server) arm {
		var a arm
		code, resp := post(t, ts.URL+"/v1/sessions", body)
		if code != http.StatusOK {
			t.Fatalf("create: %d %s", code, resp)
		}
		var created SessionResponse
		if err := json.Unmarshal([]byte(resp), &created); err != nil {
			t.Fatal(err)
		}
		code, a.submitBody = post(t, ts.URL+"/v1/schedules", smallBody(1))
		if code != http.StatusOK {
			t.Fatalf("submit: %d %s", code, a.submitBody)
		}
		var sub ScheduleResponse
		if err := json.Unmarshal([]byte(a.submitBody), &sub); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < cut; lo += chunk {
			code, resp := post(t, ts.URL+"/v1/sessions/"+created.SessionID+"/observe",
				observeBody(t, rows[lo:lo+chunk]))
			if code != http.StatusOK {
				t.Fatalf("observe %d: %d %s", lo, code, resp)
			}
			a.preObs = append(a.preObs, resp)
		}
		if restart != nil {
			ts = restart()
		}
		for lo := cut; lo < len(rows); lo += chunk {
			code, resp := post(t, ts.URL+"/v1/sessions/"+created.SessionID+"/observe",
				observeBody(t, rows[lo:lo+chunk]))
			if code != http.StatusOK {
				t.Fatalf("observe %d: %d %s", lo, code, resp)
			}
			a.postObs = append(a.postObs, resp)
		}
		// Fetch the earlier submit by fingerprint only — after a restart this
		// crosses the request-blob and disk-log recovery paths.
		code, a.getBody = get(t, ts.URL+"/v1/schedules/"+sub.Fingerprint)
		if code != http.StatusOK {
			t.Fatalf("get: %d %s", code, a.getBody)
		}
		code, a.statusBody = get(t, ts.URL+"/v1/sessions/"+created.SessionID)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, a.statusBody)
		}
		return a
	}

	// Reference arm: one tiered daemon, never restarted.
	dirRef := t.TempDir()
	dRef, err := store.Open(dirRef, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sRef := New(Options{Store: store.NewTiered(grid.NewMemStore(0), dRef), Checkpoints: dRef})
	tsRef := httptest.NewServer(sRef.Handler())
	ref := drive(t, tsRef, nil)
	tsRef.Close()
	sRef.Close()
	dRef.Close()

	// Restarted arm: same requests, with a full daemon stop/boot at the cut.
	dir := t.TempDir()
	d1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Store: store.NewTiered(grid.NewMemStore(0), d1), Checkpoints: d1})
	ts1 := httptest.NewServer(s1.Handler())
	var ts2 *httptest.Server
	got := drive(t, ts1, func() *httptest.Server {
		ts1.Close()
		s1.Close()
		if err := d1.Close(); err != nil {
			t.Fatal(err)
		}
		d2, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d2.Close() })
		s2 := New(Options{Store: store.NewTiered(grid.NewMemStore(0), d2), Checkpoints: d2})
		t.Cleanup(s2.Close)
		n, err := s2.RestoreSessions(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("restored %d sessions, want 1", n)
		}
		ts2 = httptest.NewServer(s2.Handler())
		t.Cleanup(ts2.Close)
		return ts2
	})

	if len(got.preObs) != len(ref.preObs) || len(got.postObs) != len(ref.postObs) {
		t.Fatal("arms drove different request counts")
	}
	for i := range ref.preObs {
		if got.preObs[i] != ref.preObs[i] {
			t.Errorf("pre-restart observe %d differs (tiered determinism broke before the restart even happened)", i)
		}
	}
	for i := range ref.postObs {
		if got.postObs[i] != ref.postObs[i] {
			t.Errorf("post-restart observe %d differs:\n%s\nvs\n%s", i, got.postObs[i], ref.postObs[i])
		}
	}
	if got.getBody != ref.getBody || got.getBody != got.submitBody {
		t.Error("post-restart GET is not byte-identical to the pre-restart submit")
	}
	if got.statusBody != ref.statusBody {
		t.Errorf("final session status differs:\n%s\nvs\n%s", got.statusBody, ref.statusBody)
	}

	// The restarted daemon must have served from the recovered store, and its
	// operational counters must say so.
	fams := scrape(t, ts2.URL)
	if n := sampleOr(t, fams, "schedd_sessions_restored_total"); n != 1 {
		t.Errorf("schedd_sessions_restored_total = %g, want 1", n)
	}
	if n := sampleOr(t, fams, "schedd_checkpoint_errors_total"); n != 0 {
		t.Errorf("checkpoint errors: %g", n)
	}
	if sampleOr(t, fams, "schedd_store_tier_hits_total", obs.L("tier", "disk")) == 0 {
		t.Error("restarted daemon never hit the disk tier — warm restart did not engage")
	}
}

// TestGetAfterRestartOnlyReadsRequestBlob: a GET that recovers its request
// from the checkpoint store after a restart answers the submit's bytes and
// writes nothing back — in a fleet, a write there would be a synchronous
// push to every replica on a read path.
func TestGetAfterRestartOnlyReadsRequestBlob(t *testing.T) {
	blobs := &countingBlobs{MemBlobs: store.NewMemBlobs()}
	_, ts1 := newTestServer(t, Options{Checkpoints: blobs})
	code, submitted := post(t, ts1.URL+"/v1/schedules", smallBody(0))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, submitted)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal([]byte(submitted), &sr); err != nil {
		t.Fatal(err)
	}

	// The restarted daemon shares only the checkpoint store.
	_, ts2 := newTestServer(t, Options{Checkpoints: blobs})
	puts := blobs.puts.Load()
	code, got := get(t, ts2.URL+"/v1/schedules/"+sr.Fingerprint)
	if code != http.StatusOK || got != submitted {
		t.Fatalf("GET after restart: %d %s, want the submit's bytes", code, got)
	}
	if n := blobs.puts.Load() - puts; n != 0 {
		t.Errorf("GET after restart made %d PutBlob calls, want 0", n)
	}
}

// bootOnDir opens the store at dir and a tiered daemon over it, restores the
// checkpointed sessions and returns the daemon's URL and the restored count.
// Its cleanup stops the daemon and closes the store.
func bootOnDir(t *testing.T, dir string) (url string, restored int) {
	t.Helper()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s := New(Options{Store: store.NewTiered(grid.NewMemStore(0), d), Checkpoints: d})
	t.Cleanup(s.Close)
	n, err := s.RestoreSessions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, n
}

// TestScheduleRecordsNotBlobs: schedule records are not blobs under any
// name. A peer that serves the blob door over its disk store lists none of
// them, and a PUT of another set's schedule under a record's key, its
// schedule-prefixed name or a path into schedules/ does not change the bytes
// a GET answers after a restart, which reads every schedule from its record.
func TestScheduleRecordsNotBlobs(t *testing.T) {
	dir := t.TempDir()
	d1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t1 := store.NewTiered(grid.NewMemStore(0), d1)
	_, ts1 := newTestServer(t, Options{Store: t1, Checkpoints: t1, InternalBlobs: t1})
	var fps, want []string
	for i := 0; i < 2; i++ {
		code, body := post(t, ts1.URL+"/v1/schedules", smallBody(i))
		var sr ScheduleResponse
		if err := json.Unmarshal([]byte(body), &sr); code != http.StatusOK || err != nil {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
		fps, want = append(fps, sr.Fingerprint), append(want, body)
	}
	files, err := os.ReadDir(filepath.Join(dir, "schedules"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no schedule records on disk: %v", err)
	}
	names, err := d1.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "request-") {
			t.Errorf("ListBlobs lists %q, which is not a request blob", name)
		}
	}
	// The bytes of every record go under each name that could reach one.
	var planted []byte
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, "schedules", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		planted = append(planted, data...)
	}
	for _, f := range files {
		key, _, _ := strings.Cut(f.Name(), "~")
		for _, name := range []string{key, "schedule-" + key, "schedules", url.PathEscape("../schedules/" + f.Name())} {
			if code, resp := putBlob(t, ts1.URL, name, planted); code != http.StatusOK && code != http.StatusUnprocessableEntity {
				t.Fatalf("PUT blob %s: %d %s", name, code, resp)
			}
		}
	}
	ts1.Close()
	d1.Close()

	ts2, _ := bootOnDir(t, dir)
	for i, fp := range fps {
		if code, got := get(t, ts2+"/v1/schedules/"+fp); code != http.StatusOK || got != want[i] {
			t.Fatalf("GET %s after the PUTs: %d %s, want the submit's bytes %s", fp, code, got, want[i])
		}
	}
	fams := scrape(t, ts2)
	if n := sampleOr(t, fams, "schedd_memo_misses_total", obs.L("kind", "schedule")); n != 0 {
		t.Errorf("the GETs re-solved %g schedules; want every one read from its record", n)
	}
}

// TestTmpSuffixedSessionSurvivesRestart: session ids may contain '.', so
// caller-named sessions a and a.tmp checkpoint into the blobs session-a and
// session-a.tmp. Both observe, the daemon restarts on the same directory,
// and both answer their pre-restart state and go on folding.
func TestTmpSuffixedSessionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Store: store.NewTiered(grid.NewMemStore(0), d1), Checkpoints: d1})
	ts1 := httptest.NewServer(s1.Handler())
	ids := []string{"a.tmp", "a"} // a's checkpoints come after a.tmp's
	status := map[string]string{}
	rows := map[string][][]float64{}
	for i, id := range ids {
		body, r := sessionRows(t, uint64(6+i), id, 20)
		rows[id] = r
		if code, resp := post(t, ts1.URL+"/v1/sessions", body); code != http.StatusOK {
			t.Fatalf("create %s: %d %s", id, code, resp)
		}
	}
	for _, id := range ids {
		for lo := 0; lo < 10; lo += 5 {
			if code, resp := post(t, ts1.URL+"/v1/sessions/"+id+"/observe", observeBody(t, rows[id][lo:lo+5])); code != http.StatusOK {
				t.Fatalf("observe %s: %d %s", id, code, resp)
			}
		}
		_, status[id] = get(t, ts1.URL+"/v1/sessions/"+id)
	}
	ts1.Close()
	s1.Close()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	url, n := bootOnDir(t, dir)
	if n != len(ids) {
		t.Fatalf("restored %d sessions, want %d", n, len(ids))
	}
	for _, id := range ids {
		if code, got := get(t, url+"/v1/sessions/"+id); code != http.StatusOK || got != status[id] {
			t.Errorf("session %s after restart: %d %s, want %s", id, code, got, status[id])
		}
		if code, resp := post(t, url+"/v1/sessions/"+id+"/observe", observeBody(t, rows[id][10:])); code != http.StatusOK {
			t.Errorf("observe %s after restart: %d %s", id, code, resp)
		}
	}
}

// TestParentLayoutStoreRestores: stores written before blobs moved to slot
// files hold each blob as one plain file, blobs/<name>. A daemon booted on
// such a directory restores its sessions, which then fold on byte for byte
// as on the daemon that wrote them, and answers GETs of its stored requests.
func TestParentLayoutStoreRestores(t *testing.T) {
	// The donor writes the checkpoint and request blobs whose bytes the
	// plain files then hold.
	donor := store.NewMemBlobs()
	_, ts := newTestServer(t, Options{Checkpoints: donor})
	body, rows := sessionRows(t, 4, "old", 20)
	if code, resp := post(t, ts.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	if code, resp := post(t, ts.URL+"/v1/sessions/old/observe", observeBody(t, rows[:10])); code != http.StatusOK {
		t.Fatalf("observe: %d %s", code, resp)
	}
	_, status := get(t, ts.URL+"/v1/sessions/old")
	code, submitted := post(t, ts.URL+"/v1/schedules", smallBody(1))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, submitted)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal([]byte(submitted), &sr); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	names, _ := donor.ListBlobs()
	if len(names) != 2 { // the session's checkpoint and the submit's request
		t.Fatalf("donor wrote blobs %v, want 2", names)
	}
	for _, name := range names {
		blob, _, _ := donor.GetBlob(name)
		if err := os.WriteFile(filepath.Join(dir, "blobs", name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	url, n := bootOnDir(t, dir)
	if n != 1 {
		t.Fatalf("restored %d sessions, want 1", n)
	}
	if code, got := get(t, url+"/v1/sessions/old"); code != http.StatusOK || got != status {
		t.Errorf("restored session: %d %s, want %s", code, got, status)
	}
	if code, got := get(t, url+"/v1/schedules/"+sr.Fingerprint); code != http.StatusOK || got != submitted {
		t.Errorf("GET of a stored request: %d %s, want the submit's bytes", code, got)
	}
	next := observeBody(t, rows[10:])
	_, want := post(t, ts.URL+"/v1/sessions/old/observe", next)
	if code, got := post(t, url+"/v1/sessions/old/observe", next); code != http.StatusOK || got != want {
		t.Errorf("observe on the restored session: %d %s, want %s", code, got, want)
	}
}

// parentShapeCheckpoint adds to a session checkpoint the fields checkpoints
// carried before the estimator histogram and the last drift statistic were
// retired: the top-level "bins", each estimator's "lo", "hi" and "bins" (its
// support [BCEC, WCEC] and 32 bin counts), and the controller's
// "last_statistic".
func parentShapeCheckpoint(t *testing.T, blob []byte) []byte {
	t.Helper()
	raw := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var cp, ctrl map[string]json.RawMessage
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cp["controller"], &ctrl); err != nil {
		t.Fatal(err)
	}
	var base []task.Task
	if err := json.Unmarshal(ctrl["base"], &base); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"life", "relearn"} {
		var ests []map[string]json.RawMessage
		if err := json.Unmarshal(ctrl[field], &ests); err != nil {
			t.Fatal(err)
		}
		for i, e := range ests {
			var count int64
			if err := json.Unmarshal(e["count"], &count); err != nil {
				t.Fatal(err)
			}
			bins := make([]int64, 32)
			bins[0] = count
			e["lo"], e["hi"], e["bins"] = raw(base[i].BCEC), raw(base[i].WCEC), raw(bins)
		}
		ctrl[field] = raw(ests)
	}
	ctrl["last_statistic"] = raw(-0.37)
	cp["controller"] = raw(ctrl)
	cp["bins"] = raw(32)
	return raw(cp)
}

// TestParentCheckpointRestores: a session checkpoint in the shape written
// before the histogram and the last drift statistic were retired restores
// (encoding/json ignores the fields that went), and the restored session
// answers its next observes, across a re-solve, and its status GET with the
// bytes of a session that was never interrupted.
func TestParentCheckpointRestores(t *testing.T) {
	blobs := store.NewMemBlobs()
	_, ref := newTestServer(t, Options{Checkpoints: blobs})
	body, rows := sessionRows(t, 4, "dev", 160)
	if code, resp := post(t, ref.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	if code, resp := post(t, ref.URL+"/v1/sessions/dev/observe", observeAtBody(t, rows[:40], 0)); code != http.StatusOK {
		t.Fatalf("observe: %d %s", code, resp)
	}
	blob, _, _ := blobs.GetBlob("session-dev")
	old := parentShapeCheckpoint(t, blob)
	for _, field := range []string{`"bins":32`, `"lo":`, `"hi":`, `"last_statistic":`} {
		if !strings.Contains(string(old), field) {
			t.Fatalf("parent-shape checkpoint lacks %s", field)
		}
	}

	oldBlobs := store.NewMemBlobs()
	oldBlobs.PutBlob("session-dev", old)
	s, ts := newTestServer(t, Options{Checkpoints: oldBlobs})
	if n, err := s.RestoreSessions(context.Background()); n != 1 || err != nil {
		t.Fatalf("restored %d sessions (%v), want 1", n, err)
	}
	if n := checkpointErrs(t, ts.URL); n != 0 {
		t.Fatalf("%d checkpoint errors restoring a parent-shape checkpoint", n)
	}
	resolved := false
	for lo := 40; lo < len(rows); lo += 20 {
		next := observeAtBody(t, rows[lo:lo+20], int64(lo))
		_, want := post(t, ref.URL+"/v1/sessions/dev/observe", next)
		code, got := post(t, ts.URL+"/v1/sessions/dev/observe", next)
		if code != http.StatusOK || got != want {
			t.Fatalf("observe at %d on the restored session: %d %s, want %s", lo, code, got, want)
		}
		resolved = resolved || strings.Contains(got, `"resolved":true`)
	}
	if !resolved {
		t.Error("no re-solve after the restore: the continuation would not reach the restored model")
	}
	_, want := get(t, ref.URL+"/v1/sessions/dev")
	if code, got := get(t, ts.URL+"/v1/sessions/dev"); code != http.StatusOK || got != want {
		t.Errorf("status of the restored session: %d %s, want %s", code, got, want)
	}
}

// recordingBlobs is an in-memory BlobStore that keeps every session
// checkpoint it is handed, in write order.
type recordingBlobs struct {
	*store.MemBlobs
	mu    sync.Mutex
	saved [][]byte
}

func (r *recordingBlobs) PutBlob(name string, data []byte) error {
	if strings.HasPrefix(name, "session-") {
		r.mu.Lock()
		r.saved = append(r.saved, append([]byte(nil), data...))
		r.mu.Unlock()
	}
	return r.MemBlobs.PutBlob(name, data)
}

// TestSessionCheckpointBytesPinned pins the bytes of every session
// checkpoint one fixed history writes: a create with non-default drift
// knobs and two starts, observes that drift and re-solve, and an exact
// retry of the last batch, which replays its bytes and writes nothing. A
// change that moves a checkpoint byte fails here; one that means to re-pins
// the digest and says why. Solver output is pinned for amd64 floating point.
func TestSessionCheckpointBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("solver output is pinned for amd64 floating point")
	}
	blobs := &recordingBlobs{MemBlobs: store.NewMemBlobs()}
	_, ts := newTestServer(t, Options{Checkpoints: blobs})
	body, rows := sessionRows(t, 4, "pin", 120)
	body = strings.TrimSuffix(body, "}") +
		`,"starts":2,"drift_delta":0.5,"drift_lambda":6,"min_samples":8,"relearn":10}`
	if code, resp := post(t, ts.URL+"/v1/sessions", body); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	var last string
	resolved := false
	for at := 0; at < len(rows); at += 15 {
		code, resp := post(t, ts.URL+"/v1/sessions/pin/observe", observeAtBody(t, rows[at:at+15], int64(at)))
		if code != http.StatusOK {
			t.Fatalf("observe at %d: %d %s", at, code, resp)
		}
		resolved = resolved || strings.Contains(resp, `"resolved":true`)
		last = resp
	}
	if !resolved {
		t.Fatal("the history never re-solved")
	}
	at := len(rows) - 15
	if code, resp := post(t, ts.URL+"/v1/sessions/pin/observe", observeAtBody(t, rows[at:], int64(at))); code != http.StatusOK || resp != last {
		t.Fatalf("exact retry: %d %s, want %s", code, resp, last)
	}
	h := sha256.New()
	for _, b := range blobs.saved {
		h.Write(b)
	}
	const want = "288a29c36e90cc4e5b59452b162a21a1cbedd2081db53867c57e87c1d4a11388"
	if n, got := len(blobs.saved), hex.EncodeToString(h.Sum(nil)); n != 9 || got != want {
		t.Errorf("%d checkpoints with digest %s, want 9 with %s", n, got, want)
	}
}
