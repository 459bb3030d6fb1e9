package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/store"
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
// restarted: schedule GETs without resubmission (request blobs + disk log),
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
	if sampleOr(t, fams, "schedd_store_recovered_entries") == 0 {
		t.Error("metrics report no recovered entries after restart")
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
