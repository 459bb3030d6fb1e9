package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/task"
)

// The two blob doors under fuzzing: a request blob or a session checkpoint
// a peer replicated, or a disk returned, is refused without a panic or a
// 500 unless the body it came from would be accepted.

// serveOn drives one request through h with a fresh recorder.
func serveOn(h http.Handler, method, path string, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// FuzzRequestBlob stores fuzzer-chosen bytes as a request blob on a server
// restarted over the blob store, under the fingerprint the bytes
// canonicalize to when they do (under the default task limit, above the
// server's 3) and under a fixed one, and GETs each. A GET answers 404
// unless the server admits the bytes as a body and they canonicalize to its
// fingerprint; then it answers what a submit of the bytes answers, byte for
// byte: a 200, or the 422 of a set the WCS build finds infeasible, which a
// GET of a submitted fingerprint answers too. Every solve goes through one
// shared memo.
func FuzzRequestBlob(f *testing.F) {
	for i := 0; i < 3; i++ {
		f.Add([]byte(smallBody(i)))
	}
	// The form written before zero knobs were omitted.
	f.Add([]byte(strings.TrimSuffix(smallBody(0), "}") + `,"objective":"acs","starts":0,"subcap":0}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(1), "}") + `,"objective":"wcs","subcap":4}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(2), "}") + `,"objective":"acs","cores":2}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(0), "}") + `,"nope":1}`))
	f.Add([]byte(smallBody(3)[:50]))
	f.Add([]byte(`{"tasks":[{"name":"a","period_ms":10,"wcec":100,"acec":60,"bcec":50,"ceff":1}],"objective":"acs"}`))
	f.Add([]byte(`{"tasks":[` + // more tasks than the server admits
		`{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1},` +
		`{"name":"b","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1},` +
		`{"name":"c","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1},` +
		`{"name":"d","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}],"objective":"acs"}`))

	memo := grid.NewMemStore(0)
	ref := New(Options{MaxTasks: 3, Store: memo})
	f.Cleanup(ref.Close)
	refH := ref.Handler()
	fixed, ok := SubmitFingerprint(mustSubmit(f, smallBody(0)), 0, 3)
	if !ok {
		f.Fatal("the fixed fingerprint does not canonicalize")
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		if fuzzCostly(blob) {
			t.Skip("solve too slow for the smoke run")
		}
		var own string
		admitted := false
		var req SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) == nil {
			own, _ = SubmitFingerprint(&req, 0, 0)
			_, admitted = SubmitFingerprint(&req, 0, 3)
		}
		blobs := store.NewMemBlobs()
		s := New(Options{MaxTasks: 3, Store: memo, Checkpoints: blobs})
		defer s.Close()
		h := s.Handler()
		for _, fp := range []string{fixed, own} {
			if fp == "" {
				continue
			}
			blobs.PutBlob("request-"+fp, blob)
			code, got := serveOn(h, "GET", "/v1/schedules/"+fp, nil)
			if fp != own || !admitted {
				if code != http.StatusNotFound {
					t.Fatalf("GET %s of a blob the server may not serve under it: %d %s, want 404", fp, code, got)
				}
				continue
			}
			wantCode, want := serveOn(refH, "POST", "/v1/schedules", blob)
			if (wantCode != http.StatusOK && wantCode != http.StatusUnprocessableEntity) || code != wantCode || got != want {
				t.Fatalf("GET of its own fingerprint: %d %s, want the submit's %d %s", code, got, wantCode, want)
			}
		}
	})
}

// mustSubmit decodes a submit body.
func mustSubmit(tb testing.TB, body string) *SubmitRequest {
	tb.Helper()
	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		tb.Fatal(err)
	}
	return &req
}

// FuzzSessionCheckpoint stores fuzzer-chosen bytes as session fz's
// checkpoint on a fresh server and reads the session's status twice. Both
// answers are 200 or both 404. A 200 repeats byte for byte and counts no
// checkpoint error; a 404 means the checkpoint was refused, which counts
// one however often it is read. Every restore solve goes through one shared
// memo.
func FuzzSessionCheckpoint(f *testing.F) {
	memo := grid.NewMemStore(0)
	donorBlobs := store.NewMemBlobs()
	donor := New(Options{MaxTasks: 3, Store: memo, Checkpoints: donorBlobs})
	f.Cleanup(donor.Close)
	dh := donor.Handler()
	body := `{"session_id":"fz","min_samples":4,"relearn":4,` + smallBody(0)[1:]
	if code, resp := serveOn(dh, "POST", "/v1/sessions", []byte(body)); code != http.StatusOK {
		f.Fatalf("donor create: %d %s", code, resp)
	}
	created, _, _ := donorBlobs.GetBlob("session-fz")
	f.Add(created)
	// Ten hyper-periods at the stated ACEC, then ten at a heavier load,
	// which drifts and re-solves.
	set, err := task.NewSet(mustSubmit(f, smallBody(0)).Tasks)
	if err != nil {
		f.Fatal(err)
	}
	ins, err := set.Instances()
	if err != nil {
		f.Fatal(err)
	}
	var observed []byte
	for _, load := range []float64{0, 0.8} {
		rows := make([][]float64, 10)
		for i := range rows {
			for _, in := range ins {
				tk := &set.Tasks[in.TaskIndex]
				rows[i] = append(rows[i], tk.ACEC+load*(tk.WCEC-tk.ACEC))
			}
		}
		b, err := json.Marshal(ObserveRequest{Hyperperiods: rows})
		if err != nil {
			f.Fatal(err)
		}
		code, resp := serveOn(dh, "POST", "/v1/sessions/fz/observe", b)
		if code != http.StatusOK || strings.Contains(resp, `"resolved":true`) != (load > 0) {
			f.Fatalf("donor observe at load %g: %d %s", load, code, resp)
		}
		observed, _, _ = donorBlobs.GetBlob("session-fz")
		f.Add(observed)
		f.Add(observed[:len(observed)/2])
	}
	// A negative sum of squared deviations, which no fold writes, would
	// report a NaN standard deviation.
	var cp sessionCheckpoint
	if err := json.Unmarshal(observed, &cp); err != nil {
		f.Fatal(err)
	}
	cp.Controller.Life[0].M2 = -1
	negative, err := json.Marshal(&cp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(negative)

	f.Fuzz(func(t *testing.T, blob []byte) {
		var cp sessionCheckpoint
		if json.Unmarshal(blob, &cp) == nil && cp.Controller != nil && costlySolve(cp.Starts, cp.Controller.Base) {
			t.Skip("restore solve too slow for the smoke run")
		}
		blobs := store.NewMemBlobs()
		blobs.PutBlob("session-fz", blob)
		s := New(Options{MaxTasks: 3, Store: memo, Checkpoints: blobs})
		defer s.Close()
		h := s.Handler()
		code, first := serveOn(h, "GET", "/v1/sessions/fz", nil)
		code2, second := serveOn(h, "GET", "/v1/sessions/fz", nil)
		errs := s.m.checkpointErrs.Value()
		switch {
		case code == http.StatusOK && code2 == http.StatusOK && second == first && errs == 0:
		case code == http.StatusNotFound && code2 == http.StatusNotFound && errs == 1:
		default:
			t.Fatalf("answered %d %s, then %d %s, with %d checkpoint errors", code, first, code2, second, errs)
		}
	})
}
